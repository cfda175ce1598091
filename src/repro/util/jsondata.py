"""Copying and canonicalizing the JSON-shaped data scenarios are made of.

:func:`json_copy` is the copy ``to_dict``/``from_dict`` hand out: equal
to ``copy.deepcopy`` without its memo bookkeeping.  :func:`json_canonical`
is what ``json.loads(json.dumps(value))`` would return, built in one
walk: the scenario digest hashes it.  :func:`check_keys` is the one
unknown-key check every ``from_dict`` a scenario file reaches makes.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Collection, Mapping
from typing import Any

#: Immutable leaf types a copy can share, and JSON reads back as written.
_ATOMS: frozenset[type] = frozenset((str, int, float, bool, type(None)))


def json_copy(value: Any) -> Any:
    """A copy of JSON-shaped ``value``, equal to ``copy.deepcopy(value)``.

    Dicts, lists and tuples are rebuilt and immutable scalars shared;
    anything else (a dataclass, a NumPy array, a dict subclass) goes
    through ``copy.deepcopy``.
    """
    cls = type(value)
    if cls in _ATOMS:
        return value
    # Scalar items are shared in place, without a call each.
    if cls is dict:
        return {key: item if type(item) in _ATOMS else json_copy(item)
                for key, item in value.items()}
    if cls is list:
        return [item if type(item) in _ATOMS else json_copy(item)
                for item in value]
    if cls is tuple:
        return tuple([item if type(item) in _ATOMS else json_copy(item)
                      for item in value])
    return copy.deepcopy(value)


def _json_key(key: object) -> str:
    """A dict key as JSON text spells it (``json.dumps``'s own rules)."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        if key != key:
            return "NaN"
        if key in (math.inf, -math.inf):
            return "Infinity" if key > 0 else "-Infinity"
        return float.__repr__(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
    )


def json_canonical(value: Any) -> Any:
    """``value`` as it reads back from JSON: string keys, lists for tuples.

    Keys are stringified the way ``json.dumps`` writes them, so a later
    ``sort_keys`` sorts ``{10: .., 2: ..}`` as ``"10" < "2"`` (and mixed
    int/str keys sort at all); a later duplicate key wins, as in
    ``json.loads``.  Other leaves pass through for ``json.dumps`` to
    write (or reject).
    """
    if isinstance(value, dict):
        return {
            key if type(key) is str else _json_key(key):
                item if type(item) in _ATOMS else json_canonical(item)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [item if type(item) in _ATOMS else json_canonical(item)
                for item in value]
    return value


def check_keys(data: object, known: Collection[str], what: str) -> None:
    """Refuse ``data`` unless it is a dict whose keys are all in ``known``.

    The ``ValueError`` names the unknown keys and the known ones, so a
    misspelled knob in a scenario file is reported as such instead of
    failing later as a ``TypeError`` from ``cls(**data)``.  ``what``
    names the section (``"config"``, ``"platform"``, ...).
    """
    if not isinstance(data, Mapping):
        raise ValueError(f"a {what} must be a dict, got {type(data).__name__}")
    unknown = data.keys() - known
    if unknown:
        raise ValueError(
            f"unknown {what} keys: {', '.join(sorted(map(str, unknown)))} "
            f"(known: {', '.join(sorted(known))})"
        )
