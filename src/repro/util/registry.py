"""A generic named string-keyed registry and the one spec grammar.

Used across layers: the scenario package resolves workload generators
by name, the thermal package resolves floorplans and solver backends,
the policy package resolves thermal policies, and the static analysis
resolves rules.  Living in ``repro.util`` keeps the dependency
direction clean (thermal must not import scenario).

Every configurable choice a scenario names is written in one grammar:
a registered name, or a ``{"name": ..., "params": {...}}`` dict whose
``params`` is optional and whose other keys are errors.
:meth:`Registry.parse` is the only parser of that grammar and
:meth:`Registry.resolve` builds the entry from it, so a misspelled key
(``"parms"``) fails loudly instead of silently running the defaults.
"""

from __future__ import annotations

from typing import Any, Callable, Generic, TypeVar, cast, overload

from repro.util.jsondata import check_keys

T = TypeVar("T")

#: The keys a spec dict may carry.
SPEC_KEYS = frozenset({"name", "params"})


class Registry(Generic[T]):
    """A named string-keyed registry with helpful unknown-name errors."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, T] = {}

    @overload
    def register(self, name: str) -> Callable[[T], T]: ...

    @overload
    def register(self, name: str, obj: T) -> T: ...

    def register(
        self, name: str, obj: T | None = None
    ) -> T | Callable[[T], T]:
        """Register ``obj`` under ``name``; usable as a decorator when
        ``obj`` is omitted."""
        if obj is None:

            def decorator(fn: T) -> T:
                self.register(name, fn)
                return fn

            return decorator
        if not isinstance(name, str) or not name:
            raise ValueError(f"{self.kind} name must be a non-empty string")
        if name in self._entries:
            raise ValueError(f"{self.kind} {name!r} is already registered")
        self._entries[name] = obj
        return obj

    def unregister(self, name: str) -> None:
        self._entries.pop(name, None)

    def get(self, name: str) -> T:
        try:
            return self._entries[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r} "
                f"(available: {', '.join(sorted(self._entries))})"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._entries)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def parse(self, spec: object) -> tuple[str, dict[str, Any]]:
        """Split a spec into ``(name, params)``, checking only its shape.

        Whether the name is registered is left to :meth:`get`, so a
        spec can be parsed before its entry is registered.  ``params``
        is returned as is, not copied.  A malformed dict raises
        ``ValueError`` and anything but a str or dict ``TypeError``.
        """
        if isinstance(spec, str):
            return spec, {}
        if not isinstance(spec, dict):
            raise TypeError(
                f"a {self.kind} spec must be a name or a "
                f"{{'name': ..., 'params': {{...}}}} dict, "
                f"got {type(spec).__name__}"
            )
        if "name" not in spec:
            raise ValueError(f"a {self.kind} dict needs a 'name' entry")
        check_keys(spec, SPEC_KEYS, self.kind)
        name, params = spec["name"], spec.get("params", {})
        if not isinstance(name, str):
            raise ValueError(
                f"a {self.kind} name must be a string, "
                f"got {type(name).__name__}"
            )
        if not isinstance(params, dict):
            raise ValueError(
                f"{self.kind} params must be a dict, "
                f"got {type(params).__name__}"
            )
        return name, params

    def resolve(self, spec: object, *args: Any) -> Any:
        """Build the entry a spec names: ``get(name)(*args, **params)``."""
        name, params = self.parse(spec)
        factory = cast(Callable[..., Any], self.get(name))
        return factory(*args, **params)


def canonical_spec(spec: T) -> T | str:
    """The one spelling of a spec: ``{"name": X}`` and
    ``{"name": X, "params": {}}`` become the bare name ``X``.

    Any other value, a spec with params included, is returned as is, so
    all spellings of one choice serialize, and digest, the same.
    """
    if (
        isinstance(spec, dict)
        and "name" in spec
        and spec.keys() <= SPEC_KEYS
        and spec.get("params", {}) == {}
    ):
        name: str = spec["name"]
        return name
    return spec
