"""Parameter-grid expansion over scenario dicts.

:func:`sweep` takes a base :class:`Scenario` and a mapping of dotted
paths into its dict form to lists of candidate values, and expands the
cartesian product into named scenario variants — the design-space
front-end of the paper's "architecture exploration in minutes" pitch.
Because expansion works on ``Scenario.to_dict()`` trees, every variant
is by construction expressible as a JSON scenario file.
"""

import copy
import itertools
from dataclasses import dataclass, field

from repro.scenario.spec import Scenario
from repro.util.jsondata import check_keys


@dataclass(frozen=True)
class Variant:
    """A labelled candidate value for one swept key.

    Plain values label themselves (``"leaf=value"``); use a ``Variant``
    when the value is a whole subtree (a platform config, a policy spec)
    that needs a human name in the expanded scenario.
    """

    label: str
    value: object


def _set_path(tree, path, value):
    keys = path.split(".")
    node = tree
    for key in keys[:-1]:
        child = node.get(key)
        if not isinstance(child, dict):
            child = {}
            node[key] = child
        node = child
    node[keys[-1]] = value


def sweep(base, overrides, name=None):
    """Expand ``overrides`` into the grid of scenario variants.

    ``overrides`` maps dotted paths into the scenario dict (e.g.
    ``"config.sensor_upper_kelvin"``, ``"policy.params.low_hz"``,
    ``"platform"``) to lists of values or :class:`Variant` objects.
    Returns ``list[Scenario]``; with empty overrides the list holds one
    copy of ``base``.  Variant names are
    ``"<base name>[label1, label2, ...]"``.
    """
    base_dict = base.to_dict() if isinstance(base, Scenario) else copy.deepcopy(dict(base))
    base_name = name or base_dict.get("name", "scenario")
    keys = list(overrides)
    choices = []
    for key in keys:
        values = overrides[key]
        if isinstance(values, Variant):
            values = [values]
        if not isinstance(values, (list, tuple)) or not values:
            raise ValueError(f"sweep key {key!r} needs a non-empty list of values")
        leaf = key.split(".")[-1]
        choices.append(
            [
                value
                if isinstance(value, Variant)
                else Variant(f"{leaf}={value}", value)
                for value in values
            ]
        )
    scenarios = []
    for combo in itertools.product(*choices):
        tree = copy.deepcopy(base_dict)
        for key, variant in zip(keys, combo):
            value = variant.value
            _set_path(tree, key, copy.deepcopy(value))
        if combo:
            tree["name"] = f"{base_name}[{', '.join(v.label for v in combo)}]"
        else:
            tree["name"] = base_name
        scenarios.append(Scenario.from_dict(tree))
    return scenarios


@dataclass
class ExperimentSuite:
    """A named batch of scenarios, serializable as one JSON document."""

    name: str
    scenarios: list = field(default_factory=list)

    def __post_init__(self):
        self.scenarios = [
            s if isinstance(s, Scenario) else Scenario.from_dict(s)
            for s in self.scenarios
        ]

    @classmethod
    def from_sweep(cls, name, base, overrides):
        return cls(name=name, scenarios=sweep(base, overrides, name=name))

    def to_dict(self):
        return {
            "name": self.name,
            "scenarios": [s.to_dict() for s in self.scenarios],
        }

    @classmethod
    def from_dict(cls, data):
        check_keys(data, cls.__dataclass_fields__, "suite")
        if "name" not in data:
            raise ValueError("a suite needs a 'name' entry")
        return cls(name=data["name"], scenarios=list(data.get("scenarios", [])))

    def __len__(self):
        return len(self.scenarios)
