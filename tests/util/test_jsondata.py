"""``json_copy`` against ``copy.deepcopy``, ``json_canonical`` against a
JSON round trip."""

import copy
import json
import math
from collections import OrderedDict

import numpy as np
import pytest

from repro.util.jsondata import json_canonical, json_copy

DATA = {
    "name": "x",
    "params": {
        "profile": {"utilization": [[["core", 0], 0.85], [["bus", None], 0.3]]},
        "table": {10: "ten", 2: (3, [4.5, None]), "a": True},
        "ordered": OrderedDict(b=1, a=[2]),
        "array": np.arange(3),
    },
    "grid": (3, 3),
}


def test_json_copy_equals_deepcopy_and_shares_nothing_mutable():
    copied = json_copy(DATA)
    expected = copy.deepcopy(DATA)
    assert copied.keys() == expected.keys()
    assert json.dumps(copied["params"]["profile"]) == json.dumps(
        expected["params"]["profile"]
    )
    assert copied["params"]["table"] == expected["params"]["table"]
    assert type(copied["params"]["ordered"]) is OrderedDict
    assert copied["grid"] == (3, 3)
    copied["params"]["profile"]["utilization"][0][0].append("mutated")
    copied["params"]["array"][0] = 99
    assert DATA["params"]["profile"]["utilization"][0][0] == ["core", 0]
    assert DATA["params"]["array"][0] == 0


@pytest.mark.parametrize("value", [
    {10: "a", 2: "b", "c": [1, (2, 3)]},
    {1.5: 1, math.inf: 2, -math.inf: 3, None: 4, False: 5, True: 6},
    {"nested": [{3: {4: "x"}}, ("t", {"u": 1})]},
    {1: "first", "1": "second wins"},
    [1.0, -0.0, 1e16, "é"],
])
def test_json_canonical_equals_a_round_trip(value):
    assert json_canonical(value) == json.loads(json.dumps(value))
    assert json.dumps(json_canonical(value), sort_keys=True) == json.dumps(
        json.loads(json.dumps(value)), sort_keys=True
    )


def test_json_canonical_nan_key_and_bad_key():
    assert list(json_canonical({math.nan: 1})) == ["NaN"]
    with pytest.raises(TypeError):
        json_canonical({(1, 2): "tuple keys are not JSON"})
