"""Pins for the canonical scenario digest the trace store keys on.

Every recording on disk is filed under :func:`scenario_trace_digest`,
so the digest bytes must not move when the way it is computed changes
(no deep copies, one canonical JSON pass).  These hex values were
captured before that rework, for every preset, 20 DSE points, a raw
dict spelling, and a scenario whose workload params hold non-string dict
keys — JSON turns those keys into strings *before* sorting them, so
``{10: ..., 2: ...}`` sorts as ``"10" < "2"``.  The two closed-loop
presets (``matrix_tm_cached``, ``matrix_tm_dfs``) were re-captured when
``config.trace_stride`` was retired: a closed loop digests its whole
config, which lost that key.

To re-capture after a deliberate digest change, run this module as a
script (``PYTHONPATH=src python tests/trace/test_digest_pin.py``) and
paste its output over ``PINS``.
"""

import random

import pytest

from repro.dse import space
from repro.scenario.presets import PRESETS
from repro.trace.store import scenario_trace_digest


def _dse_points():
    points = space.default_points()
    return random.Random(7).sample(points, 20)


def _odd_keys():
    scenario = PRESETS.get("matrix_tm_unmanaged")()
    scenario.workload.params["table"] = {
        10: "ten", 2: "two", "a": [1, (2, 3)], 1.5: None, None: {3: 4},
        False: 0.1,
    }
    return scenario


def _raw_dict():
    return {
        "name": "raw",
        "workload": "matrix",
        "platform": PRESETS.get("matrix_quickstart")().platform.to_dict(),
        "policy": "none",
    }


def measure():
    digests = {
        f"preset:{name}": scenario_trace_digest(PRESETS.get(name)())
        for name in PRESETS.names()
    }
    for point in _dse_points():
        digests[f"dse:{point.label}"] = scenario_trace_digest(
            space.point_scenario(point)
        )
    digests["raw_dict"] = scenario_trace_digest(_raw_dict())
    digests["odd_keys"] = scenario_trace_digest(_odd_keys())
    return digests


PINS = {
    'preset:dithering_noc': '1dd03d988188e7bd9d3ba80dd391c870f497e0937a6c047566333d166b283cc4',
    'preset:hetero_biglittle': '14a973da87157c20335af2d70ca0c1a63d1f050ebc7e1bf653fafcb14fb1d52a',
    'preset:matrix_quickstart': '9a97399429627be90e444304e71312ba16039c02c1815a0db5b541a9a57ee23d',
    'preset:matrix_tm_cached': '7bac0963faa474ec8f3743d03a99fa0a551a80dfb171f6f9ff95bad94cde91b3',
    'preset:matrix_tm_dfs': 'b7713622415c61662d05bfe40651bec13425715d3fc55df22807ffbd0e423ce0',
    'preset:matrix_tm_unmanaged': 'c0cd49d6e04bd80e005d0d85aa1166753cb16d3ebadba66828358282f95b34aa',
    'dse:dse_2b1l_65nm_300MHz_g3x3': '321d8a1711f15987f8c6b4d5ad3e959e2b638c00a9f542fb221d9f2c99f809bb',
    'dse:dse_4b5l_130nm_200MHz_g2x2': 'ea0f294c317174d44c63e6b76ce59e9694672d75ea4c1858bc383d3f254a023e',
    'dse:dse_1b3l_65nm_100MHz_g2x2': '283047ed61bbea8fff3a80e2d3f89944477c8175d566d12663a00a5beef0301f',
    'dse:dse_2b3l_90nm_500MHz_g2x2': '0526a784bd5f0d393e418a6756f777321514ee645e290dbb5cfca8b5ccfbdd14',
    'dse:dse_3b3l_65nm_300MHz_g2x2': '8010db8d4dad8dcc9507b2de8502e58268b7669be04b5d8348eb74b2abe0be85',
    'dse:dse_1b1l_130nm_250MHz_g3x3': 'a8aee2f4155029c1963e8b973a39ab26852470c88ce76e7e24dc48d6511f9cf3',
    'dse:dse_1b1l_65nm_200MHz_g2x2': '5470f28aa518f14d9efe0e3e4028c38ce36e8df6579161a847dc4e861e491913',
    'dse:dse_4b2l_130nm_100MHz_g2x2': '68a0c641828518ad7163bb7e7e73719e70f4dba7537461b879c4bada6a4e629d',
    'dse:dse_3b1l_130nm_150MHz_g2x2': '905ca9b0459cd7f1e9353931e48ac10d57967d494b159057d919bf697973af0e',
    'dse:dse_1b2l_130nm_500MHz_g2x2': 'e6c8a98840588366f5930e6b709c5cb09d3896e676dee8793c0816c05943bfce',
    'dse:dse_2b2l_65nm_400MHz_g2x2': '0c6c80beb1dafafb86ca0e9d68b19036871de557246c028ad743ae7292d0b6b0',
    'dse:dse_3b2l_130nm_300MHz_g2x2': 'fd6f46deee72552ae5e1d52c3dab80ff125c0b5b8ab62c344c8ab0ad41fcb671',
    'dse:dse_1b1l_90nm_150MHz_g3x3': 'abb3b91f0a7e6a6650cd0171444abd7f74c0911d42aa35b72029498564177440',
    'dse:dse_4b4l_130nm_250MHz_g3x3': 'bc2964c45378b46142b96d33eed19a53daa7813b1a7002e1cf66fa1a9ae48b52',
    'dse:dse_3b0l_90nm_100MHz_g3x3': 'edfda79235df1bccac984b3ae38bff6e5e740819dd48e45a67a23f8e505f82fd',
    'dse:dse_1b5l_130nm_300MHz_g3x3': '3ae773439a3356c59236a49b70f0d37257c9d3ca206df3540118624ec9127d07',
    'dse:dse_1b0l_65nm_400MHz_g2x2': '5e08c378dac5a2542baa85171a64395a2f8c9abca1f45743406d6552cd2c72ec',
    'dse:dse_1b2l_130nm_200MHz_g2x2': 'c04a4217bd469245265e76e7d69d5f8cbace86b7da4b0bcf7380be10606e126a',
    'dse:dse_2b4l_90nm_400MHz_g2x2': 'ab6bde7fac5c200f7810ab3df3eef20822a410c17fb9f32bd3bc637e493a7b59',
    'dse:dse_2b4l_130nm_300MHz_g2x2': '134a38773189c566768999d6e748cd141de4447f45ebaea8fe0ab4cfe8b70118',
    'raw_dict': 'e7cbb599b5af3900f3959cb127e5e3a396eb4b0ff76eb576b3d9f3ce928d806f',
    'odd_keys': 'bb339aba247a2eabee0ea6793f96e8421dd9e764777893b62a057bde1bc0abb6',
}


@pytest.fixture(scope="module")
def measured():
    return measure()


@pytest.mark.parametrize("case", sorted(PINS))
def test_digest_matches_pinned_parent(case, measured):
    assert measured[case] == PINS[case]


def test_every_case_is_pinned(measured):
    assert sorted(measured) == sorted(PINS)


if __name__ == "__main__":
    print("PINS = {")
    for case, digest in measure().items():
        print(f"    {case!r}: {digest!r},")
    print("}")
