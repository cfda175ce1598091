"""Exactness pins for the closed-loop thermal window.

The window carries activity -> power -> injection -> solve -> readout ->
sensors, and any rework of that path (matrix assembly, vectorized power,
sensor hysteresis) must not move one float.  These constants were
captured before the window became array-native; each case pins the
SHA-256 of the thermal trace, the window count and the solver's
``factorizations`` / ``solves`` counters.

Cases: ``matrix_tm_cached`` (cached LU, DFS, profiled workload),
``matrix_tm_dfs`` (the exact ``sparse_be`` reference), ``hetero_biglittle``
(per-core clocks and the 65 nm V(f)^2 factor), a three-member co-stepped
:meth:`~repro.scenario.runner.Runner.run_batched` group, a record ->
replay of ``matrix_tm_cached``, and ``dse_group``: the default design
space's 21 heterogeneous ``4b5l`` designs at grid 2x2 co-stepped with a
trace store, which records them, and their grid 3x3 twins, which replay
those recordings as a second group.

To re-capture after a deliberate model change, run this module as a
script (``PYTHONPATH=src python tests/thermal/test_window_exactness_pin.py``)
and paste its output over ``PINS``.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core import framework as framework_module
from repro.core.workload_model import ActivityProfile
from repro.dse.space import default_points, point_scenario
from repro.scenario.presets import PRESETS
from repro.scenario.runner import Runner
from repro.thermal.backends import CachedLU
from repro.trace.capture import record
from repro.trace.replay import replay
from repro.trace.store import scenario_trace_digest


def _trace_sha(trace):
    blob = json.dumps(trace.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _solo(name, max_windows):
    scenario = PRESETS.get(name)()
    scenario.max_windows = max_windows
    framework, report = scenario.run()
    stats = framework.solver.backend.stats()
    return {
        "trace_sha": _trace_sha(framework.trace),
        "windows": report.windows,
        "factorizations": stats["factorizations"],
        "solves": stats["solves"],
    }


def _scaled_tm_dfs(scale):
    """``matrix_tm_dfs`` with every utilization scaled by ``scale``."""
    scenario = PRESETS.get("matrix_tm_dfs")()
    scenario.name = f"tm_dfs_x{scale}"
    scenario.max_windows = 400  # long enough for DFS transitions
    params = scenario.workload.params
    profile = ActivityProfile.from_dict(params["profile"])
    profile.utilization = {
        source: value * scale for source, value in profile.utilization.items()
    }
    params["profile"] = profile.to_dict()
    return scenario


def _counting_backends(monkeypatch):
    """The list every co-step group's shared backend joins as it binds."""
    shared = []

    class Counting(CachedLU):
        def bind(self, network):
            shared.append(self)
            return super().bind(network)

    monkeypatch.setattr(framework_module, "CachedLU", Counting)
    return shared


def _batched(monkeypatch):
    """Three structure-sharing scenarios co-stepped by ``run_batched``."""
    shared = _counting_backends(monkeypatch)
    results = Runner(capture_trace=True).run_batched(
        [_scaled_tm_dfs(scale) for scale in (0.9, 1.0, 1.05)]
    )
    assert len(shared) == 1, "the three members must form one group"
    return {
        "trace_sha": [_trace_sha(result.trace) for result in results],
        "windows": [result.report.windows for result in results],
        "factorizations": shared[0].factorizations,
        "solves": shared[0].solves,
    }


def _dse_group(monkeypatch):
    """The default space's ``4b5l`` designs through ``run_batched`` with
    a trace store: the grid 2x2 group records, its 3x3 twins replay."""
    shared = _counting_backends(monkeypatch)
    points = [p for p in default_points() if (p.big, p.little) == (4, 5)]
    scenarios = [point_scenario(p) for p in points]
    runner = Runner(capture_trace=True, trace_store=True)
    results = runner.run_batched(scenarios)
    coarse = [k for k, p in enumerate(points) if p.spreader_resolution == (2, 2)]
    fine = [k for k, p in enumerate(points) if p.spreader_resolution == (3, 3)]
    assert len(coarse) == len(fine) == 21 and len(shared) == 2
    assert not any(results[k].replayed for k in coarse)
    assert all(results[k].replayed for k in fine)
    store = runner.trace_store
    power = [
        store.get(scenario_trace_digest(scenarios[k])).power_w for k in coarse
    ]
    return {
        "trace_sha": [_trace_sha(results[k].trace) for k in coarse],
        "power_sha": [
            hashlib.sha256(np.ascontiguousarray(p).tobytes()).hexdigest()
            for p in power
        ],
        "replayed_trace_sha": [_trace_sha(results[k].trace) for k in fine],
        "windows": [results[k].report.windows for k in coarse + fine],
        "factorizations": [backend.factorizations for backend in shared],
        "solves": [backend.solves for backend in shared],
    }


def _replayed():
    scenario = PRESETS.get("matrix_tm_cached")()
    framework, _, archive = record(scenario)
    player, report = replay(archive)
    stats = player.solver.backend.stats()
    return {
        "live_trace_sha": _trace_sha(framework.trace),
        "trace_sha": _trace_sha(player.trace),
        "windows": report.windows,
        "factorizations": stats["factorizations"],
        "solves": stats["solves"],
    }


def measure(case, monkeypatch=None):
    if case == "matrix_tm_cached":
        return _solo("matrix_tm_cached", 1000)
    if case == "matrix_tm_dfs":
        return _solo("matrix_tm_dfs", 100)
    if case == "hetero_biglittle":
        return _solo("hetero_biglittle", 40)
    if case == "run_batched":
        return _batched(monkeypatch)
    if case == "replay":
        return _replayed()
    if case == "dse_group":
        return _dse_group(monkeypatch)
    raise KeyError(case)


CASES = [
    "matrix_tm_cached",
    "matrix_tm_dfs",
    "hetero_biglittle",
    "run_batched",
    "replay",
    "dse_group",
]

PINS = {
    "matrix_tm_cached": {
        "trace_sha": "325d8f5ffec1d0b5e56509d4c189ea1687040d15300f17726af5f13d1f8a46ac",
        "windows": 840,
        "factorizations": 95,
        "solves": 840,
    },
    "matrix_tm_dfs": {
        "trace_sha": "f972471d589bf552dc41ac0a8e74eb3638dab84cf8d4d45444ba54f024946b2b",
        "windows": 100,
        "factorizations": 100,
        "solves": 100,
    },
    "hetero_biglittle": {
        "trace_sha": "558663f3b7d616843aea97077129d1229d6ca241408b9f3c123608174edf2821",
        "windows": 40,
        "factorizations": 40,
        "solves": 40,
    },
    "run_batched": {
        "trace_sha": [
            "e6ba85bda955d09540f4ca268f399c4345dbb624e648020b811073bb04ff7cef",
            "f00068b3e37d4c96bb92c5c17af2d912a0011e2c19d1ef5426df33fb5f589998",
            "c47980a7cea3d42eecfdc2c7f1a2bfeee490bb66d001bbe0aa5bfdee76029b86",
        ],
        "windows": [400, 400, 400],
        "factorizations": 57,
        "solves": 1200,
    },
    "replay": {
        "live_trace_sha": "325d8f5ffec1d0b5e56509d4c189ea1687040d15300f17726af5f13d1f8a46ac",
        "trace_sha": "325d8f5ffec1d0b5e56509d4c189ea1687040d15300f17726af5f13d1f8a46ac",
        "windows": 840,
        "factorizations": 95,
        "solves": 840,
    },
    "dse_group": {
        "trace_sha": [
            "a16f0f1bf298efb0392736ef39bc279ad86c5791359b13276224656f212a93d1",
            "fed32e1adfcc9e1a3edbaa5c04f8fa9ed8e5799ea1246308a2a89b3f2dbc8270",
            "9f1ef21c4abdb8ad7bbc0af39cc30a90a9a14daf207ccb87ee32afecabf80da7",
            "6d1d340467b1816c240a44e61109d90a77fa6a16d587bbdf0121b33c82af3758",
            "2bf5596abc2b425b5b251710ac474d92117fa45bf5ed1a7d7de5a1ca254d2b04",
            "137364d6bc49686678f6482acd7adbf799dbf8ea0afc9cb57df22b3d9b94c6a6",
            "b046cdcaac363d05fc42e8f3040bb861be8551974d539c9198dca73b3b7bc410",
            "32bc03b3076cba31cfe2c584a42981470ec4dd70c9685db873da6bd6ba1c110b",
            "2c76869765d81eb1e4912c3ae3e23ab6fedb8d7c7a4eccadb9d7f1e0ac7f9a65",
            "156799873f9373861110602bd5b8056247b94a99884bf67248e9c4d9e2f502a0",
            "4b961e2c5aa8b539bd15906e577baf75ece9282fd3973f7ba0a4c273a4cb0518",
            "6399f7ea3e36214501b2e8a727ca1227941ee9f1de4c3d1cef51ef094835066d",
            "96b7f329bc0df9a7f05fa589b939762d1e9ddcdd976cd4d7430e10cd8365e4b2",
            "325933641c48afcbe4c6bd48bb3d7ef2356e70ea9d2687f9f5267940a36ae4df",
            "03a3bc882c50a1ffffb5861bdbc39cc191fe7210b7af848f93f02fa6b86819c3",
            "0eda262029d290ace3f411c5895d5a4a892024e4ced07d0216e60892af48f830",
            "371d09d3a585a24cb78c2aa8860177933ea9be5e1c26b29d4705a587232fc78b",
            "d14652547c15f6c329f9234c16301aab5c7af889f9deba5b2b4a9c2fc00892e9",
            "ecee967371cd86e87417f41ec9b4e6419167d0d1cd81ef5694313a52f021da65",
            "fc7a18dbb4e741b436183ff6d8620327571fa4a2e89bda9f1116cb308ce573bf",
            "3e1fa8e81153e386e31e86f10a60ca6d809c14785894c3baa0055830c7b68904",
        ],
        "power_sha": [
            "8c59e895099e292e4d7095ce419b659c3474eecf23f847c4925ac950acae6468",
            "4c1e3aee856a71948cfe61aaaede424d4037921bced2ae1ddbe7428434f14f9b",
            "2eb6730b81cb7e2bd0ba0d57008c606183471c0d04644ebe27c8c09fa356ce38",
            "1c3dfee1d8639bec5d61dd762d17166f458318d0fc51791d8b91a366b1a9d5a7",
            "079cf48a8803655474d95021d4c04ad3bedf220fa82fde750f774899e078c354",
            "8985e6fa91ea8501df4f7d9eaee9769d7662371faf3802abc116d65ec9486b43",
            "7f83eed6d5dc5d7167af9786562eba2bf24e119e1d2e5cf0d966c6e4b119e0fa",
            "f7603533ee72efbb869dd36166000ad6025eeea317d34bc1e8ad8d94e342f3d9",
            "92f06f0cfb88878b721bb3c52175790f005ab11b208ef3e762d89b5b2801334b",
            "e7ae2fe190d809e226006ab40101874393420c90fea9121bfa57cb6ea1784279",
            "d20fd3086c42593e24777c6e709cbb0bf4164b4cd34ab6301792375b6b05af75",
            "2360b503d48cf5ebfc2c31cf6016ff8002d91378bffbd7aed2458bacb020bf96",
            "c2bcc788c2f2a5de4bd953a1700dcc339143f8f1db66c334011fdaa3eedf4bb6",
            "7e2faa86fa0ded091418014c4aca1c7b8643ff603af53f3db85066b65d449f22",
            "451b4c77adef32c556b039e96b1d45bbf37dac1b46c72ccede7964fba244ade8",
            "cb4033a2aa3f52abfa256f41ce1dde07826d80f43a5ba617a3e15a0c5f582089",
            "bcfd90827734c2d228cf2afccf961b88ee740d9faf876f3083a63c53c61400c9",
            "9d9253c5d3634a92dd38bb6f818fb7a5cd61fe63a82ea0a5a757705b4f2162a1",
            "e066030b9feebf402ce21edb73e68581d0070769e59a89cf861843a18f4df869",
            "165486a6d30c66c1d9e1347411921e4c772a33cff1ced7ff9888b4741b2fe989",
            "ffd787ff8e0723468702244e386e840c67842cdd70f6b2926b0c98bc0650884e",
        ],
        "replayed_trace_sha": [
            "1eb959580855c2703f96dae3428049ad54ad5eed547b7e0003a8187a9e3bf26d",
            "6e39b16c1a41bed738600abbf71fb41cf106832a17f0e8c232b02460c450b71d",
            "2fc37e593ffaef4ddc99df849e153063521e413209c3de53cc8202b128c602af",
            "8ce9356577f1e2e2bc7f90db9eeb058a354e0ee2c7ce8892735e3cfe6918fb64",
            "5f93a31a342388c42a62d5a6b99e4b40b744c8c4442122c543318c4b36d2e632",
            "990da1fb8cc32995cd7d0333f6b33c70360986196bd6d7d3809175e2e9dbebe2",
            "f8ea732a4d3c134f7165aabb0ca2f2899853709418c01dfa0049939852fdb1d4",
            "aeb7eb9500f597e4afb0a868550bbf085186e5e3442bc6b3a5efbd9761881ebf",
            "278532cb3b559287d4e01ee5c6a205479a9a90221374a7eb140f972c2ad0e71c",
            "20de84ed24f50b85764016002c7c2dd1dea072ce88e107349e7039e7765e810a",
            "11753c61a085d267f6f0812294d31f4fdae9dad5bcb40b9c077ed053f9876694",
            "1a7310e42de6239cb1b5624fc48d18404df1e4927b062a9d359abdf795623865",
            "afb32aef2fddecad20a0307f4d41f01ce274a7ead9835f7d321175488456132a",
            "8c49079fae952fbe54ca23af4731270a2184b994b09cd0a1be4974a612b124d6",
            "fd3dc64fc81473af80b2ef3f37312c5bd026456fcf25a36e0baff74d9fce9ed7",
            "8f4b147f0c8549d45d6065bf337591b5c86bf0d000cf38c3e5773b66910876db",
            "f791ee4a3e3f69dce140d3233c18c3b08aeeaac3c58b6df71fe7940a936be50a",
            "af0d3fe0d9e7ce096493198b65e84dcb4c08d5b604058e77a2c922d1ddc0d330",
            "fe0cb3481984cc59d916c4419db879c9bfd4bea6840278d199071ab4b80c313c",
            "8d7fda5314c4eb4e5aee157f86fd97946c75edc8aec70fba21c31a52561fad66",
            "16b8fd806407343b1375182bf736b9e2e26190049862fac681b0f8c5e898129c",
        ],
        "windows": [12] * 42,
        "factorizations": [1, 1],
        "solves": [252, 252],
    },
}


@pytest.mark.parametrize("case", CASES)
def test_window_matches_pinned_parent(case, monkeypatch):
    assert measure(case, monkeypatch) == PINS[case]


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as patch:
        print("PINS = {")
        for case in CASES:
            print(f"    {case!r}: {measure(case, patch)!r},")
        print("}")
