"""Synthetic workload-generator tests."""

import pytest

from repro.emulation.engine import EventDrivenEngine
from repro.mpsoc.platform import build_platform
from repro.workloads.generator import compute_burst_program, shared_traffic_program
from tests.conftest import small_config


def test_shared_traffic_generates_interconnect_load():
    platform = build_platform(small_config(2))
    platform.load_program_all(
        [shared_traffic_program(i, num_words=32, reads_per_write=2) for i in range(2)]
    )
    EventDrivenEngine(platform).run_to_completion()
    bus = platform.interconnect.stats()
    # 2 cores x 32 iterations x (2 reads + 1 write) = 192 transactions.
    assert bus["transactions"] == 192
    assert platform.shared_mem.stats()["writes"] == 64


def test_shared_traffic_iterations_scale():
    platform = build_platform(small_config(1))
    platform.load_program(0, shared_traffic_program(0, num_words=8, iterations=3))
    EventDrivenEngine(platform).run_to_completion()
    assert platform.interconnect.stats()["transactions"] == 8 * 2 * 3


def test_compute_burst_runs_and_halts():
    platform = build_platform(small_config(1))
    platform.load_program(0, compute_burst_program(busy_loops=50, idle_loops=10))
    EventDrivenEngine(platform).run_to_completion()
    core = platform.cores[0]
    assert core.halted
    assert core.instructions > 50 * 4


def test_compute_burst_duty_shapes_activity():
    lean = build_platform(small_config(1))
    lean.load_program(0, compute_burst_program(busy_loops=100, idle_loops=0))
    EventDrivenEngine(lean).run_to_completion()
    padded = build_platform(small_config(1))
    padded.load_program(0, compute_burst_program(busy_loops=100, idle_loops=400))
    EventDrivenEngine(padded).run_to_completion()
    assert padded.cores[0].cycle > lean.cores[0].cycle


def test_generator_validation():
    with pytest.raises(ValueError):
        shared_traffic_program(0, num_words=0)
    with pytest.raises(ValueError):
        compute_burst_program(busy_loops=0)
