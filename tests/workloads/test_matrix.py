"""MATRIX driver tests against the NumPy golden model."""

import numpy as np
import pytest

from repro.emulation.engine import EventDrivenEngine
from repro.mpsoc.platform import build_platform
from repro.workloads.matrix import (
    expected_checksum,
    expected_product,
    matrix_elements,
    matrix_program,
    matrix_programs,
    matrix_source,
)
from tests.conftest import small_config


def run_matrix(num_cores=1, n=4, iterations=1):
    platform = build_platform(small_config(num_cores))
    platform.load_program_all(matrix_programs(num_cores, n=n, iterations=iterations))
    EventDrivenEngine(platform).run_to_completion()
    return platform


def test_matrix_elements_deterministic_and_distinct():
    a0 = matrix_elements(8, 0, "a")
    assert np.array_equal(a0, matrix_elements(8, 0, "a"))
    assert not np.array_equal(a0, matrix_elements(8, 1, "a"))
    assert not np.array_equal(a0, matrix_elements(8, 0, "b"))
    with pytest.raises(ValueError):
        matrix_elements(4, 0, "c")


@pytest.mark.parametrize("n", [1, 3, 4, 8])
def test_checksum_matches_golden(n):
    platform = run_matrix(1, n=n)
    assert platform.shared_mem.read_word(0) == expected_checksum(n, 0)


def test_product_matrix_in_private_memory():
    n = 4
    platform = run_matrix(1, n=n)
    program = matrix_program(n=n, iterations=1, core_id=0)
    base = program.symbols["mat_c"]
    want = expected_product(n, 0)
    ctrl = platform.memctrls[0]
    for i in range(n):
        for j in range(n):
            got = ctrl.read_value(base + 4 * (i * n + j), 4)
            assert got == int(want[i, j]), f"C[{i}][{j}]"


def test_multicore_each_core_writes_its_slot():
    platform = run_matrix(4, n=4)
    for core in range(4):
        assert platform.shared_mem.read_word(4 * core) == expected_checksum(4, core)


def test_iterations_repeat_same_result():
    once = run_matrix(1, n=4, iterations=1)
    thrice = run_matrix(1, n=4, iterations=3)
    assert once.shared_mem.read_word(0) == thrice.shared_mem.read_word(0)
    # More iterations, proportionally more instructions.
    i1 = once.cores[0].instructions
    i3 = thrice.cores[0].instructions
    assert i3 > 2.5 * i1


def test_cycles_scale_with_matrix_size():
    small = run_matrix(1, n=4)
    big = run_matrix(1, n=8)
    # O(n^3) kernel: 8x the multiplies.
    assert big.cores[0].cycle > 4 * small.cores[0].cycle


def test_source_validation():
    with pytest.raises(ValueError):
        matrix_source(n=0)
    with pytest.raises(ValueError):
        matrix_source(iterations=0)


def test_program_fits_default_private_memory():
    program = matrix_program(n=8, iterations=1)
    assert program.data_base + program.data_size <= 16 * 1024
