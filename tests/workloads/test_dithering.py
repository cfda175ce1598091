"""DITHERING driver tests: bit-exact agreement with the golden model."""

import numpy as np
import pytest

from repro.emulation.engine import EventDrivenEngine
from repro.mpsoc.platform import build_platform
from repro.workloads.dithering import (
    dithering_programs,
    golden_dither,
    image_base,
    load_images,
    read_image,
)
from repro.workloads.images import synthetic_grey_image
from tests.conftest import small_config


def run_dithering(num_cores=2, width=16, height=16, num_images=1):
    platform = build_platform(small_config(num_cores))
    inputs = load_images(platform, width=width, height=height, num_images=num_images)
    platform.load_program_all(
        dithering_programs(
            num_cores, width=width, height=height, num_images=num_images
        )
    )
    EventDrivenEngine(platform).run_to_completion()
    return platform, inputs


def test_images_deterministic():
    a = synthetic_grey_image(16, 16, 0)
    assert np.array_equal(a, synthetic_grey_image(16, 16, 0))
    assert not np.array_equal(a, synthetic_grey_image(16, 16, 1))
    assert a.dtype == np.uint8
    with pytest.raises(ValueError):
        synthetic_grey_image(0, 4)


def test_golden_output_is_binary():
    out = golden_dither(synthetic_grey_image(16, 16), num_segments=2)
    assert set(np.unique(out)) <= {0, 255}


def test_golden_requires_divisible_segments():
    with pytest.raises(ValueError):
        golden_dither(synthetic_grey_image(8, 9), num_segments=2)


@pytest.mark.parametrize("num_cores", [1, 2, 4])
def test_emulated_matches_golden(num_cores):
    width = height = 16
    platform, inputs = run_dithering(num_cores, width, height, num_images=1)
    got = read_image(platform, 0, width, height)
    want = golden_dither(inputs[0], num_segments=num_cores)
    assert np.array_equal(got, want)


def test_two_images_both_dithered():
    width = height = 8
    platform, inputs = run_dithering(2, width, height, num_images=2)
    for index in range(2):
        got = read_image(platform, index, width, height)
        want = golden_dither(inputs[index], num_segments=2)
        assert np.array_equal(got, want), f"image {index}"


def test_segments_do_not_interfere():
    """Each core only writes its own rows: the result equals running the
    segments independently (race freedom of the parallel kernel)."""
    width = height = 16
    platform, inputs = run_dithering(4, width, height, num_images=1)
    got = read_image(platform, 0, width, height)
    rows = height // 4
    for segment in range(4):
        seg_in = inputs[0][segment * rows : (segment + 1) * rows]
        seg_golden = golden_dither(seg_in, num_segments=1)
        assert np.array_equal(got[segment * rows : (segment + 1) * rows], seg_golden)


def test_image_base_layout():
    assert image_base(0, 128, 128) + 128 * 128 == image_base(1, 128, 128)


def test_shared_memory_traffic_dominates():
    platform, _ = run_dithering(2, 16, 16)
    shared = platform.shared_mem.stats()
    # Every pixel read/write goes to shared memory.
    assert shared["reads"] + shared["writes"] > 16 * 16


def test_height_not_divisible_rejected():
    with pytest.raises(ValueError):
        dithering_programs(3, width=16, height=16)
