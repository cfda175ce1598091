"""Platform builder tests: wiring, memory map, loading, resources."""

import pytest

from repro.core.sniffers import CountLoggingSniffer, EventLoggingSniffer
from repro.mpsoc.asm import assemble
from repro.mpsoc.cache import CacheConfig
from repro.mpsoc.memctrl import AccessFault
from repro.mpsoc.noc import generate_custom, generate_mesh
from repro.mpsoc.platform import (
    MMIO_BASE,
    PRIVATE_BASE,
    SHARED_BASE,
    SLICE_COSTS,
    V2VP30_SLICES,
    CoreConfig,
    MPSoCConfig,
    build_platform,
    switch_slices,
)
from repro.mpsoc.processor import CORE_SPECS
from repro.util.units import KB, MB
from tests.conftest import small_config


def test_config_validation():
    with pytest.raises(ValueError):
        MPSoCConfig(name="x", cores=[])
    with pytest.raises(ValueError):
        MPSoCConfig(name="x", cores=[CoreConfig("a")], interconnect="rings")
    with pytest.raises(ValueError):
        MPSoCConfig(name="x", cores=[CoreConfig("a")], interconnect="noc")
    with pytest.raises(ValueError):
        MPSoCConfig(name="x", cores=[CoreConfig("a"), CoreConfig("a")])
    with pytest.raises(ValueError):
        CoreConfig("a", spec="z80")


def test_build_wires_components(platform2):
    assert len(platform2.cores) == 2
    assert len(platform2.memctrls) == 2
    assert len(platform2.icaches) == 2
    assert len(platform2.private_mems) == 2
    assert platform2.shared_mem is not None
    names = [name for name, _ in platform2.components()]
    assert len(names) == len(set(names))
    assert any("shared_mem" in n for n in names)


def test_memory_map(platform2):
    ctrl = platform2.memctrls[0]
    assert ctrl.decode(PRIVATE_BASE).name.endswith("private")
    assert ctrl.decode(SHARED_BASE).name.endswith("shared")
    assert ctrl.decode(MMIO_BASE).name.endswith("mmio")
    with pytest.raises(AccessFault):
        ctrl.decode(0x5000_0000)


def test_private_memories_are_private(platform2):
    program_a = assemble("main: li r1, 1\n      la r2, x\n      sw r1, 0(r2)\n      halt\n.data\nx: .word 0")
    program_b = assemble("main: li r1, 2\n      la r2, x\n      sw r1, 0(r2)\n      halt\n.data\nx: .word 0")
    platform2.load_program(0, program_a)
    platform2.load_program(1, program_b)
    for core in platform2.cores:
        core.run()
    addr_a = program_a.symbols["x"]
    assert platform2.memctrls[0].read_value(addr_a, 4) == 1
    assert platform2.memctrls[1].read_value(program_b.symbols["x"], 4) == 2


def test_shared_memory_is_shared(platform2):
    writer = assemble(f"main: li r1, 0x{SHARED_BASE:08x}\n      li r2, 99\n      sw r2, 0(r1)\n      halt")
    reader = assemble(f"main: li r1, 0x{SHARED_BASE:08x}\n      lw r3, 0(r1)\n      halt")
    platform2.load_program(0, writer)
    platform2.load_program(1, reader)
    platform2.cores[0].run()
    platform2.cores[1].run()
    assert platform2.cores[1].regs[3] == 99


def test_write_and_read_shared_helpers(platform2):
    platform2.write_shared(SHARED_BASE + 16, b"\xaa\xbb")
    assert platform2.read_shared(SHARED_BASE + 16, 2) == b"\xaa\xbb"


def test_program_count_mismatch(platform2):
    program = assemble("main: halt")
    with pytest.raises(ValueError):
        platform2.load_program_all([program])


def test_noc_platform_round_robin_placement():
    noc = generate_mesh("n", 2, 2)
    platform = build_platform(small_config(4, interconnect="noc", noc=noc))
    route = platform.interconnect.route("cpu3.bridge", platform.shared_mem.name)
    assert route[0] == "sw1_1"  # 4th core round-robins onto the 4th switch
    assert route[-1] == "sw0_0"  # shared memory defaults to the first switch


def test_noc_placement_override():
    noc = generate_mesh("n", 2, 2)
    platform = build_platform(
        small_config(
            2,
            interconnect="noc",
            noc=noc,
            noc_placement={"cpu0": "sw1_1", "shared_mem": "sw1_0"},
        )
    )
    assert platform.interconnect.endpoint_switch("cpu0.bridge") == "sw1_1"
    assert (
        platform.interconnect.endpoint_switch(platform.shared_mem.name) == "sw1_0"
    )


def test_cacheless_platform():
    platform = build_platform(small_config(1, icache=None, dcache=None))
    program = assemble("main: li r1, 3\n      halt")
    platform.load_program(0, program)
    platform.cores[0].run()
    assert platform.cores[0].regs[1] == 3


def test_resource_report_bus():
    platform = build_platform(small_config(4))
    report = platform.resource_report(num_count_sniffers=10)
    assert report["total"] == sum(
        v for k, v in report.items() if k not in ("total", "percent")
    )
    assert report["percent"] == pytest.approx(100 * report["total"] / V2VP30_SLICES)
    assert report["sniffers"] == 41 * 10


def test_resource_report_noc_larger_than_bus():
    bus_platform = build_platform(small_config(4))
    noc_platform = build_platform(
        small_config(4, interconnect="noc", noc=generate_mesh("n", 2, 3))
    )
    bus = bus_platform.resource_report()
    noc = noc_platform.resource_report()
    assert noc["interconnect"] > bus["interconnect"]


def test_building_block_slices_match_the_paper():
    """Section 3/4's V2VP30 figures: a complete Microblaze is 574 slices
    (4%), a memory controller 2%, the sniffers 0.2% / 0.3%."""
    assert CORE_SPECS["microblaze"].fpga_slices == 574
    assert SLICE_COSTS["memctrl"] == pytest.approx(0.02 * V2VP30_SLICES, rel=0.01)
    assert EventLoggingSniffer.fpga_overhead_percent == 0.2
    assert CountLoggingSniffer.fpga_overhead_percent == 0.3


def paper_config(name, cores, **overrides):
    """The Section 7 four-processor memory hierarchy."""
    return MPSoCConfig(
        name=name,
        cores=cores,
        icache=CacheConfig(name="i", size=4 * KB, line_size=16),
        dcache=CacheConfig(name="d", size=4 * KB, line_size=16),
        private_mem_size=16 * KB,
        shared_mem_size=1 * MB,
        **overrides,
    )


def sniffed_report(platform):
    """Utilization with a count-logging sniffer on every component."""
    return platform.resource_report(
        num_count_sniffers=sum(1 for _ in platform.components())
    )


def test_full_platform_utilization_matches_the_paper():
    """The linear slice model lands within the paper's quoted figures:
    the sniffed 4-processor bus MPSoC at 66%, the dithering NoC MPSoC
    (2 switches) at 80%, the 6-switch 4x4 NoC system at ~70%."""
    # The 66% platform mixes one PowerPC hard core with three Microblazes.
    bus = sniffed_report(build_platform(paper_config(
        "p66",
        [CoreConfig("ppc0", spec="ppc405")]
        + [CoreConfig(f"mb{i}") for i in range(3)],
    )))
    noc2 = sniffed_report(build_platform(paper_config(
        "paper",
        [CoreConfig(f"cpu{i}") for i in range(4)],
        interconnect="noc",
        noc=generate_custom("noc2", 2, ring=False, buffer_flits=3),
    )))
    noc6 = generate_custom("noc6", 6, buffer_flits=3)
    switches = sum(switch_slices(4, 4, 3) for _ in noc6.switches)
    assert bus["percent"] == pytest.approx(66, abs=12)
    assert noc2["percent"] == pytest.approx(80, abs=15)
    assert 100 * switches / V2VP30_SLICES == pytest.approx(70, abs=15)
    assert noc2["total"] > bus["total"]


def test_mmio_hub_dispatch(platform1):
    class Handler:
        def __init__(self):
            self.log = []

        def mmio_read(self, offset):
            return 7 + offset

        def mmio_write(self, offset, value):
            self.log.append((offset, value))

    handler = Handler()
    base = platform1.mmio.register(handler)
    assert platform1.mmio.mmio_read(base + 4) == 11
    platform1.mmio.mmio_write(base + 8, 3)
    assert handler.log == [(8, 3)]
    # Unmapped windows read as zero and swallow writes.
    assert platform1.mmio.mmio_read(base + 16 * 100) == 0
    platform1.mmio.mmio_write(base + 16 * 100, 1)


def test_stats_shape(platform2):
    stats = platform2.stats()
    assert set(stats) == {
        "cores",
        "icaches",
        "dcaches",
        "private_mems",
        "shared_mem",
        "interconnect",
    }
    assert len(stats["cores"]) == 2


def _stepped_dithering_noc():
    from repro.scenario.presets import PRESETS

    framework = PRESETS.get("dithering_noc")().build()
    for _ in range(3):
        framework.step_window()
    return framework


def test_dropped_platform_dies_without_the_cycle_collector():
    """A core reaches its sniffers through the MMIO hub and its memory
    controller; the sniffers' back-references are weak, so a dropped
    platform and its translated code go with their last reference."""
    import gc
    import weakref

    _stepped_dithering_noc()  # one-time lazy set-up of the libraries
    gc.collect()
    gc.disable()
    try:
        framework = _stepped_dithering_noc()
        platform = framework.platform
        refs = [weakref.ref(obj) for obj in (
            platform, *platform.cores, *platform.memctrls,
            *framework.sniffer_bank.sniffers,
        )]
        del framework, platform
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_sniffers_do_not_keep_their_platform_alive():
    from repro.core.sniffers import SnifferBank

    platform = build_platform(small_config(2))
    bank = SnifferBank.from_platform(platform)
    assert bank.sniffers[0].component is platform.cores[0]
    del platform
    assert all(sniffer.component is None for sniffer in bank.sniffers)
