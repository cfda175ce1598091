"""MPSoC platform builder (Section 3, Figure 1).

``build_platform(MPSoCConfig)`` instantiates the baseline architecture of
the paper: N processing cores, one memory controller per core with
private I/D caches and a private main memory, one shared main memory,
and a bus or NoC interconnect between the memory controllers and the
shared memory.  A memory-mapped I/O window per core exposes the sniffer
control registers (sniffers can be de/activated at run time through SW
calls, Section 4.1).

The module also carries the FPGA resource-utilization model calibrated
against the slice counts the paper reports for the Virtex-2 Pro VP30
(Microblaze 4 %, memory controller 2 %, private memory 1 %, custom bus
1 %, 6-switch NoC ~70 %, full 4-core MPSoC 66 %...).
"""

from dataclasses import dataclass, field, replace

from repro.mpsoc.bus import Bus, BusConfig
from repro.mpsoc.cache import Cache, CacheConfig
from repro.mpsoc.memctrl import AddressRange, MemoryController
from repro.mpsoc.memory import KIND_PRIVATE, KIND_SHARED, Memory, MemoryConfig
from repro.mpsoc.noc import Noc, NocConfig
from repro.mpsoc.processor import CORE_SPECS, Processor
from repro.util.jsondata import check_keys
from repro.util.units import KB, MB

# -- memory map --------------------------------------------------------------
PRIVATE_BASE = 0x0000_0000
SHARED_BASE = 0x1000_0000
MMIO_BASE = 0x2000_0000
MMIO_SIZE = 0x1000

# -- FPGA resource model ------------------------------------------------------
V2VP30_SLICES = 13696  # Virtex-2 Pro VP30 (Section 3.1)

SLICE_COSTS = {
    "memctrl": 274,  # 2% of the V2VP30 (Section 3.2)
    "private_mem": 137,  # 1% (Section 3.2), BRAM aside
    "shared_mem_ctrl": 180,  # DDR controller share
    "bus_custom": 137,  # 1% (Section 3.3)
    "bus_opb": 160,
    "bus_plb": 220,
    "cache_ctrl": 80,
    "noc_ni": 120,
    "sniffer_event_logging": 27,  # 0.2% (Section 4.1)
    "sniffer_count_logging": 41,  # 0.3% (Section 4.1)
    "ethernet_dispatcher": 450,
    "vpcm": 250,
    "base_infrastructure": 2600,  # EDK clocking, JTAG, MAC, board glue
}


def switch_slices(radix_in, radix_out, buffer_flits):
    """Slice cost of one NoC switch.

    Calibrated so six 4x4 switches with 3-flit output buffers come out
    near the paper's 70% V2VP30 figure (Section 3.3).
    """
    return 40 * (radix_in + radix_out) + 25 * radix_in * radix_out * buffer_flits


@dataclass
class CoreConfig:
    """One processing element in the platform."""

    name: str
    spec: str = "microblaze"
    frequency_hz: float = None

    def __post_init__(self):
        if self.spec not in CORE_SPECS:
            raise ValueError(
                f"core {self.name}: unknown spec {self.spec!r} "
                f"(available: {sorted(CORE_SPECS)})"
            )

    def to_dict(self):
        return {"name": self.name, "spec": self.spec, "frequency_hz": self.frequency_hz}

    @classmethod
    def from_dict(cls, data):
        check_keys(data, cls.__dataclass_fields__, "core")
        return cls(**data)


@dataclass
class MPSoCConfig:
    """Whole-platform configuration (the user-definable HW architecture)."""

    name: str
    cores: list
    icache: CacheConfig = None
    dcache: CacheConfig = None
    private_mem_size: int = 16 * KB
    private_mem_latency: int = 1
    private_mem_physical_latency: int = None
    shared_mem_size: int = 1 * MB
    shared_mem_latency: int = 2
    shared_mem_physical_latency: int = None
    interconnect: str = "bus"  # "bus" | "noc"
    bus: BusConfig = None
    noc: NocConfig = None
    noc_placement: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.cores:
            raise ValueError(f"{self.name}: platform needs at least one core")
        if self.interconnect not in ("bus", "noc"):
            raise ValueError(f"{self.name}: bad interconnect {self.interconnect!r}")
        if self.interconnect == "noc" and self.noc is None:
            raise ValueError(f"{self.name}: interconnect 'noc' needs a NocConfig")
        names = [c.name for c in self.cores]
        if len(set(names)) != len(names):
            raise ValueError(f"{self.name}: duplicate core names")

    # -- heterogeneity ----------------------------------------------------------
    def core_class_counts(self):
        """Multiset of core spec names, e.g. ``{"ppc405": 2, "microblaze": 2}``."""
        counts = {}
        for core in self.cores:
            counts[core.spec] = counts.get(core.spec, 0) + 1
        return counts

    def static_core_frequencies(self):
        """Per-core-index static clock (explicit or the spec default)."""
        return {
            index: (core.frequency_hz or CORE_SPECS[core.spec].default_hz)
            for index, core in enumerate(self.cores)
        }

    @property
    def is_heterogeneous(self):
        """True when the platform mixes core specs or static clocks."""
        return (
            len(self.core_class_counts()) > 1
            or len(set(self.static_core_frequencies().values())) > 1
        )

    def to_dict(self):
        """Lossless JSON-compatible dict (``from_dict`` round-trips it)."""
        return {
            "name": self.name,
            "cores": [c.to_dict() for c in self.cores],
            "icache": self.icache.to_dict() if self.icache else None,
            "dcache": self.dcache.to_dict() if self.dcache else None,
            "private_mem_size": self.private_mem_size,
            "private_mem_latency": self.private_mem_latency,
            "private_mem_physical_latency": self.private_mem_physical_latency,
            "shared_mem_size": self.shared_mem_size,
            "shared_mem_latency": self.shared_mem_latency,
            "shared_mem_physical_latency": self.shared_mem_physical_latency,
            "interconnect": self.interconnect,
            "bus": self.bus.to_dict() if self.bus else None,
            "noc": self.noc.to_dict() if self.noc else None,
            "noc_placement": dict(self.noc_placement),
        }

    @classmethod
    def from_dict(cls, data):
        check_keys(data, cls.__dataclass_fields__, "platform")
        data = dict(data)
        data["cores"] = [CoreConfig.from_dict(c) for c in data.get("cores", [])]
        for cache_key in ("icache", "dcache"):
            if data.get(cache_key) is not None:
                data[cache_key] = CacheConfig.from_dict(data[cache_key])
        if data.get("bus") is not None:
            data["bus"] = BusConfig.from_dict(data["bus"])
        if data.get("noc") is not None:
            data["noc"] = NocConfig.from_dict(data["noc"])
        return cls(**data)


class _MmioHub:
    """Per-core MMIO window dispatching to registered handlers.

    Handlers (sniffer register files) occupy 16-byte sub-windows in
    registration order; reads/writes outside any window return 0 / are
    dropped, like unconnected peripheral addresses on the real bus.
    """

    WINDOW = 16

    def __init__(self, name):
        self.name = name
        self._handlers = []

    def register(self, handler):
        """Attach a handler exposing ``mmio_read(off)``/``mmio_write(off, v)``;
        returns the base offset of its window."""
        base = len(self._handlers) * self.WINDOW
        if base + self.WINDOW > MMIO_SIZE:
            raise ValueError(f"{self.name}: MMIO window space exhausted")
        self._handlers.append(handler)
        return base

    def mmio_read(self, offset):
        index = offset // self.WINDOW
        if 0 <= index < len(self._handlers):
            return self._handlers[index].mmio_read(offset % self.WINDOW)
        return 0

    def mmio_write(self, offset, value):
        index = offset // self.WINDOW
        if 0 <= index < len(self._handlers):
            self._handlers[index].mmio_write(offset % self.WINDOW, value)


class Platform:
    """An instantiated MPSoC: cores, hierarchy, interconnect."""

    def __init__(self, config):
        self.config = config
        self.name = config.name
        self.cores = []
        self.memctrls = []
        self.icaches = []
        self.dcaches = []
        self.private_mems = []
        self.shared_mem = None
        self.interconnect = None
        self.mmio = _MmioHub(f"{config.name}.mmio")
        # The cores' translated blocks and their warm-up counts
        # (repro.mpsoc.translate), shared by every run on this platform,
        # the windowed calibration included.
        self.code_cache = {}
        self._build()

    # -- construction -----------------------------------------------------------
    def _build(self):
        cfg = self.config
        self.shared_mem = Memory(
            MemoryConfig(
                name=f"{cfg.name}.shared_mem",
                size=cfg.shared_mem_size,
                latency=cfg.shared_mem_latency,
                physical_latency=cfg.shared_mem_physical_latency,
                kind=KIND_SHARED,
            )
        )
        if cfg.interconnect == "bus":
            bus_cfg = cfg.bus or BusConfig(name=f"{cfg.name}.bus")
            self.interconnect = Bus(bus_cfg)
        else:
            self.interconnect = Noc(cfg.noc)
            shared_switch = cfg.noc_placement.get(
                "shared_mem", cfg.noc.switches[0]
            )
            self.interconnect.register_endpoint(self.shared_mem.name, shared_switch)

        for index, core_cfg in enumerate(cfg.cores):
            spec = CORE_SPECS[core_cfg.spec]
            icache = dcache = None
            if cfg.icache is not None:
                icache = Cache(replace(cfg.icache, name=f"{core_cfg.name}.icache"))
                self.icaches.append(icache)
            if cfg.dcache is not None:
                dcache = Cache(replace(cfg.dcache, name=f"{core_cfg.name}.dcache"))
                self.dcaches.append(dcache)
            memctrl = MemoryController(
                f"{core_cfg.name}.memctrl", icache=icache, dcache=dcache
            )
            private = Memory(
                MemoryConfig(
                    name=f"{core_cfg.name}.private_mem",
                    size=cfg.private_mem_size,
                    latency=cfg.private_mem_latency,
                    physical_latency=cfg.private_mem_physical_latency,
                    kind=KIND_PRIVATE,
                )
            )
            self.private_mems.append(private)
            memctrl.add_range(
                AddressRange(
                    name=f"{core_cfg.name}.private",
                    base=PRIVATE_BASE,
                    size=cfg.private_mem_size,
                    target=private,
                    cacheable=True,
                )
            )
            bridge_name = f"{core_cfg.name}.bridge"
            if cfg.interconnect == "bus":
                master_id = self.interconnect.register_master(bridge_name)
            else:
                switch = cfg.noc_placement.get(
                    core_cfg.name,
                    cfg.noc.switches[index % len(cfg.noc.switches)],
                )
                master_id = self.interconnect.register_master(bridge_name, switch)
            memctrl.add_range(
                AddressRange(
                    name=f"{core_cfg.name}.shared",
                    base=SHARED_BASE,
                    size=cfg.shared_mem_size,
                    target=self.shared_mem,
                    cacheable=False,
                    via=self.interconnect,
                    master_id=master_id,
                )
            )
            memctrl.add_range(
                AddressRange(
                    name=f"{core_cfg.name}.mmio",
                    base=MMIO_BASE,
                    size=MMIO_SIZE,
                    target=self.mmio,
                    is_mmio=True,
                )
            )
            core = Processor(
                core_cfg.name, spec, memctrl, code_cache=self.code_cache
            )
            self.cores.append(core)
            self.memctrls.append(memctrl)

    # -- program loading -----------------------------------------------------
    def load_program(self, core_index, program):
        """Load text+data into the core's private memory and bind it."""
        core = self.cores[core_index]
        private = self.private_mems[core_index]
        private.load_blob(program.text_base - PRIVATE_BASE, _encode_words(program.code))
        if program.data:
            private.load_blob(program.data_base - PRIVATE_BASE, program.data)
        core.load_program(program)

    def load_program_all(self, programs):
        """Load one program per core (a list, like EDK loading different
        binaries on each processor)."""
        if len(programs) != len(self.cores):
            raise ValueError(
                f"{self.name}: {len(programs)} programs for {len(self.cores)} cores"
            )
        for index, program in enumerate(programs):
            self.load_program(index, program)

    # -- shared memory helpers (hosts load input data sets) ---------------------
    def write_shared(self, addr, blob):
        self.shared_mem.load_blob(addr - SHARED_BASE, blob)

    def read_shared(self, addr, size):
        off = addr - SHARED_BASE
        return bytes(self.shared_mem.data[off : off + size])

    # -- reporting ----------------------------------------------------------------
    def components(self):
        """(name, object) pairs of everything a sniffer can monitor.

        Memory controllers are monitored components in their own right
        (Section 4.1: the sniffers watch "certain signals of the memory
        controller"), so a 1-core bus platform counts 7 components and a
        4-core one 22 — the counts behind the paper's Table 3 rows.
        """
        for core in self.cores:
            yield core.name, core
        for memctrl in self.memctrls:
            yield memctrl.name, memctrl
        for cache in self.icaches + self.dcaches:
            yield cache.name, cache
        for mem in self.private_mems:
            yield mem.name, mem
        yield self.shared_mem.name, self.shared_mem
        yield self.interconnect.name, self.interconnect

    def stats(self):
        report = {
            "cores": {c.name: c.stats() for c in self.cores},
            "icaches": {c.name: c.stats() for c in self.icaches},
            "dcaches": {c.name: c.stats() for c in self.dcaches},
            "private_mems": {m.name: m.stats() for m in self.private_mems},
            "shared_mem": self.shared_mem.stats(),
            "interconnect": self.interconnect.stats(),
        }
        return report

    def resource_report(self, num_event_sniffers=0, num_count_sniffers=0):
        """FPGA slice-utilization estimate for this platform.

        Returns ``{component: slices, ..., 'total': n, 'percent': p}``.
        """
        cfg = self.config
        report = {}
        core_slices = sum(CORE_SPECS[c.spec].fpga_slices for c in cfg.cores)
        report["cores"] = core_slices
        report["memctrls"] = SLICE_COSTS["memctrl"] * len(self.cores)
        report["caches"] = SLICE_COSTS["cache_ctrl"] * (
            len(self.icaches) + len(self.dcaches)
        )
        report["private_mems"] = SLICE_COSTS["private_mem"] * len(self.private_mems)
        report["shared_mem_ctrl"] = SLICE_COSTS["shared_mem_ctrl"]
        if cfg.interconnect == "bus":
            kind = (cfg.bus or BusConfig(name="default")).kind
            report["interconnect"] = SLICE_COSTS[f"bus_{kind}"]
        else:
            noc = self.interconnect
            total = 0
            for switch in cfg.noc.switches:
                radix = max(2, noc.switch_radix(switch))
                total += switch_slices(radix, radix, cfg.noc.buffer_flits)
            total += SLICE_COSTS["noc_ni"] * (len(self.cores) + 1)
            report["interconnect"] = total
        report["sniffers"] = (
            SLICE_COSTS["sniffer_event_logging"] * num_event_sniffers
            + SLICE_COSTS["sniffer_count_logging"] * num_count_sniffers
        )
        report["ethernet_dispatcher"] = SLICE_COSTS["ethernet_dispatcher"]
        report["vpcm"] = SLICE_COSTS["vpcm"]
        report["base_infrastructure"] = SLICE_COSTS["base_infrastructure"]
        total = sum(report.values())
        report["total"] = total
        report["percent"] = 100.0 * total / V2VP30_SLICES
        return report


def _encode_words(words):
    blob = bytearray()
    for word in words:
        blob.extend(int(word & 0xFFFFFFFF).to_bytes(4, "little"))
    return bytes(blob)


def build_platform(config):
    """Instantiate a :class:`Platform` from an :class:`MPSoCConfig`."""
    return Platform(config)
