"""Per-core memory controllers (Section 3.2).

One memory controller is connected to each processing core and captures
all its memory requests, forwarding them to the right device by address
range: private main memory (direct attach), shared main memory (through
the bus or NoC bridge), transparent L1 caches in front of cacheable
ranges, and memory-mapped sniffer control registers.

The controller also implements the paper's latency bookkeeping: it keeps
internal counters comparing elapsed time against the user-defined
latencies, and raises a ``VIRTUAL_CLK_SUPPRESSION`` request to the VPCM
whenever a physical backing device cannot respond within the configured
latency (Sections 3.2 and 4.2).
"""

import weakref
from dataclasses import dataclass
from functools import partial

from repro.mpsoc.events import CounterBlock, Observable


class AccessFault(Exception):
    """Raised when an address decodes to no range."""


@dataclass
class AddressRange:
    """One decoded address window.

    ``target`` is a :class:`repro.mpsoc.memory.Memory` or an MMIO handler
    (exposing ``mmio_read``/``mmio_write``).  ``via`` is ``None`` for a
    direct attachment or an interconnect (Bus/Noc) reached with
    ``master_id``.  ``cacheable`` routes the access through the L1s.
    """

    name: str
    base: int
    size: int
    target: object
    cacheable: bool = False
    via: object = None
    master_id: int = None
    is_mmio: bool = False

    def __post_init__(self):
        if self.size <= 0:
            raise ValueError(f"range {self.name}: size must be positive")
        if self.via is not None and self.master_id is None:
            raise ValueError(f"range {self.name}: interconnect needs a master_id")

    def contains(self, addr):
        return self.base <= addr < self.base + self.size


class MemoryController(Observable):
    """Memory controller for one processing core."""

    def __init__(self, name, icache=None, dcache=None):
        super().__init__()
        self.name = name
        self.icache = icache
        self.dcache = dcache
        self.ranges = []
        self._bounds = ()  # (lo, hi, range, data port) per range, for decode
        self._backing = {}  # range name -> backing port
        self.counters = CounterBlock(name)
        # Set by the VPCM when the framework wires the platform; receives
        # the number of *physical* cycles to inhibit the virtual clock.
        self.clk_suppression_hook = None

    def add_range(self, address_range):
        for existing in self.ranges:
            overlap = not (
                address_range.base + address_range.size <= existing.base
                or existing.base + existing.size <= address_range.base
            )
            if overlap:
                raise ValueError(
                    f"{self.name}: range {address_range.name} overlaps {existing.name}"
                )
        self.ranges.append(address_range)
        port = None
        if not address_range.is_mmio:
            port = self._backing_port(address_range)
            self._backing[address_range.name] = port
            if address_range.cacheable and self.dcache is not None:
                port = partial(_cached_access, self.dcache, port)
        lo = address_range.base
        self._bounds += ((lo, lo + address_range.size, address_range, port),)
        return address_range

    def decode(self, addr):
        return self.decode_port(addr)[0]

    def decode_port(self, addr):
        """``(range, data port)`` of ``addr``.  The port times one data
        access at virtual cycle ``t``, ``port(addr, is_write, t) ->
        latency``: through the D-cache for cacheable ranges, else
        straight to the backing device; None for an MMIO range."""
        for lo, hi, rng, port in self._bounds:
            if lo <= addr < hi:
                return rng, port
        raise AccessFault(f"{self.name}: no range maps address 0x{addr:08x}")

    # -- functional data access ------------------------------------------------
    @staticmethod
    def _read(rng, addr, size):
        off = addr - rng.base
        if rng.is_mmio:
            return rng.target.mmio_read(off)
        if size == 4:
            return rng.target.read_word(off)
        return rng.target.read_byte(off)

    @staticmethod
    def _write(rng, addr, size, value):
        off = addr - rng.base
        if rng.is_mmio:
            rng.target.mmio_write(off, value)
        elif size == 4:
            rng.target.write_word(off, value)
        else:
            rng.target.write_byte(off, value)

    def read_value(self, addr, size):
        return self._read(self.decode(addr), addr, size)

    def write_value(self, addr, size, value):
        self._write(self.decode(addr), addr, size, value)

    # -- timing helpers ----------------------------------------------------------
    def _suppress(self, real_cycles):
        if real_cycles <= 0:
            return
        self.counters.add("clk_suppression_requests")
        self.counters.add("suppressed_real_cycles", real_cycles)
        if self.clk_suppression_hook is not None:
            self.clk_suppression_hook(real_cycles)

    def _backing_port(self, rng):
        """``port(addr, is_write, t, nwords=1) -> latency`` of touching the
        backing device behind ``rng``: one interconnect transfer or the
        direct access, bound once per range.

        Either way the device's physical penalty (board memory slower
        than the configured latency, e.g. DDR backing a fast emulated
        memory) raises a VPCM clock-suppression request.  Ports reach
        this controller through a weak reference: it holds them, and a
        platform without reference cycles is freed as soon as it is
        dropped.
        """
        memory = rng.target
        if rng.via is not None:
            access = rng.via.port(rng.master_id, memory)
        else:
            access = memory.serve
        if memory.physical_penalty() <= 0:
            return access
        penalty, controller = memory.physical_penalty, weakref.ref(self)

        def penalized(addr, is_write, t, nwords=1):
            latency = access(addr, is_write, t, nwords)
            controller()._suppress(penalty(nwords))
            return latency

        return penalized

    # -- the access paths used by the processors ---------------------------------
    def fetch_timing(self, addr, t):
        """Instruction-fetch latency at virtual cycle ``t``."""
        rng = self.decode(addr)
        self.counters.add("fetches")
        if rng.cacheable and self.icache is not None:
            return _cached_access(self.icache, self._backing[rng.name], addr, False, t)
        return self._backing[rng.name](addr, False, t)

    def load(self, addr, size, t):
        """Data load; returns ``(value, latency)``."""
        rng, port = self.decode_port(addr)
        self.counters.add("loads")
        value = self._read(rng, addr, size)
        if rng.is_mmio:
            return value, 1
        return value, port(addr, False, t)

    def store(self, addr, size, value, t):
        """Data store; returns the latency."""
        rng, port = self.decode_port(addr)
        self.counters.add("stores")
        self._write(rng, addr, size, value)
        if rng.is_mmio:
            return 1
        return port(addr, True, t)

    def stats(self):
        return {
            "fetches": self.counters.get("fetches"),
            "loads": self.counters.get("loads"),
            "stores": self.counters.get("stores"),
            "clk_suppression_requests": self.counters.get("clk_suppression_requests"),
            "suppressed_real_cycles": self.counters.get("suppressed_real_cycles"),
        }


def _cached_access(cache, backing, addr, is_write, t):
    """An access through an L1 in front of the ``backing`` port; returns
    the total latency in virtual cycles."""
    result = cache.access(addr, is_write, t)
    latency = cache.hit_latency
    line_words = cache.line_words
    if result.writeback:
        latency += backing(result.victim_addr, True, t + latency, line_words)
    if result.fill:
        latency += backing(cache.line_base(addr), False, t + latency, line_words)
    if result.through_write:
        latency += backing(addr, True, t + latency)
    return latency
