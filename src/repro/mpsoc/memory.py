"""Main-memory models: private and shared memories.

Section 3.2 of the paper defines, per memory controller, a private main
memory (configurable range/size/latency), a shared main memory backed by
real board memory (e.g. DDR), and HW-controlled caches in front of the
cacheable ranges.

The model here is *functional + timed*: a flat byte store gives
functional correctness (programs really execute), while configurable
latencies give the timing the statistics system observes.  The split
between ``latency`` (what the designer configured for the emulated
design) and ``physical_latency`` (what the board's memory actually
needs) drives the VPCM clock-suppression mechanism: whenever the
physical device is slower than the configured latency, the memory
controller asks the VPCM to freeze the virtual clock for the difference.
"""

from dataclasses import dataclass

from repro.mpsoc import events as ev
from repro.mpsoc.events import CounterBlock, Observable

KIND_PRIVATE = "private"
KIND_SHARED = "shared"


@dataclass
class MemoryConfig:
    """Configuration of one main memory.

    ``latency``: access latency in virtual cycles as configured by the
    designer.  ``physical_latency``: cycles the backing board device needs
    (defaults to ``latency``; set it higher to model DDR backing a faster
    configured memory, which makes the VPCM freeze clocks).
    ``ports``: number of concurrent accesses the device can serve (shared
    memories on a bus are single-ported in the paper's platform).
    """

    name: str
    size: int
    latency: int = 1
    physical_latency: int = None
    kind: str = KIND_PRIVATE
    ports: int = 1

    def __post_init__(self):
        if self.size <= 0:
            raise ValueError(f"memory {self.name}: size must be positive")
        if self.latency < 1:
            raise ValueError(f"memory {self.name}: latency must be >= 1 cycle")
        if self.physical_latency is None:
            self.physical_latency = self.latency
        if self.physical_latency < 1:
            raise ValueError(f"memory {self.name}: physical latency must be >= 1")


class MemoryError_(Exception):
    """Raised on out-of-range or misaligned accesses."""


class Memory(Observable):
    """A flat byte-addressed memory with configurable timing."""

    def __init__(self, config):
        super().__init__()
        self.config = config
        self.name = config.name
        self.data = bytearray(config.size)
        self.counters = CounterBlock(config.name)
        # Time (in virtual cycles) until which the device port is busy;
        # used by interconnect models for slave-side contention.
        self.port_busy_until = 0

    # -- functional access (offsets relative to the memory base) ----------
    def _check(self, offset, size):
        if offset < 0 or offset + size > self.config.size:
            raise MemoryError_(
                f"{self.name}: access at offset 0x{offset:x} size {size} "
                f"outside {self.config.size} bytes"
            )
        if offset % size:
            raise MemoryError_(
                f"{self.name}: misaligned {size}-byte access at 0x{offset:x}"
            )

    def read_word(self, offset):
        self._check(offset, 4)
        return int.from_bytes(self.data[offset : offset + 4], "little")

    def write_word(self, offset, value):
        self._check(offset, 4)
        self.data[offset : offset + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")

    def read_byte(self, offset):
        self._check(offset, 1)
        return self.data[offset]

    def write_byte(self, offset, value):
        self._check(offset, 1)
        self.data[offset] = value & 0xFF

    def load_blob(self, offset, blob):
        """Bulk-load program text/data at ``offset``."""
        if offset < 0 or offset + len(blob) > self.config.size:
            raise MemoryError_(
                f"{self.name}: blob of {len(blob)} bytes does not fit at "
                f"0x{offset:x}"
            )
        self.data[offset : offset + len(blob)] = blob

    # -- timing ------------------------------------------------------------
    def access_latency(self, nwords=1):
        """Virtual cycles to serve a burst of ``nwords`` words.

        First word costs the configured latency, subsequent words stream
        one per cycle (standard pipelined burst).
        """
        return self.config.latency + max(0, nwords - 1)

    def physical_penalty(self, nwords=1):
        """Extra *physical* cycles the board device needs beyond the
        configured latency; the memory controller converts this into a
        VPCM clock-suppression request (Section 3.2 / 4.2)."""
        extra = self.config.physical_latency - self.config.latency
        return max(0, extra) * nwords if extra > 0 else 0

    def serve(self, addr, is_write, t, nwords=1):
        """Serve a burst of ``nwords`` words that starts at virtual cycle
        ``t``: record it and return its :meth:`access_latency`.  This is
        the memory's own data port, ``port(addr, is_write, t,
        nwords=1)``, and what an interconnect's port calls at the
        slave."""
        kind = ev.MEM_WRITE if is_write else ev.MEM_READ
        counts = self.counters.counts
        counts[kind] = counts.get(kind, 0) + nwords
        if self._event_hooks:
            self.emit(t, self.name, kind, (nwords,))
        return self.config.latency + nwords - 1  # access_latency, nwords >= 1

    # -- statistics ----------------------------------------------------------
    def record_access(self, cycle, is_write, nwords=1):
        """Record a burst served at ``cycle`` without timing it."""
        self.serve(None, is_write, cycle, nwords)

    def stats(self):
        return {
            "reads": self.counters.get(ev.MEM_READ),
            "writes": self.counters.get(ev.MEM_WRITE),
        }
