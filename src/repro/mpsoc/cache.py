"""HW-controlled L1 caches (Section 3.2).

The paper supports private data and instruction caches, transparent to
the processors, embedded before the cacheable address ranges; total
size, line size and latency are independently configurable and both
direct-mapped and set-associative organizations exist.

The model is *timing-first*: functional data lives in the backing
memories (write-through keeps them coherent by construction; for
write-back mode stores still update the backing store functionally while
the timing model charges the write-back traffic on eviction).  The tag
arrays here are exact, so hit/miss/eviction statistics — what the
sniffers feed to the power model — are cycle-accurate.
"""

from dataclasses import dataclass

from repro.mpsoc import events as ev
from repro.mpsoc.events import CounterBlock, Observable
from repro.util.jsondata import check_keys

WRITE_THROUGH = "write-through"
WRITE_BACK = "write-back"


@dataclass
class CacheConfig:
    """Configuration of one L1 cache.

    ``assoc=1`` is a direct-mapped cache; higher values are LRU
    set-associative.  Write-through caches do not allocate on write miss
    (no-write-allocate), write-back caches do — the usual pairings.
    """

    name: str
    size: int = 4096
    line_size: int = 16
    assoc: int = 1
    hit_latency: int = 1
    write_policy: str = WRITE_THROUGH

    def __post_init__(self):
        if self.line_size <= 0 or self.line_size % 4:
            raise ValueError(f"{self.name}: line size must be a positive multiple of 4")
        if self.size % (self.line_size * self.assoc):
            raise ValueError(
                f"{self.name}: size {self.size} not divisible by "
                f"line_size*assoc = {self.line_size * self.assoc}"
            )
        if self.write_policy not in (WRITE_THROUGH, WRITE_BACK):
            raise ValueError(f"{self.name}: bad write policy {self.write_policy!r}")
        if self.hit_latency < 1:
            raise ValueError(f"{self.name}: hit latency must be >= 1")

    def to_dict(self):
        from dataclasses import asdict

        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        check_keys(data, cls.__dataclass_fields__, "cache")
        return cls(**data)

    @property
    def num_sets(self):
        return self.size // (self.line_size * self.assoc)

    @property
    def line_words(self):
        return self.line_size // 4


@dataclass
class CacheResult:
    """Outcome of one cache access, consumed by the memory controller.

    ``fill`` — a whole line must be fetched from backing store.
    ``writeback`` — a dirty victim line must be written back first.
    ``through_write`` — the word must also be written to backing store
    (write-through stores).
    """

    hit: bool
    fill: bool = False
    writeback: bool = False
    through_write: bool = False
    victim_addr: int = None


class Cache(Observable):
    """Exact tag-array model of an L1 cache."""

    def __init__(self, config):
        super().__init__()
        self.config = config
        self.name = config.name
        # Per set: list of [tag, dirty] entries, LRU order (index 0 = LRU,
        # last = MRU).  Exact, order-preserving model.
        self._sets = [[] for _ in range(config.num_sets)]
        self.counters = CounterBlock(config.name)
        # Geometry and timing as plain ints for the access paths.
        self.line_size = config.line_size
        self.num_sets = config.num_sets
        self.line_words = config.line_words
        self.hit_latency = config.hit_latency

    # -- address helpers -----------------------------------------------------
    def _index_tag(self, addr):
        line = addr // self.line_size
        return line % self.num_sets, line // self.num_sets

    def line_base(self, addr):
        """Base address of the line containing ``addr``."""
        return addr - (addr % self.line_size)

    def _victim_base(self, set_index, tag):
        return (tag * self.num_sets + set_index) * self.line_size

    # -- the access path -------------------------------------------------------
    def access(self, addr, is_write, cycle=0):
        """Perform one access; returns a :class:`CacheResult`.

        Pure tag-state transition — the memory controller turns the result
        into latencies and backing-store traffic.
        """
        cfg = self.config
        set_index, tag = self._index_tag(addr)
        entries = self._sets[set_index]
        self.counters.add("accesses")
        for pos, entry in enumerate(entries):
            if entry[0] == tag:
                # Hit: move to MRU position.
                entries.append(entries.pop(pos))
                if is_write:
                    if cfg.write_policy == WRITE_BACK:
                        entry[1] = True
                        result = CacheResult(hit=True)
                    else:
                        result = CacheResult(hit=True, through_write=True)
                else:
                    result = CacheResult(hit=True)
                self.counters.add(ev.CACHE_HIT)
                if self._event_hooks:
                    self.emit(cycle, self.name, ev.CACHE_HIT, (addr, is_write))
                return result
        # Miss.
        self.counters.add(ev.CACHE_MISS)
        if self._event_hooks:
            self.emit(cycle, self.name, ev.CACHE_MISS, (addr, is_write))
        if is_write and cfg.write_policy == WRITE_THROUGH:
            # No-write-allocate: just pass the write through.
            return CacheResult(hit=False, through_write=True)
        # Allocate: evict the LRU entry if the set is full.
        writeback = False
        victim_addr = None
        if len(entries) >= cfg.assoc:
            victim_tag, victim_dirty = entries.pop(0)
            self.counters.add(ev.CACHE_EVICT)
            victim_addr = self._victim_base(set_index, victim_tag)
            if victim_dirty:
                writeback = True
                self.counters.add(ev.CACHE_WRITEBACK)
                if self._event_hooks:
                    self.emit(cycle, self.name, ev.CACHE_WRITEBACK, (victim_addr,))
        dirty = bool(is_write and cfg.write_policy == WRITE_BACK)
        entries.append([tag, dirty])
        return CacheResult(
            hit=False, fill=True, writeback=writeback, victim_addr=victim_addr
        )

    def contains(self, addr):
        """True if the line holding ``addr`` is resident (for tests)."""
        set_index, tag = self._index_tag(addr)
        return any(entry[0] == tag for entry in self._sets[set_index])

    def resident_lines(self):
        """All resident line base addresses (for invariant checks)."""
        lines = []
        for set_index, entries in enumerate(self._sets):
            for tag, _dirty in entries:
                lines.append(self._victim_base(set_index, tag))
        return lines

    def dirty_lines(self):
        lines = []
        for set_index, entries in enumerate(self._sets):
            for tag, dirty in entries:
                if dirty:
                    lines.append(self._victim_base(set_index, tag))
        return lines

    def flush(self):
        """Invalidate everything; returns the number of dirty lines dropped
        from the timing state (their data is already in backing store —
        see the module docstring on the functional/timing split)."""
        dirty = len(self.dirty_lines())
        for entries in self._sets:
            entries.clear()
        return dirty

    def stats(self):
        accesses = self.counters.get("accesses")
        misses = self.counters.get(ev.CACHE_MISS)
        return {
            "accesses": accesses,
            "hits": self.counters.get(ev.CACHE_HIT),
            "misses": misses,
            "evictions": self.counters.get(ev.CACHE_EVICT),
            "writebacks": self.counters.get(ev.CACHE_WRITEBACK),
            "miss_rate": (misses / accesses) if accesses else 0.0,
        }
