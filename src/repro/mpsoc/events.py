"""Event taxonomy emitted by emulated MPSoC components.

Count-logging sniffers read component counters; event-logging sniffers
attach hooks and receive :class:`Event` records.  Components always keep
their counters up to date and only build ``Event`` objects when at least
one hook is attached (the paper's event-logging sniffers are likewise
optional pieces of monitoring hardware).
"""

from dataclasses import dataclass, field

from repro.core.stats import flatten_numeric

# -- processor events ------------------------------------------------------
CORE_ACTIVE = "core.active"
CORE_STALL = "core.stall"
CORE_IDLE = "core.idle"
CORE_INSTR = "core.instr"

# -- cache events ----------------------------------------------------------
CACHE_HIT = "cache.hit"
CACHE_MISS = "cache.miss"
CACHE_EVICT = "cache.evict"
CACHE_WRITEBACK = "cache.writeback"

# -- memory events ---------------------------------------------------------
MEM_READ = "mem.read"
MEM_WRITE = "mem.write"

# -- interconnect events ---------------------------------------------------
BUS_TXN = "bus.txn"
BUS_WAIT = "bus.wait"
NOC_PACKET = "noc.packet"
NOC_FLIT = "noc.flit"

# -- framework events --------------------------------------------------------
VPCM_FREEZE = "vpcm.freeze"
SENSOR_THRESHOLD = "sensor.threshold"

ALL_EVENT_KINDS = (
    CORE_ACTIVE,
    CORE_STALL,
    CORE_IDLE,
    CORE_INSTR,
    CACHE_HIT,
    CACHE_MISS,
    CACHE_EVICT,
    CACHE_WRITEBACK,
    MEM_READ,
    MEM_WRITE,
    BUS_TXN,
    BUS_WAIT,
    NOC_PACKET,
    NOC_FLIT,
    VPCM_FREEZE,
    SENSOR_THRESHOLD,
)


@dataclass(frozen=True)
class Event:
    """One observed hardware event.

    ``cycle`` is the virtual cycle at which the event happened, ``source``
    the component name, ``kind`` one of the constants above and ``info`` a
    small free-form payload (address, size, ...).
    """

    cycle: int
    source: str
    kind: str
    info: tuple = ()


class Observable:
    """Mixin giving a component an event-hook list.

    Hooks are callables ``fn(event)``; :meth:`emit` is cheap when no hook
    is attached, which is the common (count-logging only) case.
    """

    def __init__(self):
        self._event_hooks = []

    @property
    def has_hooks(self):
        return bool(self._event_hooks)

    def attach_hook(self, fn):
        """Register an event callback (used by event-logging sniffers)."""
        self._event_hooks.append(fn)

    def detach_hook(self, fn):
        self._event_hooks.remove(fn)

    def emit(self, cycle, source, kind, info=()):
        """Deliver an event to all attached hooks."""
        event = Event(cycle, source, kind, tuple(info))
        for fn in self._event_hooks:
            fn(event)

    def flat_stats(self):
        """The numeric leaves of ``stats()`` as one fresh flat dict,
        nested keys joined with dots; what a count-logging sniffer reads
        once per window."""
        return flatten_numeric(self.stats())


@dataclass
class CounterBlock:
    """A named bundle of monotonically increasing event counters."""

    name: str
    counts: dict = field(default_factory=dict)

    def add(self, kind, amount=1):
        self.counts[kind] = self.counts.get(kind, 0) + amount

    def get(self, kind):
        return self.counts.get(kind, 0)

    def snapshot(self):
        """Copy of the counters (used per sampling window)."""
        return dict(self.counts)

    def reset(self):
        self.counts.clear()
