"""HW sniffers (Section 4.1).

Sniffers transparently extract statistics from each MPSoC component:
they have a dedicated interface to the monitored module's internal
signals plus a connection to the statistics bus, and they are
memory-mapped in the processors' address range so the emulated software
can de/activate them at run time.

Two flavours, built on a common skeleton, as in the paper:

* **event-logging** — exhaustively logs every event the component emits
  (big payloads, used for deep debugging);
* **count-logging** — counts switching activity and high-level events
  (cache misses, bus transactions, memory accesses) and produces the
  concise per-window records the thermal flow consumes.

FPGA overhead: 0.2 % of the V2VP30 per event-logging sniffer, 0.3 % per
count-logging sniffer (Section 4.1); the resource model uses those.
"""

import weakref

from repro.core.stats import flatten_numeric

# MMIO register map (one 16-byte window per sniffer).
REG_ENABLE = 0x0
REG_KIND = 0x4
REG_SELECT = 0x8
REG_VALUE = 0xC

KIND_EVENT_LOGGING = 1
KIND_COUNT_LOGGING = 2

# Payload sizing for the Ethernet dispatcher.
COUNT_RECORD_HEADER_BYTES = 8  # component id + window sequence
COUNT_RECORD_BYTES_PER_COUNTER = 8  # counter id + 32-bit value
EVENT_RECORD_BYTES = 12  # cycle + source + kind + info


class Sniffer:
    """The common sniffer skeleton: enable state + MMIO register file."""

    kind_code = 0
    fpga_overhead_percent = 0.0

    def __init__(self, name, component):
        self.name = name
        # Weak: the platform owns its components, and a core reaches the
        # sniffers through its MMIO hub, so a strong back-reference would
        # keep a dropped platform alive until a full collection.
        self._component = weakref.ref(component)
        self.enabled = True
        self._selected = 0

    @property
    def component(self):
        """The monitored component (``None`` once its platform is gone)."""
        return self._component()

    # -- MMIO register file (mapped by the platform's MMIO hub) -------------
    def mmio_read(self, offset):
        if offset == REG_ENABLE:
            return 1 if self.enabled else 0
        if offset == REG_KIND:
            return self.kind_code
        if offset == REG_SELECT:
            return self._selected
        if offset == REG_VALUE:
            return self._selected_value()
        return 0

    def mmio_write(self, offset, value):
        if offset == REG_ENABLE:
            self.enabled = bool(value)
        elif offset == REG_SELECT:
            self._selected = int(value)

    def _selected_value(self):
        return 0

    # -- window interface ---------------------------------------------------------
    def window_payload_bytes(self):
        """Bytes this sniffer would contribute to the pending window."""
        raise NotImplementedError

    def collect(self):
        """Produce this window's record (and reset per-window state)."""
        raise NotImplementedError

    def record_bytes(self, record):
        """Bytes a record :meth:`collect` just returned occupies."""
        raise NotImplementedError


class CountLoggingSniffer(Sniffer):
    """Counts high-level events; reports per-window counter deltas.

    One record is a flat ``{counter: delta}`` dict over the component's
    numeric ``stats()`` leaves (nested keys joined with dots), and on
    the wire one header plus one entry per counter.  Counter sets may
    grow mid-run (a core's instruction classes, a bus's masters), so
    every window is sized from its own snapshot.
    """

    kind_code = KIND_COUNT_LOGGING
    fpga_overhead_percent = 0.3

    def __init__(self, name, component):
        super().__init__(name, component)
        self._last = {}

    def _current(self):
        return flatten_numeric(self.component.stats())

    def _selected_value(self):
        flat = self._current()
        keys = sorted(flat)
        if 0 <= self._selected < len(keys):
            value = flat[keys[self._selected]]
            return int(value) & 0xFFFFFFFF
        return 0

    def counter_names(self):
        return sorted(self._current())

    def collect(self):
        """Counter deltas since the previous window (empty if disabled);
        a counter new since then diffs against zero."""
        if not self.enabled:
            return {}
        current = self._current()
        last = self._last
        self._last = current
        return {name: value - last.get(name, 0)
                for name, value in current.items()}

    def record_bytes(self, record):
        if not self.enabled:
            return 0
        return (
            COUNT_RECORD_HEADER_BYTES
            + COUNT_RECORD_BYTES_PER_COUNTER * len(record)
        )

    def window_payload_bytes(self):
        if not self.enabled:
            return 0
        return self.record_bytes(self._current())


class EventLoggingSniffer(Sniffer):
    """Logs every event the component emits (needs an Observable)."""

    kind_code = KIND_EVENT_LOGGING
    fpga_overhead_percent = 0.2

    def __init__(self, name, component, max_events=100000):
        super().__init__(name, component)
        self.max_events = max_events
        self.events = []
        self.dropped = 0
        component.attach_hook(self._on_event)

    def _on_event(self, event):
        if not self.enabled:
            return
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    def _selected_value(self):
        return len(self.events)

    def collect(self):
        """Drain and return the window's event list."""
        events, self.events = self.events, []
        return events

    def record_bytes(self, record):
        return EVENT_RECORD_BYTES * len(record)

    def window_payload_bytes(self):
        return self.record_bytes(self.events)


class SnifferBank:
    """The full statistics-extraction fabric of one platform.

    ``from_platform`` instantiates one count-logging sniffer per
    component (the cycle-accurate-report configuration of Section 7) and
    maps every sniffer into the platform MMIO hub so emulated software
    can toggle it.  The paper's observation that "practically an
    unlimited number of event-counting sniffers can be added without
    deteriorating the emulation speed" is mirrored here: sniffers read
    counters the components maintain anyway.
    """

    def __init__(self):
        self.sniffers = []
        self.mmio_offsets = {}

    @classmethod
    def from_platform(cls, platform, event_logging=()):
        """Build the bank: count-logging everywhere, event-logging where
        requested (an iterable of component names)."""
        bank = cls()
        wanted_events = set(event_logging)
        for name, component in platform.components():
            sniffer = CountLoggingSniffer(f"{name}.cnt", component)
            bank.add(sniffer, platform.mmio)
            if name in wanted_events:
                bank.add(EventLoggingSniffer(f"{name}.evt", component), platform.mmio)
        return bank

    def add(self, sniffer, mmio_hub=None):
        self.sniffers.append(sniffer)
        if mmio_hub is not None:
            self.mmio_offsets[sniffer.name] = mmio_hub.register(sniffer)
        return sniffer

    def __len__(self):
        return len(self.sniffers)

    def count_sniffers(self):
        return [s for s in self.sniffers if isinstance(s, CountLoggingSniffer)]

    def event_sniffers(self):
        return [s for s in self.sniffers if isinstance(s, EventLoggingSniffer)]

    def window_payload_bytes(self):
        """Bytes the pending window would stream (nothing is collected)."""
        return sum(s.window_payload_bytes() for s in self.sniffers)

    def collect_window(self):
        """Close one statistics window: ``(records, payload_bytes)``.

        ``records`` holds each sniffer's record keyed by sniffer name; a
        count sniffer's is its flat ``{counter: delta}`` dict, an event
        sniffer's its event list.  ``payload_bytes`` is what those
        records occupy in the BRAM buffer, sized from the same snapshot
        — one ``stats()`` read per count sniffer per window.
        """
        records = {}
        payload = 0
        for sniffer in self.sniffers:
            record = records[sniffer.name] = sniffer.collect()
            payload += sniffer.record_bytes(record)
        return records, payload

    def fpga_overhead_percent(self):
        return sum(s.fpga_overhead_percent for s in self.sniffers)
