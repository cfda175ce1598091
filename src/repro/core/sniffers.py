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
from collections.abc import Mapping

from repro.mpsoc.events import Observable

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
        self._enabled = True
        self._selected = 0

    @property
    def component(self):
        """The monitored component (``None`` once its platform is gone)."""
        return self._component()

    @property
    def enabled(self):
        """Whether the sniffer records; set as an attribute or through
        ``REG_ENABLE``.  Switching a disabled sniffer on calls
        :meth:`_resume`."""
        return self._enabled

    @enabled.setter
    def enabled(self, value):
        value = bool(value)
        if value and not self._enabled:
            self._resume()
        self._enabled = value

    def _resume(self):
        """Called as a disabled sniffer is switched back on."""

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


def _deltas(current, last):
    """Counter deltas ``current - last`` between two flat snapshots; a
    counter new since ``last`` diffs against zero."""
    return {name: value - last.get(name, 0) for name, value in current.items()}


class CountLoggingSniffer(Sniffer):
    """Counts high-level events; reports per-window counter deltas.

    One record is a flat ``{counter: delta}`` dict over the component's
    numeric ``stats()`` leaves (nested keys joined with dots), and on
    the wire one header plus one entry per counter.  Counter sets may
    grow mid-run (a core's instruction classes, a bus's masters), so
    every window is sized from its own snapshot.  The snapshot is the
    component's ``flat_stats()`` (:class:`~repro.mpsoc.events.Observable`),
    or ``flatten_numeric(stats())`` for a component without one.  A
    sniffer counts from zero, or from the moment it was last switched
    back on.
    """

    kind_code = KIND_COUNT_LOGGING
    fpga_overhead_percent = 0.3

    def __init__(self, name, component):
        super().__init__(name, component)
        # Unbound, so the sniffer keeps only its weak reference.
        self._read = getattr(type(component), "flat_stats", Observable.flat_stats)
        self._last = {}  # the baseline: counting starts from zero

    def _current(self):
        return self._read(self.component)

    def _resume(self):
        self._last = self._current()

    def _advance(self):
        """Take this window's snapshot: ``(current, last)``, with
        ``current`` the baseline of the next window."""
        last = self._last
        current = self._last = self._read(self.component)
        return current, last

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
        """Counter deltas since the previous window (empty, and the
        baseline left where it was, if disabled)."""
        if not self._enabled:
            return {}
        return _deltas(*self._advance())

    def record_bytes(self, record):
        if not self._enabled:
            return 0
        return (
            COUNT_RECORD_HEADER_BYTES
            + COUNT_RECORD_BYTES_PER_COUNTER * len(record)
        )

    def window_payload_bytes(self):
        if not self._enabled:
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
        if not self._enabled:
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


class WindowRecords(Mapping):
    """One closed window's records by sniffer name, read-only.

    An enabled count sniffer's entry is held as the window's two flat
    snapshots and diffed into its ``{counter: delta}`` record the first
    time it is read, so a window nobody reads never pays for the diffs.
    The snapshots are the window's own: a mapping read after later
    windows have closed still returns its window's deltas.
    """

    __slots__ = ("_records", "_unread")

    def __init__(self, records, unread):
        self._records = records  # name -> record (None while unread)
        self._unread = unread  # name -> (current, last) snapshots

    def __getitem__(self, name):
        if name in self._unread:
            self._records[name] = _deltas(*self._unread.pop(name))
        return self._records[name]

    def __contains__(self, name):
        return name in self._records

    def __iter__(self):
        return iter(self._records)

    def __len__(self):
        return len(self._records)

    def __repr__(self):
        return f"{type(self).__name__}({dict(self.items())!r})"


#: The records of a bank with no sniffers (a platform-less run).
_NO_RECORDS = WindowRecords({}, {})


class SnifferBank:
    """The full statistics-extraction fabric of one platform.

    ``from_platform`` instantiates one count-logging sniffer per
    component (the cycle-accurate-report configuration of Section 7) and
    maps every sniffer into the platform MMIO hub so emulated software
    can toggle it.  The paper's observation that "practically an
    unlimited number of event-counting sniffers can be added without
    deteriorating the emulation speed" is mirrored here: sniffers read
    counters the components maintain anyway, once per window and never
    between window boundaries.
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

        ``records`` is a :class:`WindowRecords` mapping each sniffer's
        name to its record: a count sniffer's flat ``{counter: delta}``
        dict, an event sniffer's event list.  Each enabled count sniffer
        takes one flat snapshot of its component's counters (one
        ``flat_stats()`` read) and keeps it with the previous one; its
        record is diffed from the two only when read.  ``payload_bytes``
        is what the records occupy in the BRAM buffer, sized from the
        same snapshots; every other sniffer is collected as it stands.
        """
        if not self.sniffers:
            return _NO_RECORDS, 0
        records, unread = {}, {}
        payload = self._close(records, unread)
        return WindowRecords(records, unread), payload

    def close_window(self):
        """Close one statistics window without keeping its records;
        returns the payload bytes.

        Every sniffer moves on through the same step as under
        :meth:`collect_window`, and the payload is the same: this is how
        the framework closes a window nobody reads.
        """
        return self._close()

    def _close(self, records=None, unread=None):
        """Move every sniffer on one window; returns the payload bytes.

        With ``records`` and ``unread`` dicts, keeps what
        :class:`WindowRecords` is made of: each sniffer's record, and an
        enabled count sniffer's two snapshots in place of its record.
        """
        payload = 0
        for sniffer in self.sniffers:
            if isinstance(sniffer, CountLoggingSniffer) and sniffer._enabled:
                snapshots = sniffer._advance()
                payload += sniffer.record_bytes(snapshots[0])
                if unread is not None:
                    unread[sniffer.name] = snapshots
                    records[sniffer.name] = None
            else:
                record = sniffer.collect()
                payload += sniffer.record_bytes(record)
                if records is not None:
                    records[sniffer.name] = record
        return payload

    def fpga_overhead_percent(self):
        return sum(s.fpga_overhead_percent for s in self.sniffers)
