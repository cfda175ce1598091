"""Shared-bus interconnects: OPB-, PLB-class and the custom exploration bus.

Section 3.3: the framework ships the Xilinx On-chip Peripheral Bus (OPB)
and Processor Local Bus (PLB), plus a custom configurable 32-bit
data/address bus (configurable bandwidth and arbitration policy) used
for architecture exploration.

Two layers live here:

* :class:`Arbiter` — a cycle-level arbitration state machine
  (fixed-priority, round-robin, TDMA) used directly by the signal-level
  engine and by the fairness property tests.
* :class:`Bus` — the fast timed-transaction model used by the
  event-driven engine: transactions are serialized in arrival order
  (the engine resolves calls in global time order), the policy decides
  same-cycle ties and per-grant overhead.  The signal-level engine
  performs true per-cycle arbitration; `tests/emulation/` checks the two
  agree on single-master traffic and conserve cycles on multi-master.
"""

from dataclasses import dataclass

from repro.mpsoc import events as ev
from repro.mpsoc.events import CounterBlock, Observable
from repro.util.jsondata import check_keys

ARB_FIXED_PRIORITY = "fixed-priority"
ARB_ROUND_ROBIN = "round-robin"
ARB_TDMA = "tdma"

BUS_KIND_OPB = "opb"
BUS_KIND_PLB = "plb"
BUS_KIND_CUSTOM = "custom"

# Per-kind default grant/address overheads (cycles).  OPB is a simple
# general-purpose peripheral bus; PLB is the faster processor-local bus.
_BUS_KIND_DEFAULTS = {
    BUS_KIND_OPB: {"arb_cycles": 2, "address_cycles": 1, "data_cycles_per_word": 1},
    BUS_KIND_PLB: {"arb_cycles": 1, "address_cycles": 1, "data_cycles_per_word": 1},
    BUS_KIND_CUSTOM: {"arb_cycles": 1, "address_cycles": 1, "data_cycles_per_word": 1},
}


@dataclass
class BusConfig:
    """Configuration of one shared bus."""

    name: str
    kind: str = BUS_KIND_CUSTOM
    width_bits: int = 32
    arbitration: str = ARB_FIXED_PRIORITY
    arb_cycles: int = None
    address_cycles: int = None
    data_cycles_per_word: int = None
    tdma_slot_cycles: int = 8

    def __post_init__(self):
        if self.kind not in _BUS_KIND_DEFAULTS:
            raise ValueError(f"{self.name}: unknown bus kind {self.kind!r}")
        if self.arbitration not in (ARB_FIXED_PRIORITY, ARB_ROUND_ROBIN, ARB_TDMA):
            raise ValueError(f"{self.name}: unknown arbitration {self.arbitration!r}")
        if self.width_bits % 8:
            raise ValueError(f"{self.name}: width must be a whole number of bytes")
        defaults = _BUS_KIND_DEFAULTS[self.kind]
        for key, value in defaults.items():
            if getattr(self, key) is None:
                setattr(self, key, value)
        if self.tdma_slot_cycles < 1:
            raise ValueError(f"{self.name}: TDMA slot must be >= 1 cycle")

    def to_dict(self):
        return {
            "name": self.name,
            "kind": self.kind,
            "width_bits": self.width_bits,
            "arbitration": self.arbitration,
            "arb_cycles": self.arb_cycles,
            "address_cycles": self.address_cycles,
            "data_cycles_per_word": self.data_cycles_per_word,
            "tdma_slot_cycles": self.tdma_slot_cycles,
        }

    @classmethod
    def from_dict(cls, data):
        check_keys(data, cls.__dataclass_fields__, "bus")
        return cls(**data)

    def words_per_beat(self):
        """32-bit words transferred per data beat (wider buses move more)."""
        return max(1, self.width_bits // 32)


class Arbiter:
    """Cycle-level bus arbiter.

    ``pick(requesters, cycle)`` returns the granted master id (an index)
    among the currently requesting masters, or ``None`` when there is no
    request (or, for TDMA, when the slot owner is not requesting).
    """

    def __init__(self, policy, num_masters, tdma_slot_cycles=8):
        if num_masters < 1:
            raise ValueError("arbiter needs at least one master")
        self.policy = policy
        self.num_masters = num_masters
        self.tdma_slot_cycles = tdma_slot_cycles
        self._rr_next = 0

    def pick(self, requesters, cycle):
        """Grant one master among ``requesters`` at ``cycle``."""
        pending = sorted(set(requesters))
        if not pending:
            return None
        for master in pending:
            if not 0 <= master < self.num_masters:
                raise ValueError(f"unknown master {master}")
        if self.policy == ARB_FIXED_PRIORITY:
            return pending[0]
        if self.policy == ARB_ROUND_ROBIN:
            for offset in range(self.num_masters):
                candidate = (self._rr_next + offset) % self.num_masters
                if candidate in pending:
                    self._rr_next = (candidate + 1) % self.num_masters
                    return candidate
            return None
        # TDMA: the cycle's slot owner gets the bus, nobody else.
        slot_owner = (cycle // self.tdma_slot_cycles) % self.num_masters
        return slot_owner if slot_owner in pending else None

    def slot_wait(self, master, cycle):
        """TDMA only: cycles until ``master``'s next slot starts at/after
        ``cycle`` (0 if the current slot already belongs to it)."""
        if self.policy != ARB_TDMA:
            return 0
        slot = self.tdma_slot_cycles
        frame = slot * self.num_masters
        slot_start_in_frame = master * slot
        pos = cycle % frame
        delta = slot_start_in_frame - pos
        if delta < 0:
            # Already past this frame's slot...
            if pos < slot_start_in_frame + slot:
                return 0  # ...but still inside it.
            delta += frame
        return delta


class Bus(Observable):
    """Fast timed-transaction shared bus.

    Masters are registered with :meth:`register_master`; slaves are
    :class:`repro.mpsoc.memory.Memory` objects, which time and record
    their side of a transfer (:meth:`~repro.mpsoc.memory.Memory.serve`).
    """

    def __init__(self, config, num_masters=0):
        super().__init__()
        self.config = config
        self.name = config.name
        self.masters = []
        self.counters = CounterBlock(config.name)
        self.per_master_wait = {}
        self._busy_until = 0
        self._arbiter = None
        for _ in range(num_masters):
            self.register_master(f"{config.name}.m{len(self.masters)}")

    def register_master(self, name):
        """Add a master; returns its id (arbitration priority order)."""
        master_id = len(self.masters)
        self.masters.append(name)
        self.per_master_wait[master_id] = 0
        self._arbiter = Arbiter(
            self.config.arbitration, len(self.masters), self.config.tdma_slot_cycles
        )
        return master_id

    # -- the fast transfer path ----------------------------------------------
    def occupancy_cycles(self, nwords):
        """Bus cycles one transaction occupies (excluding slave latency)."""
        cfg = self.config
        beats = -(-nwords // cfg.words_per_beat())  # ceil division
        return cfg.arb_cycles + cfg.address_cycles + beats * cfg.data_cycles_per_word

    def port(self, master_id, slave):
        """:meth:`transfer` bound to one master/slave pair,
        ``port(addr, is_write, t, nwords=1) -> latency``.  A memory
        controller holds one per shared range; ``slave`` is a
        :class:`~repro.mpsoc.memory.Memory`."""
        if not 0 <= master_id < len(self.masters):
            raise ValueError(f"{self.name}: unknown master id {master_id}")
        tdma = self.config.arbitration == ARB_TDMA
        occupancy_cycles = self.occupancy_cycles
        one_word = occupancy_cycles(1)
        serve = slave.serve
        counts, per_master_wait = self.counters.counts, self.per_master_wait

        def transfer(addr, is_write, t, nwords=1):
            if nwords < 1:
                raise ValueError(f"{self.name}: empty transfer")
            grant_t = self._busy_until
            if grant_t < t:
                grant_t = t
            if grant_t < slave.port_busy_until:
                grant_t = slave.port_busy_until
            if tdma:
                grant_t += self._arbiter.slot_wait(master_id, grant_t)
            wait = grant_t - t
            total_busy = serve(addr, is_write, grant_t, nwords) + (
                one_word if nwords == 1 else occupancy_cycles(nwords))
            self._busy_until = grant_t + total_busy
            slave.port_busy_until = self._busy_until
            counts[ev.BUS_TXN] = counts.get(ev.BUS_TXN, 0) + 1
            counts["words"] = counts.get("words", 0) + nwords
            counts["busy_cycles"] = counts.get("busy_cycles", 0) + total_busy
            if wait:
                counts[ev.BUS_WAIT] = counts.get(ev.BUS_WAIT, 0) + wait
                per_master_wait[master_id] += wait
            if self._event_hooks:
                self.emit(
                    grant_t, self.name, ev.BUS_TXN, (master_id, addr, is_write, nwords)
                )
            return wait + total_busy

        return transfer

    def transfer(self, master_id, slave, addr, is_write, nwords, t):
        """Execute one burst; returns total latency in virtual cycles.

        Latency = wait for bus grant (+ TDMA slot) + bus occupancy +
        slave access latency.  The bus is held for the whole transaction
        (OPB-style non-split transfers, as in the paper's platform).  A
        one-off call: repeated transfers go through a :meth:`port`.
        """
        return self.port(master_id, slave)(addr, is_write, t, nwords)

    # -- statistics ------------------------------------------------------------
    def stats(self):
        return {
            "transactions": self.counters.get(ev.BUS_TXN),
            "words": self.counters.get("words"),
            "busy_cycles": self.counters.get("busy_cycles"),
            "wait_cycles": self.counters.get(ev.BUS_WAIT),
            "per_master_wait": dict(self.per_master_wait),
        }

    def utilization(self, elapsed_cycles):
        """Fraction of ``elapsed_cycles`` the bus was occupied."""
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.counters.get("busy_cycles") / elapsed_cycles)
