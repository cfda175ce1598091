"""Trace-driven processing elements.

The paper's framework accepts proprietary cores as netlist black boxes;
when only a memory-access trace of such a core exists (no ISA model),
a :class:`TraceCore` replays it against the same memory controllers,
caches and interconnects the interpreted cores use — so hierarchy and
interconnect exploration works for workloads we cannot execute.

A trace is a sequence of :class:`TraceOp`: compute gaps (cycles with no
memory activity) interleaved with loads/stores at explicit addresses.
"""

from dataclasses import dataclass

from repro.mpsoc.events import CounterBlock, Observable


@dataclass(frozen=True)
class TraceOp:
    """One trace record: ``gap`` compute cycles, then one optional
    memory access (``addr is None`` for pure compute)."""

    gap: int = 0
    addr: int = None
    is_write: bool = False
    size: int = 4

    def __post_init__(self):
        if self.gap < 0:
            raise ValueError("negative compute gap")
        if self.size not in (1, 4):
            raise ValueError("access size must be 1 or 4 bytes")


class TraceCore(Observable):
    """Replays a memory-access trace through a memory controller.

    API-compatible with :class:`repro.mpsoc.processor.Processor` where
    the engine and the sniffers are concerned (``run_until``/``step``/
    ``run``/``state``/``halted``/``cycle``/``stats``), so it can stand
    in for a core in any platform slot.
    """

    def __init__(self, name, memctrl, trace, frequency_hz=100e6, repeat=1):
        super().__init__()
        if repeat < 1:
            raise ValueError("repeat must be >= 1")
        self.name = name
        self.memctrl = memctrl
        self.frequency_hz = frequency_hz
        self.trace = list(trace)
        self.repeat = repeat
        self.counters = CounterBlock(name)
        self._position = 0
        self._iteration = 0
        self.cycle = 0
        self.active_cycles = 0
        self.stall_cycles = 0
        self.idle_cycles = 0
        self.instructions = 0  # trace records replayed
        self.state = "running" if self.trace else "halted"

    @property
    def halted(self):
        return self.state == "halted"

    def step(self):
        """Replay one trace record; returns the virtual cycles consumed."""
        if self.halted:
            return 0
        op = self.trace[self._position]
        cycles = op.gap
        self.active_cycles += op.gap
        if op.addr is not None:
            if op.is_write:
                latency = self.memctrl.store(op.addr, op.size, 0, self.cycle + op.gap)
            else:
                _value, latency = self.memctrl.load(
                    op.addr, op.size, self.cycle + op.gap
                )
            cycles += latency
            self.active_cycles += 1
            self.stall_cycles += max(0, latency - 1)
        self.cycle += cycles
        self.instructions += 1
        self._position += 1
        if self._position >= len(self.trace):
            self._position = 0
            self._iteration += 1
            if self._iteration >= self.repeat:
                self.state = "halted"
        return cycles

    def run_until(self, horizon, until_cycle, budget=None):
        """The engine's batch call: replay records while ``cycle <=
        horizon`` and ``cycle < until_cycle``, at most ``budget`` of
        them; returns the number replayed."""
        executed = 0
        while (not self.halted and self.cycle <= horizon
               and self.cycle < until_cycle):
            self.step()
            executed += 1
            if executed == budget:
                break
        return executed

    def run(self, max_instructions=None, until_cycle=None):
        if max_instructions is not None and max_instructions <= 0:
            return 0
        forever = float("inf")
        return self.run_until(
            forever, forever if until_cycle is None else until_cycle,
            max_instructions,
        )

    def idle_until(self, cycle):
        if cycle > self.cycle:
            self.idle_cycles += cycle - self.cycle
            self.cycle = cycle

    def stats(self):
        total = self.active_cycles + self.stall_cycles + self.idle_cycles
        return {
            "instructions": self.instructions,
            "cycles": self.cycle,
            "active_cycles": self.active_cycles,
            "stall_cycles": self.stall_cycles,
            "idle_cycles": self.idle_cycles,
            "activity": (self.active_cycles / total) if total else 0.0,
        }


def strided_trace(base, num_accesses, stride=4, reads_per_write=3, gap=2):
    """Generate a synthetic strided trace (array sweep with compute gaps).

    Every ``reads_per_write + 1``-th access is a store; addresses advance
    by ``stride`` bytes.
    """
    if num_accesses < 1 or stride < 1 or reads_per_write < 0:
        raise ValueError("bad trace parameters")
    ops = []
    for index in range(num_accesses):
        is_write = reads_per_write > 0 and (index % (reads_per_write + 1)) == (
            reads_per_write
        )
        ops.append(TraceOp(gap=gap, addr=base + index * stride, is_write=is_write))
    return ops
