"""Event-driven MPSoC execution engine (the FPGA's stand-in).

Cores are interleaved in global virtual-time order: the engine always
steps the core with the smallest local clock, so accesses to shared
resources (bus, NoC links, shared-memory port) are issued in causal
order and the busy-until bookkeeping inside those models yields correct
contention.  This is conservative discrete-event simulation with zero
lookahead — the fast vehicle that lets the framework skip idle cycles,
which is exactly why FPGA emulation (and this engine) beats a
signal-level simulator that must evaluate every component every cycle.
"""

import heapq


class EventDrivenEngine:
    """Runs all cores of a :class:`repro.mpsoc.platform.Platform`."""

    def __init__(self, platform):
        self.platform = platform
        self.instructions_executed = 0

    def run_window(self, until_cycle, max_instructions=None, idle_to_boundary=True):
        """Run every core up to ``until_cycle`` (local virtual time).

        Halted cores idle to the window boundary so their idle cycles are
        accounted (the sniffers report active/stalled/idle splits).
        Returns the number of instructions executed in this window.
        """
        # Tie-break same-cycle cores by platform index: a stable,
        # process-independent order (id() varies per process and would
        # make contention outcomes and trace digests irreproducible).
        heap = [
            (core.cycle, index, core.run_until, core)
            for index, core in enumerate(self.platform.cores)
            if core.state != "halted" and core.cycle < until_cycle
        ]
        heapq.heapify(heap)
        heapreplace, heappop = heapq.heapreplace, heapq.heappop
        executed = 0
        # Like one instruction at a time: the budget is checked after an
        # instruction ran, so even a budget of 0 runs one.
        budget = None if max_instructions is None else max(max_instructions, 1)
        while heap:
            _, index, run_until, core = heap[0]
            # Run this core while it remains the globally earliest one:
            # accesses it issues cannot be overtaken by any other core.
            # The next core is the smaller of the root's children.
            horizon = until_cycle
            size = len(heap)
            if size > 1:
                horizon = heap[1][0]
                if size > 2 and heap[2][0] < horizon:
                    horizon = heap[2][0]
                if horizon > until_cycle:
                    horizon = until_cycle
            ran = run_until(horizon, until_cycle, budget)
            executed += ran
            if budget is not None:
                budget -= ran
                if budget <= 0:
                    break
            if core.state != "halted" and core.cycle < until_cycle:
                heapreplace(heap, (core.cycle, index, run_until, core))
            else:
                heappop(heap)
        if idle_to_boundary:
            self._idle_stragglers(until_cycle)
        self.instructions_executed += executed
        return executed

    def _idle_stragglers(self, until_cycle):
        for core in self.platform.cores:
            if core.halted and core.cycle < until_cycle:
                core.idle_until(until_cycle)

    def run_to_completion(self, max_cycles=10**12, max_instructions=None):
        """Run until every core halts; returns (instructions, end_cycle).

        ``max_cycles`` bounds runaway programs; the end cycle is the
        largest local clock among the cores (the platform finish time).
        """
        executed = self.run_window(
            max_cycles, max_instructions, idle_to_boundary=False
        )
        if any(not core.halted for core in self.platform.cores):
            raise RuntimeError(
                "engine budget exhausted before all cores halted "
                f"(executed {executed} instructions)"
            )
        end_cycle = max(core.cycle for core in self.platform.cores)
        # Align the early finishers: they idle until the platform is done.
        self._idle_stragglers(end_cycle)
        return executed, end_cycle

    @property
    def all_halted(self):
        return all(core.halted for core in self.platform.cores)
