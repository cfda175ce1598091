"""Event-driven MPSoC execution engine (the FPGA's stand-in).

The engine runs the cores in the *one-at-a-time order*: always step the
core with the smallest local clock, one instruction at a time, while it
stays the earliest.  When several cores start an instruction at the
same cycle ``t``, the core that ran the last instruction starting
before ``t`` goes first (it is still "running"), the others follow by
platform index; at the start of a :meth:`EventDrivenEngine.run_window`
call no core has that priority.  Accesses to shared resources (bus, NoC
links, shared-memory port) are thus issued in causal order and the
busy-until bookkeeping inside those models yields correct contention —
the fast vehicle that lets the framework skip idle cycles, which is
exactly why FPGA emulation (and this engine) beats a signal-level
simulator that must evaluate every component every cycle.

Temporal decoupling.  Like the FPGA's cores, which run side by side and
meet only at the shared interconnect, a core here runs ahead of the
others through *core-private* instructions (see
:meth:`repro.mpsoc.processor.Processor.run_until`): ALU and control
instructions whose fetch hits the I-cache, and private-range loads and
write-back stores that hit the D-cache.  Nothing outside the core can
tell when those ran.  The cores meet only at *sync* instructions —
shared, MMIO and uncached accesses and cache misses (a miss reaches the
private memory's counters and the VPCM freeze hook) — and those run in
the one-at-a-time order, so the run is bit-identical to it:

* **Order.**  The engine keeps each core stopped before its next sync
  instruction and runs the one that starts first; it may go on through
  further sync instructions that start before any other core's.
* **Ties.**  Two sync instructions that start at the same cycle ``t``
  are ordered by the tie rule.  Which core ran the last instruction
  before ``t`` depends on every core's private instructions too, so it
  is rebuilt from a log of each core's instruction start cycles in the
  window (:class:`_Window`).
* **MMIO reads.**  A sniffer's ``REG_VALUE`` register reads any
  component's live counters, so while an MMIO read runs every other
  core's run-ahead past the read is taken out of its counters
  (:meth:`~repro.mpsoc.processor.Processor.retract`) and put back after.
* **Bounded logs.**  The logs are trimmed at the earliest waiting core
  once the tie state there is known: after each tie and every
  ``_TRIM_EVERY`` logged instructions.
"""

import heapq
from bisect import bisect_left

from repro.obs import catalog as obs_catalog

# Logged instructions between two log trims when no tie trims them.
_TRIM_EVERY = 1 << 10
# Cycles a tie walks back before it checks for cores in lockstep.
_LOCKSTEP_AFTER = 8


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

        ``max_instructions`` is a runaway guard: the window stops once
        exactly that many instructions ran (at least one).  Under
        run-ahead they are not the first ones of the one-at-a-time
        order, so only the partial state left when the budget runs out
        (or when a program faults) may differ from it;
        :meth:`run_to_completion` raises in that case.
        """
        cores = self.platform.cores
        runs = [core.runner() for core in cores]
        blocks = sum(core.block_runs for core in cores)
        shared = sum(core.shared_accesses for core in cores)
        window = _Window(cores)
        starts, classes, hide = window.starts, window.classes, window.hide
        # Cores waiting at their next instruction, earliest first; a
        # same-cycle tie goes by platform index (a stable,
        # process-independent order) unless the tie rule says otherwise.
        heap = [
            (core.cycle, index)
            for index, core in enumerate(cores)
            if core.state != "halted" and core.cycle < until_cycle
        ]
        heapq.heapify(heap)
        heapreplace, heappop, heapify = heapq.heapreplace, heapq.heappop, heapq.heapify
        executed = decisions = ties = logged = 0
        tie_cycle = tie_first = None
        # Like one instruction at a time: the budget is checked after an
        # instruction ran, so even a budget of 0 runs one.
        budget = None if max_instructions is None else max(max_instructions, 1)
        try:
            while heap:
                cycle, index = heap[0]
                size = len(heap)
                after = until_cycle  # when the next other core waits
                if size > 1:
                    after = heap[1][0]
                    if size > 2 and heap[2][0] < after:
                        after = heap[2][0]
                pos = 0
                if after == cycle:
                    # A tie: the core that ran last before this cycle goes
                    # first if it waits here too, then the platform index.
                    # It runs its instruction at this cycle, then private
                    # ones only.
                    if tie_cycle != cycle:
                        tie_cycle, tie_first = cycle, window.priority(cycle)
                        ties += 1
                    if tie_first is not None and tie_first != index:
                        try:
                            pos = heap.index((cycle, tie_first))
                            index = tie_first
                        except ValueError:
                            pass
                    horizon = cycle
                else:
                    # Alone until ``after``: sync instructions before it
                    # cannot be overtaken by any other core's.
                    horizon = after - 1
                core = cores[index]
                ran = runs[index](core, horizon, until_cycle, budget, starts[index],
                                  classes[index], hide)
                decisions += 1
                executed += ran
                if budget is not None:
                    budget -= ran
                    if budget <= 0:
                        break
                if core.state != "halted" and core.cycle < until_cycle:
                    if pos:
                        heap[pos] = (core.cycle, index)
                        heapify(heap)
                    else:
                        heapreplace(heap, (core.cycle, index))
                elif pos:
                    heap.pop(pos)
                    heapify(heap)
                else:
                    heappop(heap)
                logged += ran
                if logged >= _TRIM_EVERY and heap:
                    window.priority(heap[0][0])
                    logged = 0
        finally:
            # The batches leave their fetch-hit counts pending.
            for core in cores:
                core.sync()
        if idle_to_boundary:
            self._idle_stragglers(until_cycle)
        self.instructions_executed += executed
        obs_catalog.counter("repro_emulation_schedule_decisions_total").inc(decisions)
        obs_catalog.counter("repro_emulation_tie_resolutions_total").inc(ties)
        obs_catalog.counter("repro_emulation_blocks_total").inc(
            sum(core.block_runs for core in cores) - blocks)
        obs_catalog.counter("repro_emulation_shared_accesses_total").inc(
            sum(core.shared_accesses for core in cores) - shared)
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


def _last_at(members, first):
    """The core that runs last among ``members`` (ascending platform
    indices) starting an instruction at one cycle, when ``first`` is the
    core that goes first there if it is a member."""
    top = members[-1]
    return members[-2] if top == first and len(members) > 1 else top


class _Window:
    """The tie state of one ``run_window`` call, rebuilt from logs.

    ``starts[i]``/``classes[i]`` hold the start cycle and the class of
    every instruction core ``i`` ran in the window, oldest first.
    Entries before ``lo[i]`` start before the *frontier* cycle; which
    core ran the last instruction before the frontier is memoized in
    ``first``, so they are needed no more.  Every query is at or after
    the earliest waiting core, hence at or after the frontier.
    """

    def __init__(self, cores):
        self.cores = cores
        self.index_of = {core: index for index, core in enumerate(cores)}
        self.starts = [[] for _ in cores]
        self.classes = [[] for _ in cores]
        self.lo = [0] * len(cores)
        self.frontier = -1
        self.first = None

    def priority(self, t):
        """The core that ran the last instruction starting before ``t``
        (the one that goes first at ``t`` if it starts there too), or
        None if no instruction started before ``t`` in this window.
        No core may start an instruction before ``t`` any more: ``t``
        becomes the frontier and the logs are trimmed below it.
        """
        if t == self.frontier:
            return self.first
        starts, lo = self.starts, self.lo
        ends = [bisect_left(log, t, start) for log, start in zip(starts, lo)]
        first = self._last_before(ends)
        self.frontier, self.first = t, first
        for i, end in enumerate(ends):
            if end > _TRIM_EVERY and 2 * end > len(starts[i]):
                del starts[i][:end], self.classes[i][:end]
                end = 0
            lo[i] = end
        return first

    def _last_before(self, ends):
        """The core that ran the last of the logged instructions before
        ``ends``.

        Walks back over the cycles at which instructions started, each
        with the set of cores that started one there, until the answer
        no longer depends on the cycle before: a single core, or a set
        whose highest core did not run at the cycle before (so it had no
        priority and runs last).  Cores in lockstep since the frontier
        are one slice compare.
        """
        starts, lo = self.starts, self.lo
        pos = [end - 1 for end in ends]
        groups = []
        while True:
            heads = [(starts[i][p], i) for i, p in enumerate(pos) if p >= lo[i]]
            if not heads:
                first = self.first
                break
            if len(groups) == _LOCKSTEP_AFTER:
                first = self._lockstep([p + 1 for p in pos])
                if first is not None:
                    break
            cycle = max(heads)[0]
            members = [i for c, i in heads if c == cycle]
            for i in members:
                pos[i] -= 1
            if groups and groups[-1][-1] not in members:
                first = groups.pop()[-1]
                break
            if len(members) == 1:
                first = members[0]
                break
            groups.append(members)
        for members in reversed(groups):
            first = _last_at(members, first)
        return first

    def _lockstep(self, ends):
        """:meth:`_last_before` if every core that ran since the frontier
        started its instructions at the same cycles, else None."""
        starts, lo = self.starts, self.lo
        members = [i for i, end in enumerate(ends) if end > lo[i]]
        spans = [starts[i][lo[i]:ends[i]] for i in members]
        if any(span != spans[0] for span in spans):
            return None
        # Every cycle has the same set of cores, so after the first one
        # the last core alternates between the top two.
        first = _last_at(members, self.first)
        return first if len(spans[0]) % 2 else _last_at(members, first)

    def hide(self, reader):
        """Before ``reader`` reads an MMIO register at its clock ``t``:
        take every other core's instructions that come after the read
        in the one-at-a-time order out of its counters.  Those start
        after ``t``, or at ``t`` behind the reader by the tie rule, and
        are all core-private.  Returns the callable that puts them back.
        """
        for core in self.cores:  # retract reads the fetch counters
            core.sync()
        t = reader.cycle
        reader_index = self.index_of[reader]
        first = self.priority(t)
        restores = []
        for index, (log, start) in enumerate(zip(self.starts, self.lo)):
            if index == reader_index:
                continue
            hidden = bisect_left(log, t, start)
            if hidden < len(log) and log[hidden] == t and (
                index == first or first != reader_index and index < reader_index
            ):
                hidden += 1
            if hidden < len(log):
                restores.append(self.cores[index].retract(
                    log[hidden], self.classes[index][hidden:]
                ))

        def restore():
            for put_back in restores:
                put_back()

        return restore
