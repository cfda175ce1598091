"""Signal-level cycle-by-cycle engine (the MPARM stand-in).

Where the event-driven engine skips idle time, this engine does what a
SystemC/HDL cycle-accurate kernel does: advance a global clock and
evaluate every component's state machine on every cycle — cores, caches,
the bus arbiter, the memory ports, the NoC's flit buffers.  That is
exactly the "signal management overhead" the paper blames for MPARM's
10-100 kHz simulation speeds, and measuring this engine against the
event-driven one reproduces Table 3's *shape* with real numbers
(``benchmarks/bench_table3_timing.py``).

The engine reuses the platform's *functional* components (register
semantics, cache tag arrays, byte-accurate memories), so both engines
must produce identical architectural results; ``tests/emulation``
asserts that.
"""

from repro.mpsoc.bus import Arbiter
from repro.mpsoc.isa import CLASS_LOAD, CLASS_STORE

S_FETCH = "fetch"
S_FETCH_WAIT = "fetch-wait"
S_EXEC = "exec"
S_MEM_WAIT = "mem-wait"
S_HALTED = "halted"


class _CaBus:
    """Per-cycle shared bus: posted requests, one arbitration per cycle."""

    def __init__(self, bus, shared_mem):
        self.bus = bus  # the platform Bus (for config + counters)
        self.shared_mem = shared_mem
        self.pending = {}  # master_id -> (cycles_needed, callback)
        self.granted = None  # (master_id, remaining, callback)
        self.arbiter = Arbiter(
            bus.config.arbitration,
            max(1, len(bus.masters)),
            bus.config.tdma_slot_cycles,
        )

    def post(self, master_id, is_write, nwords, callback):
        occupancy = self.bus.occupancy_cycles(nwords)
        service = self.shared_mem.access_latency(nwords)
        self.pending[master_id] = (occupancy + service, callback, is_write, nwords)

    def tick(self, cycle):
        if self.granted is not None:
            master_id, remaining, callback = self.granted
            remaining -= 1
            if remaining <= 0:
                self.granted = None
                callback()
            else:
                self.granted = (master_id, remaining, callback)
            # Waiters burn a cycle.
            for waiter in self.pending:
                self.bus.per_master_wait[waiter] += 1
            return
        if not self.pending:
            return
        choice = self.arbiter.pick(list(self.pending), cycle)
        if choice is None:  # TDMA slot owner idle
            for waiter in self.pending:
                self.bus.per_master_wait[waiter] += 1
            return
        cycles_needed, callback, is_write, nwords = self.pending.pop(choice)
        self.granted = (choice, cycles_needed, callback)
        self.bus.counters.add("bus.txn")
        self.bus.counters.add("words", nwords)
        self.bus.counters.add("busy_cycles", cycles_needed)
        self.shared_mem.record_access(cycle, is_write, nwords)
        for waiter in self.pending:
            self.bus.per_master_wait[waiter] += 1


class _CaNocLink:
    """One directed link: at most one flit per cycle."""

    def __init__(self):
        self.queue = []  # packets: [remaining_flits, callback]

    def tick(self):
        if not self.queue:
            return
        packet = self.queue[0]
        packet[0] -= 1
        if packet[0] <= 0:
            self.queue.pop(0)
            packet[1]()


class _CaNoc:
    """Flit-level NoC: packets stream one flit per cycle per link, in
    order, along their static route; each hop adds the router pipeline
    latency (modelled as extra flit-times on the hop's link)."""

    def __init__(self, noc, shared_mem):
        self.noc = noc
        self.shared_mem = shared_mem
        self.links = {}
        self.mem_busy = 0
        self.mem_queue = []  # (is_write, nwords, callback)

    def _link(self, a, b):
        key = (a, b)
        if key not in self.links:
            self.links[key] = _CaNocLink()
        return self.links[key]

    def post(self, master_id, is_write, nwords, callback):
        master_name = self.noc.masters[master_id]
        path = self.noc.route(master_name, self.shared_mem.name)
        cfg = self.noc.config
        from repro.mpsoc.ocp import CMD_READ, CMD_WRITE, OcpRequest

        request = OcpRequest(
            master=master_name,
            cmd=CMD_WRITE if is_write else CMD_READ,
            addr=0,
            burst_len=nwords,
        )
        req_flits = request.request_flits()
        resp_flits = request.response_flits()
        self.noc.counters.add("noc.packet", 2)
        self.noc.counters.add("noc.flit", req_flits + resp_flits)
        self.noc.counters.add("ocp_transactions")
        hops = list(zip(path, path[1:]))
        for a, b in hops:
            self.noc.link_flits[(a, b)] = (
                self.noc.link_flits.get((a, b), 0) + req_flits
            )
            self.noc.switch_flits[b] += req_flits
        if path:
            self.noc.switch_flits[path[0]] += req_flits
        for a, b in reversed(hops):
            self.noc.link_flits[(b, a)] = (
                self.noc.link_flits.get((b, a), 0) + resp_flits
            )

        def after_response():
            callback()

        def after_memory():
            # Stream the response back along the reversed path.
            self._send(
                [(b, a) for a, b in reversed(hops)],
                resp_flits + cfg.ni_latency,
                after_response,
            )

        def after_request():
            self.mem_queue.append((is_write, nwords, after_memory))

        self._send(hops, req_flits + 2 * cfg.ni_latency, after_request)

    def _send(self, hops, flits, callback):
        if not hops:
            # Master and slave on the same switch: just the NI latencies.
            self.mem_queue_delay(flits, callback)
            return
        # Chain the hops: each link transfers the packet's flits plus the
        # per-hop pipeline cost, then hands it to the next link.
        cfg = self.noc.config
        per_hop = flits + cfg.hop_latency + cfg.link_latency - 1

        def chain(index):
            if index >= len(hops):
                callback()
                return
            self._link(*hops[index]).queue.append([per_hop, lambda: chain(index + 1)])

        chain(0)

    def mem_queue_delay(self, cycles, callback):
        self.mem_queue.append(("delay", cycles, callback))

    def tick(self, cycle):
        for link in self.links.values():
            link.tick()
        if self.mem_busy > 0:
            self.mem_busy -= 1
            if self.mem_busy == 0:
                _, _, callback = self._active
                callback()
            return
        if self.mem_queue:
            kind, nwords, callback = self.mem_queue.pop(0)
            if kind == "delay":
                self.mem_busy = max(1, nwords)
                self._active = (kind, nwords, callback)
            else:
                is_write = kind
                self.mem_busy = self.shared_mem.access_latency(nwords)
                self.shared_mem.record_access(cycle, is_write, nwords)
                self._active = (kind, nwords, callback)


class _CaCore:
    """Per-cycle state machine around one platform Processor."""

    def __init__(self, core, engine, master_id):
        self.core = core
        self.engine = engine
        self.master_id = master_id
        self.state = S_FETCH if not core.halted else S_HALTED
        self.countdown = 0
        self._pending_cls = None

    # -- memory path helpers -------------------------------------------------
    def _shared_request(self, is_write, nwords, on_done):
        self.engine.fabric.post(self.master_id, is_write, nwords, on_done)

    def _local_latency(self, rng, is_write, nwords):
        memory = rng.target
        memory.record_access(self.engine.cycle, is_write, nwords)
        return memory.access_latency(nwords)

    def _issue_access(self, addr, is_write, is_fetch, on_done):
        """Start one memory access; calls ``on_done()`` when data arrives."""
        core = self.core
        memctrl = core.memctrl
        rng = memctrl.decode(addr)
        if rng.is_mmio:
            self._finish_in(1, on_done)
            return
        cache = memctrl.icache if is_fetch else memctrl.dcache
        if rng.cacheable and cache is not None:
            result = cache.access(addr, is_write, self.engine.cycle)
            latency = cache.config.hit_latency
            line_words = cache.config.line_words
            needs = []
            if result.writeback:
                needs.append((True, line_words))
            if result.fill:
                needs.append((False, line_words))
            if result.through_write:
                needs.append((True, 1))
            if not needs:
                self._finish_in(latency, on_done)
                return
            self._run_backing_chain(rng, needs, latency, on_done)
            return
        if rng.via is not None:
            self._shared_request(is_write, 1, on_done)
        else:
            self._finish_in(self._local_latency(rng, is_write, 1), on_done)

    def _run_backing_chain(self, rng, needs, head_latency, on_done):
        """Serialize cache-miss backing accesses (writeback, fill...)."""

        def next_step(index):
            if index >= len(needs):
                on_done()
                return
            is_write, nwords = needs[index]
            if rng.via is not None:
                self._shared_request(is_write, nwords, lambda: next_step(index + 1))
            else:
                latency = self._local_latency(rng, is_write, nwords)
                self._finish_in(latency, lambda: next_step(index + 1))

        self._finish_in(head_latency, lambda: next_step(0))

    def _finish_in(self, cycles, on_done):
        self.engine.schedule(max(1, cycles), on_done)

    # -- the state machine ------------------------------------------------------
    def tick(self):
        if self.state == S_HALTED:
            return
        if self.state in (S_FETCH_WAIT, S_MEM_WAIT):
            # Waiting on a memory or interconnect response: a stalled
            # pipeline cycle in the sniffers' active/stall/idle split.
            self.core.stall_cycles += 1
            return
        if self.state == S_EXEC:
            self.core.active_cycles += 1
            self.countdown -= 1
            if self.countdown <= 0:
                self._finish_instruction()
            return
        if self.state == S_FETCH:
            core = self.core
            if core.halted:
                self.state = S_HALTED
                return
            core.active_cycles += 1  # fetch-issue cycle
            fetch_addr = core.program.text_base + 4 * core.pc
            core.memctrl.counters.add("fetches")
            self.state = S_FETCH_WAIT
            self._issue_access(fetch_addr, False, True, self._after_fetch)

    def _after_fetch(self):
        # The core's interpreter performs the instruction's architectural
        # effects now (a load's value is read when the fetch completes);
        # this state machine pays its CPI and memory timing, then retires
        # it in _finish_instruction.
        cls, cpi, access = self.core.execute()
        self._pending_cls = cls
        self.countdown = cpi
        if cls in (CLASS_LOAD, CLASS_STORE):
            self.state = S_MEM_WAIT

            def on_data():
                self.state = S_EXEC  # burn the CPI after the data returns

            if access is None:  # MMIO
                self._finish_in(1, on_data)
            else:
                addr, is_write = access
                self._issue_access(addr, is_write, False, on_data)
            return
        self.state = S_EXEC

    def _finish_instruction(self):
        core = self.core
        core.instructions += 1
        core.class_counts[self._pending_cls] += 1
        self._pending_cls = None
        core.cycle = self.engine.cycle
        self.state = S_HALTED if core.halted else S_FETCH


class CycleAccurateEngine:
    """Global-clock engine evaluating every component every cycle."""

    def __init__(self, platform):
        self.platform = platform
        self.cycle = 0
        self._timers = []  # (fire_cycle, seq, callback)
        self._seq = 0
        from repro.mpsoc.bus import Bus

        if isinstance(platform.interconnect, Bus):
            self.fabric = _CaBus(platform.interconnect, platform.shared_mem)
        else:
            self.fabric = _CaNoc(platform.interconnect, platform.shared_mem)
        self.cores = [
            _CaCore(core, self, master_id)
            for master_id, core in enumerate(platform.cores)
        ]
        self.evaluations = 0  # component evaluations (the signal cost)

    def schedule(self, cycles_ahead, callback):
        self._seq += 1
        self._timers.append([self.cycle + cycles_ahead, self._seq, callback])

    def _fire_timers(self):
        if not self._timers:
            return
        due = [t for t in self._timers if t[0] <= self.cycle]
        if not due:
            return
        due.sort(key=lambda t: (t[0], t[1]))
        self._timers = [t for t in self._timers if t[0] > self.cycle]
        for _, _, callback in due:
            callback()

    @property
    def all_halted(self):
        return all(c.state == S_HALTED for c in self.cores)

    def run(self, max_cycles=10**9):
        """Tick the global clock until every core halts."""
        components = len(list(self.platform.components()))
        while not self.all_halted:
            if self.cycle >= max_cycles:
                raise RuntimeError(f"cycle budget exhausted at {self.cycle}")
            self.cycle += 1
            self._fire_timers()
            self.fabric.tick(self.cycle)
            for core in self.cores:
                core.tick()
            # Model the per-cycle evaluation of every monitored component
            # (this is the honest cost accounting, not make-work).
            self.evaluations += components
        for ca_core in self.cores:
            ca_core.core.cycle = self.cycle
        return self.cycle

    def run_window(self, until_cycle, max_cycles=10**9):
        """Tick the global clock up to ``until_cycle`` (a window boundary).

        The workload-model counterpart of
        :meth:`EventDrivenEngine.run_window`: halted cores idle to the
        boundary so their idle cycles are accounted.  Returns the number
        of instructions that completed inside this window.
        """
        components = len(list(self.platform.components()))
        before = sum(c.core.instructions for c in self.cores)
        while self.cycle < until_cycle and not self.all_halted:
            if self.cycle >= max_cycles:
                raise RuntimeError(f"cycle budget exhausted at {self.cycle}")
            self.cycle += 1
            self._fire_timers()
            self.fabric.tick(self.cycle)
            for core in self.cores:
                core.tick()
            self.evaluations += components
        for ca_core in self.cores:
            if ca_core.state == S_HALTED:
                ca_core.core.idle_until(until_cycle)
            else:
                ca_core.core.cycle = self.cycle
        return sum(c.core.instructions for c in self.cores) - before
