"""Vectorized window-level performance model (the fast emulation backend).

Where :class:`repro.emulation.engine.EventDrivenEngine` interprets every
instruction of every core in Python, this model advances **all cores of
a platform for one sampling window in a handful of NumPy array
operations**.  The trade is the one FASE makes (PAPERS.md): give up
per-instruction exactness to get a fast vehicle for end-to-end
performance/thermal numbers, while the event-driven engine stays
available as the exact reference behind the same
:data:`repro.emulation.backends.EMULATION_BACKENDS` contract.

How it works
------------

*Calibration (once per platform content).*  The event-driven engine runs
the loaded programs to completion once and we record exact per-core
totals: instructions, active/stall cycles, instruction-class mix, cache
hit/miss/eviction traffic, private/shared-memory words, memory-controller
fetch/load/store and clock-suppression counts, interconnect transactions
and per-master bus wait.  Everything is reduced to per-instruction rates.
Calibrations are cached process-wide, keyed by a digest of the platform
configuration plus the loaded program text and memory contents — a sweep
of N thermal/policy variants over one workload calibrates **once**
(mirroring how ``network_for`` shares one RC-network assembly).  The
calibration run is side-effect free: functional state (memories, caches,
registers) is snapshotted and restored, statistics counters are reset.

*Replay (every window).*  Each core advances ``n_c = W / b_c`` modeled
instructions per window of ``W`` cycles (``b_c`` = busy cycles per
instruction), clipped to its remaining calibrated instruction budget, and
the per-instruction rates are bulk-applied to the *real* platform
counters.  The sniffers, ``Platform.stats()`` deltas and
``PowerModel.activity_from_stats`` therefore see the same observables a
real run produces — the framework's window is untouched.

*Contention.*  Shared-resource waiting is corrected with a closed-form
M/M/1-style model: the measured per-instruction bus wait ``w_c``
decomposes as ``w_c = k_c * U/(1-U)`` at the calibrated utilization
``U_cal``, fixing the constant ``k_c``; at run time the utilization is
re-estimated from the aggregate instruction throughput of the still-
running cohort and the wait re-applied, so when cores halt at different
times the survivors speed up the way they do under the event-driven
engine.  With the full cohort running the fixed point reproduces the
calibrated per-core busy time *exactly*, which is what makes workload
completion land on the same window as the reference.

What it does **not** do: execute instructions.  Architectural memory
state stays at its pre-run contents (the calibration run restores it),
so results computed by the program never materialize — this is a
performance/power model, not a functional simulator.  Use the
``event_driven`` backend when the run's outputs matter.
"""

import copy
import hashlib
import json
import time

import numpy as np

from repro.core.stats import diff_stats
from repro.emulation.engine import EventDrivenEngine
from repro.mpsoc import events as ev
from repro.mpsoc.processor import STATE_HALTED

# Process-wide calibration cache: content digest -> WindowedCalibration.
# One calibration serves every scenario variant sharing a platform +
# workload (thermal knobs, policies and solver backends don't affect it).
_CALIBRATIONS = {}

# stats()-delta key -> raw CounterBlock key, per component family.  The
# calibration reads stats deltas; replay bulk-writes the raw counters so
# stats()/sniffers reproduce the same numbers.
_CACHE_KEYS = (
    ("accesses", "accesses"),
    ("hits", ev.CACHE_HIT),
    ("misses", ev.CACHE_MISS),
    ("evictions", ev.CACHE_EVICT),
    ("writebacks", ev.CACHE_WRITEBACK),
)
_MEM_KEYS = (("reads", ev.MEM_READ), ("writes", ev.MEM_WRITE))
_MEMCTRL_KEYS = ("fetches", "loads", "stores", "clk_suppression_requests",
                 "suppressed_real_cycles")
_BUS_KEYS = (
    ("transactions", ev.BUS_TXN),
    ("words", "words"),
    ("busy_cycles", "busy_cycles"),
)
_NOC_KEYS = (
    ("packets", ev.NOC_PACKET),
    ("flits", ev.NOC_FLIT),
    ("ocp_transactions", "ocp_transactions"),
)


def clear_calibration_cache():
    """Drop all cached calibrations (tests / memory pressure)."""
    _CALIBRATIONS.clear()


def calibration_cache_size():
    return len(_CALIBRATIONS)


def platform_content_digest(platform):
    """Digest of everything that determines the platform's timing run.

    Covers the architecture configuration, each core's bound program
    (entry/text base/code words) and the initial contents of every
    memory (program data, shared input sets).
    """
    h = hashlib.sha256()
    h.update(json.dumps(platform.config.to_dict(), sort_keys=True).encode())
    for core in platform.cores:
        h.update(b"|core|")
        program = core.program
        if program is not None:
            h.update(str((program.entry, program.text_base)).encode())
            for word in program.code:
                h.update(int(word & 0xFFFFFFFF).to_bytes(4, "little"))
    for memory in [*platform.private_mems, platform.shared_mem]:
        h.update(b"|mem|")
        h.update(bytes(memory.data))
    return h.hexdigest()


def _functional_snapshot(platform):
    """Capture the architectural (functional) state the calibration run
    will mutate: memory bytes, cache tag arrays, core registers/PC."""
    return {
        "mems": [bytes(m.data)
                 for m in [*platform.private_mems, platform.shared_mem]],
        "caches": [copy.deepcopy(c._sets)
                   for c in platform.icaches + platform.dcaches],
        "cores": [(list(c.regs), c.pc, c.state) for c in platform.cores],
    }


def _restore_functional(platform, snapshot):
    """Put the snapshot back *in place*: a core's prepared run loop holds
    its register file, cache tag arrays and memory bytes by reference."""
    for memory, blob in zip(
        [*platform.private_mems, platform.shared_mem], snapshot["mems"]
    ):
        memory.data[:] = blob
    for cache, sets in zip(
        platform.icaches + platform.dcaches, snapshot["caches"]
    ):
        cache._sets[:] = copy.deepcopy(sets)
    for core, (regs, pc, state) in zip(platform.cores, snapshot["cores"]):
        core.regs[:] = regs
        core.pc = pc
        core.state = state


def _reset_statistics(platform):
    """Zero every statistics counter and timing residue the calibration
    run accumulated, leaving the platform observably pristine."""
    for core in platform.cores:
        core.reset_stats()
        core.cycle = 0
    for cache in platform.icaches + platform.dcaches:
        cache.counters.reset()
    for memory in [*platform.private_mems, platform.shared_mem]:
        memory.counters.reset()
        memory.port_busy_until = 0
    for memctrl in platform.memctrls:
        memctrl.counters.reset()
    inter = platform.interconnect
    inter.counters.reset()
    for master in getattr(inter, "per_master_wait", {}):
        inter.per_master_wait[master] = 0
    if hasattr(inter, "_busy_until"):
        inter._busy_until = 0
    if hasattr(inter, "switch_flits"):
        for switch in inter.switch_flits:
            inter.switch_flits[switch] = 0
        inter.link_flits.clear()
    if hasattr(inter, "_link_busy"):
        inter._link_busy.clear()


def _per_instruction(total, instructions):
    """Element-wise ``total / instructions`` with 0 where a core never ran."""
    out = np.zeros(len(total), dtype=float)
    mask = instructions > 0
    out[mask] = np.asarray(total, dtype=float)[mask] / instructions[mask]
    return out


class WindowedCalibration:
    """Exact whole-run totals from one event-driven reference run,
    reduced to per-instruction rates (see the module docstring)."""

    def __init__(self, platform, max_instructions):
        num = len(platform.cores)
        before = platform.stats()
        memctrl_before = [
            {key: mc.counters.get(key) for key in _MEMCTRL_KEYS}
            for mc in platform.memctrls
        ]
        snapshot = _functional_snapshot(platform)
        # The calibration run must not leak clock-suppression freezes
        # into the live VPCM — detach the hooks for its duration.
        hooks = [mc.clk_suppression_hook for mc in platform.memctrls]
        for memctrl in platform.memctrls:
            memctrl.clk_suppression_hook = None
        try:
            engine = EventDrivenEngine(platform)
            try:
                _, end_cycle = engine.run_to_completion(
                    max_instructions=max_instructions
                )
            except RuntimeError as exc:
                raise RuntimeError(
                    f"windowed-backend calibration needs the workload to "
                    f"halt within {max_instructions or 'unbounded'} "
                    f"instructions; use the event_driven backend for "
                    f"non-terminating programs ({exc})"
                ) from None
            delta = diff_stats(platform.stats(), before)
            memctrl_totals = {
                key: np.array(
                    [mc.counters.get(key) - b[key]
                     for mc, b in zip(platform.memctrls, memctrl_before)],
                    dtype=float,
                )
                for key in _MEMCTRL_KEYS
            }
        finally:
            for memctrl, hook in zip(platform.memctrls, hooks):
                memctrl.clk_suppression_hook = hook
            _restore_functional(platform, snapshot)
            _reset_statistics(platform)

        cores = list(delta["cores"].values())
        self.end_cycle = float(end_cycle)
        self.instr_total = np.array(
            [c["instructions"] for c in cores], dtype=float
        )
        active = np.array([c["active_cycles"] for c in cores], dtype=float)
        stall = np.array([c["stall_cycles"] for c in cores], dtype=float)
        busy = active + stall
        self.active_pi = _per_instruction(active, self.instr_total)
        self.busy_pi = np.maximum(
            _per_instruction(busy, self.instr_total), 1e-9
        )
        classes = set()
        for stats in cores:
            classes.update(stats.get("class_counts", {}))
        self.class_pi = {
            cls: _per_instruction(
                [c.get("class_counts", {}).get(cls, 0) for c in cores],
                self.instr_total,
            )
            for cls in sorted(classes)
        }

        def per_core_rates(family, key_map):
            """Per-core per-instruction rates for a stats family whose
            entries parallel the core list (keyed by counter name)."""
            stats_list = list(delta.get(family, {}).values())
            rates = {}
            for stats_key, counter_key in key_map:
                if len(stats_list) == num:
                    totals = [s.get(stats_key, 0) for s in stats_list]
                else:  # platform built without this cache level
                    totals = np.zeros(num)
                rates[counter_key] = _per_instruction(totals, self.instr_total)
            return rates

        self.icache_pi = per_core_rates("icaches", _CACHE_KEYS)
        self.dcache_pi = per_core_rates("dcaches", _CACHE_KEYS)
        self.private_mem_pi = per_core_rates("private_mems", _MEM_KEYS)
        self.memctrl_pi = {
            key: _per_instruction(totals, self.instr_total)
            for key, totals in memctrl_totals.items()
        }

        instr_sum = max(float(self.instr_total.sum()), 1.0)
        shared = delta.get("shared_mem", {})
        self.shared_mem_pi = {
            counter_key: shared.get(stats_key, 0) / instr_sum
            for stats_key, counter_key in _MEM_KEYS
        }
        inter = delta.get("interconnect", {})
        self.is_bus = "busy_cycles" in inter
        if self.is_bus:
            self.bus_pi = {
                counter_key: inter.get(stats_key, 0) / instr_sum
                for stats_key, counter_key in _BUS_KEYS
            }
            waits = inter.get("per_master_wait", {})
            wait_total = np.array(
                [waits.get(i, 0) for i in range(num)], dtype=float
            )
            self.wait_pi = _per_instruction(wait_total, self.instr_total)
            self.utilization_cal = min(
                0.99, inter.get("busy_cycles", 0) / max(self.end_cycle, 1.0)
            )
        else:
            self.noc_pi = {
                counter_key: inter.get(stats_key, 0) / instr_sum
                for stats_key, counter_key in _NOC_KEYS
            }
            self.switch_flits_pi = {
                switch: flits / instr_sum
                for switch, flits in inter.get("switch_flits", {}).items()
            }
            self.link_flits_pi = {
                link: flits / instr_sum
                for link, flits in inter.get("link_flits", {}).items()
            }
            # The fast NoC model does not accumulate per-master waits, so
            # the contention correction degenerates to the identity (all
            # queueing is already inside the calibrated busy time).
            self.wait_pi = np.zeros(num)
            self.utilization_cal = 0.0
        # Closed-form M/M/1 constant per core: wait(U) = k * U / (1 - U),
        # anchored so wait(U_cal) equals the measured per-master wait.
        u = self.utilization_cal
        self.wait_k = (
            self.wait_pi * ((1.0 - u) / u) if u > 0 else np.zeros(num)
        )
        self.base_pi = np.maximum(self.busy_pi - self.wait_pi, 1e-9)
        # Full-cohort aggregate throughput (instructions per cycle) that
        # anchors the run-time utilization estimate.
        self.throughput_cal = float(
            np.sum(np.where(self.instr_total > 0, 1.0 / self.busy_pi, 0.0))
        )


def calibration_for(platform, max_instructions=50_000_000):
    """Fetch (or measure and cache) the calibration for ``platform``."""
    from repro.obs import catalog as obs_catalog
    from repro.obs import tracing as obs_tracing

    digest = platform_content_digest(platform)
    calibration = _CALIBRATIONS.get(digest)
    if calibration is None:
        obs_catalog.counter("repro_emulation_calibration_misses_total").inc()
        tracer = obs_tracing.ACTIVE
        t0 = time.perf_counter()
        calibration = WindowedCalibration(platform, max_instructions)
        if tracer is not None:
            tracer.emit(
                "emulation.calibrate",
                time.perf_counter() - t0,
                digest=digest[:12],
            )
        _CALIBRATIONS[digest] = calibration
    else:
        obs_catalog.counter("repro_emulation_calibration_hits_total").inc()
    return calibration


class WindowedWorkload:
    """Workload-shaped fast model (same duck type as ``DirectWorkload``).

    ``advance(window_cycles)`` bulk-updates the real platform counters
    from the calibrated per-instruction rates, so sniffer payloads,
    stats deltas and the power model see ordinary observables.
    """

    def __init__(self, platform, power_model, max_utilization=0.95,
                 calibration_max_instructions=50_000_000):
        self.platform = platform
        self.power_model = power_model
        self.calibration = calibration_for(
            platform, calibration_max_instructions
        )
        self.max_utilization = max(
            max_utilization, self.calibration.utilization_cal
        )
        self._remaining = self.calibration.instr_total.copy()
        self._horizon = 0
        self._last_stats = platform.stats()
        self.instructions = 0.0

    @property
    def done(self):
        return bool((self._remaining <= 1e-9).all())

    # -- the contention fixed point ---------------------------------------
    def _effective_busy(self, running):
        """Per-core busy cycles/instruction for the running cohort.

        Iterates the closed-form correction ``b = base + k * U/(1-U)``
        with ``U`` proportional to the cohort's aggregate instruction
        throughput; converges in a few iterations and reproduces the
        calibrated busy time exactly when every core is running.
        """
        cal = self.calibration
        b_eff = cal.busy_pi.copy()
        if cal.utilization_cal <= 0 or cal.throughput_cal <= 0:
            return b_eff
        u_cal = cal.utilization_cal
        cap = self.max_utilization
        for _ in range(6):
            throughput = float(np.sum(np.where(running, 1.0 / b_eff, 0.0)))
            u = min(cap, u_cal * throughput / cal.throughput_cal)
            b_eff = cal.base_pi + cal.wait_k * (u / (1.0 - u))
        return np.maximum(b_eff, 1e-9)

    # -- bulk counter application -----------------------------------------
    def _apply_window(self, window_cycles, n, b_eff):
        cal = self.calibration
        platform = self.platform
        cycles_used = n * b_eff
        active = np.minimum(n * cal.active_pi, cycles_used)
        stall = cycles_used - active
        idle = np.maximum(window_cycles - cycles_used, 0.0)
        n_total = float(n.sum())

        for i, core in enumerate(platform.cores):
            core.active_cycles += active[i]
            core.stall_cycles += stall[i]
            core.idle_cycles += idle[i]
            core.instructions += n[i]
            core.cycle = self._horizon
            if n[i] > 0:
                for cls, rates in cal.class_pi.items():
                    if rates[i]:
                        core.class_counts[cls] = (
                            core.class_counts.get(cls, 0) + rates[i] * n[i]
                        )

        def bulk(counters, rates, index):
            for key, rate in rates.items():
                amount = rate[index] * n[index]
                if amount:
                    counters.add(key, amount)

        for i, cache in enumerate(platform.icaches):
            bulk(cache.counters, cal.icache_pi, i)
        for i, cache in enumerate(platform.dcaches):
            bulk(cache.counters, cal.dcache_pi, i)
        for i, memory in enumerate(platform.private_mems):
            bulk(memory.counters, cal.private_mem_pi, i)
        for i, memctrl in enumerate(platform.memctrls):
            bulk(memctrl.counters, cal.memctrl_pi, i)
            suppressed = cal.memctrl_pi["suppressed_real_cycles"][i] * n[i]
            if suppressed > 0 and memctrl.clk_suppression_hook is not None:
                memctrl.clk_suppression_hook(suppressed)

        if n_total <= 0:
            return
        shared = platform.shared_mem.counters
        for key, rate in cal.shared_mem_pi.items():
            if rate:
                shared.add(key, rate * n_total)
        inter = platform.interconnect
        if cal.is_bus:
            for key, rate in cal.bus_pi.items():
                if rate:
                    inter.counters.add(key, rate * n_total)
            wait_window = np.maximum(b_eff - cal.base_pi, 0.0) * n
            total_wait = float(wait_window.sum())
            if total_wait > 0:
                inter.counters.add(ev.BUS_WAIT, total_wait)
                for i, wait in enumerate(wait_window):
                    if wait:
                        inter.per_master_wait[i] += wait
        else:
            for key, rate in cal.noc_pi.items():
                if rate:
                    inter.counters.add(key, rate * n_total)
            for switch, rate in cal.switch_flits_pi.items():
                inter.switch_flits[switch] += rate * n_total
            for link, rate in cal.link_flits_pi.items():
                inter.link_flits[link] = (
                    inter.link_flits.get(link, 0) + rate * n_total
                )

    def advance(self, window_cycles):
        """Model one window; returns its utilization vector."""
        if window_cycles < 0:
            raise ValueError("negative window")
        self._horizon += window_cycles
        if window_cycles > 0:
            remaining = self._remaining
            running = remaining > 1e-9
            n = np.zeros_like(remaining)
            if running.any():
                b_eff = self._effective_busy(running)
                n[running] = np.minimum(
                    remaining[running], window_cycles / b_eff[running]
                )
            else:
                b_eff = self.calibration.busy_pi
            self._apply_window(window_cycles, n, b_eff)
            self._remaining = remaining - n
            self.instructions += float(n.sum())
            for i, core in enumerate(self.platform.cores):
                if self._remaining[i] <= 1e-9 and not core.halted:
                    self._remaining[i] = 0.0
                    core.state = STATE_HALTED
        stats = self.platform.stats()
        delta = diff_stats(stats, self._last_stats)
        self._last_stats = stats
        return self.power_model.activity_from_stats(delta, window_cycles)
