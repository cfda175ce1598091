"""Processing-element models (Section 3.1).

The paper ports a PowerPC405 hard core and a Microblaze soft core onto
the FPGA and keeps the framework open to other cores (ARM, VLIW); only
the instruction-set part of a core is used — its L1 hierarchy is always
replaced by the framework's own caches.

We model a core as a RISC-32 interpreter parameterized by a
:class:`CoreSpec` (per-class CPI, default frequency, power class, FPGA
resource cost).  The interpreter is *timed*: every instruction charges
its CPI and any memory latency reported by the memory controller, and
the core keeps the active/stall/idle accounting the thermal sniffers
need ("HW sniffers measure the time that each processor spends in
active/stalled/idle mode", Section 4.1).
"""

import struct
import weakref
from collections import Counter
from dataclasses import dataclass
from functools import partial

from repro.mpsoc import events as ev
from repro.mpsoc import isa
from repro.mpsoc.cache import WRITE_BACK
from repro.mpsoc.events import CounterBlock, Observable
from repro.mpsoc.isa import (
    CLASS_ALU,
    CLASS_BRANCH,
    CLASS_DIV,
    CLASS_JUMP,
    CLASS_LOAD,
    CLASS_MUL,
    CLASS_STORE,
    CLASS_SYSTEM,
)
from repro.mpsoc.memctrl import AccessFault
from repro.mpsoc.memory import Memory
from repro.mpsoc.translate import (
    RUNTIME,
    Instr,
    Translator,
    unpack_classes,
    unpack_data,
)
from repro.util.codegen import fresh

STATE_RUNNING = "running"
STATE_HALTED = "halted"

_FOREVER = float("inf")


@dataclass(frozen=True)
class CoreSpec:
    """Static description of a processing-core family."""

    name: str
    description: str
    cpi: dict
    default_hz: float
    power_class: str  # key into the Table 1 power library
    fpga_slices: int  # resource model (V2VP30 has 13696 slices)

    def cycles_for(self, cls):
        return self.cpi[cls]


# CPI tables: simple single-issue in-order models.  The values follow the
# usual pipeline depths: ARM7 is a 3-stage core with slow multiplies and
# 3-cycle taken branches; ARM11/PowerPC405 are deeper but predicted;
# Microblaze is the 3-stage Xilinx soft core (its divider is iterative).
CORE_SPECS = {
    "microblaze": CoreSpec(
        name="microblaze",
        description="Xilinx Microblaze RISC-32 soft core",
        cpi={
            CLASS_ALU: 1,
            CLASS_MUL: 3,
            CLASS_DIV: 32,
            CLASS_LOAD: 1,
            CLASS_STORE: 1,
            CLASS_BRANCH: 2,
            CLASS_JUMP: 2,
            CLASS_SYSTEM: 1,
        },
        default_hz=100e6,
        power_class="arm7",  # closest Table 1 class for a small RISC-32
        fpga_slices=574,  # 4% of the V2VP30's 13696 slices (Section 3.1)
    ),
    "ppc405": CoreSpec(
        name="ppc405",
        description="PowerPC 405 hard core",
        cpi={
            CLASS_ALU: 1,
            CLASS_MUL: 2,
            CLASS_DIV: 35,
            CLASS_LOAD: 1,
            CLASS_STORE: 1,
            CLASS_BRANCH: 2,
            CLASS_JUMP: 2,
            CLASS_SYSTEM: 1,
        },
        default_hz=100e6,
        power_class="arm7",
        fpga_slices=0,  # hard macro: consumes no slices
    ),
    "arm7": CoreSpec(
        name="arm7",
        description="ARM7-class RISC-32 (Table 1 / Figure 4a)",
        cpi={
            CLASS_ALU: 1,
            CLASS_MUL: 4,
            CLASS_DIV: 40,
            CLASS_LOAD: 2,
            CLASS_STORE: 2,
            CLASS_BRANCH: 3,
            CLASS_JUMP: 3,
            CLASS_SYSTEM: 1,
        },
        default_hz=100e6,
        power_class="arm7",
        fpga_slices=900,
    ),
    "arm11": CoreSpec(
        name="arm11",
        description="ARM11-class RISC-32 (Table 1 / Figure 4b)",
        cpi={
            CLASS_ALU: 1,
            CLASS_MUL: 2,
            CLASS_DIV: 20,
            CLASS_LOAD: 1,
            CLASS_STORE: 1,
            CLASS_BRANCH: 2,
            CLASS_JUMP: 2,
            CLASS_SYSTEM: 1,
        },
        default_hz=500e6,
        power_class="arm11",
        fpga_slices=1400,
    ),
    # The TC4SOC-class 32-bit VLIW the related work brings up (Section 2).
    # Our interpreter is single-issue, so the VLIW advantage appears as a
    # uniformly aggressive CPI table rather than multi-issue slots.
    "vliw32": CoreSpec(
        name="vliw32",
        description="TC4SOC-class 32-bit VLIW core",
        cpi={
            CLASS_ALU: 1,
            CLASS_MUL: 1,
            CLASS_DIV: 12,
            CLASS_LOAD: 1,
            CLASS_STORE: 1,
            CLASS_BRANCH: 2,
            CLASS_JUMP: 1,
            CLASS_SYSTEM: 1,
        },
        default_hz=200e6,
        power_class="arm11",
        fpga_slices=2300,
    ),
}


class ExecutionError(Exception):
    """Raised on run-time program faults (bad jump, misaligned access...)."""


_NO_LIMIT = 1 << 62  # the instruction budget of an unbounded run
_WORD = struct.Struct("<I")
_HIT = ev.CACHE_HIT


def _no_fetch(addr, t):
    return 0


def _no_run(core, *args):
    """:meth:`Processor.runner` of a core with no program: it is halted."""
    return 0


class Processor(Observable):
    """A timed RISC-32 interpreter bound to one memory controller.

    Registers always hold unsigned 32-bit words (every write is masked),
    which the run loop relies on for its signed comparisons.
    """

    def __init__(self, name, spec, memctrl, code_cache=None):
        super().__init__()
        self.name = name
        self.spec = spec
        self.memctrl = memctrl
        self.counters = CounterBlock(name)
        self.regs = [0] * isa.NUM_REGISTERS
        self.pc = 0
        self.cycle = 0  # local virtual time
        self.state = STATE_HALTED
        self.program = None
        self._code = []  # predecoded instructions (decode once, execute many)
        self._text_base = 0
        # The translation: its code cache (shared by a platform's cores),
        # and the timed namespace built by load_program and the
        # functional one execute() builds on first use.
        self._code_cache = {} if code_cache is None else code_cache
        self._namespaces = []
        self._timed = self._functional = None
        # Monotonic counts for the engine's metrics (see block_runs).
        self._runs = [0, 0]
        # active/stall/idle accounting (virtual cycles)
        self.active_cycles = 0
        self.stall_cycles = 0
        self.idle_cycles = 0
        self.instructions = 0
        self._class_counts = {cls: 0 for cls in isa.INSTRUCTION_CLASSES}

    def __del__(self):
        # A namespace and its functions refer to each other; emptying it
        # frees them with the core instead of at the next full collection.
        for namespace in self._namespaces:
            namespace.clear()

    # -- program loading ----------------------------------------------------
    def load_program(self, program):
        """Bind an assembled program; text/data must already be in memory
        (the platform loader does that).

        The text is predecoded once here and translated into Python
        blocks (:mod:`repro.mpsoc.translate`) as it runs: an instruction
        gets its step on its first run, a block is compiled once it ran
        :data:`~repro.mpsoc.translate.COLD` times as steps.  The
        translation lives as long as the program stays loaded; compiled
        blocks go to the ``code_cache`` the core was built with — one
        per platform, so its cores and the windowed calibration run on
        it compile each distinct block once, and a new platform pays its
        translation again.
        """
        self.program = program
        self._text_base = program.text_base
        self.pc = program.entry
        self.regs[:] = [0] * isa.NUM_REGISTERS
        self.state = STATE_RUNNING
        memctrl = self.memctrl
        icache, dcache = memctrl.icache, memctrl.dcache
        ihit = icache.hit_latency if icache is not None else 1
        code = []
        for pc, word in enumerate(program.code):
            line = None
            if icache is not None:
                index = (program.text_base + 4 * pc) // icache.line_size
                line = (index % icache.num_sets, index // icache.num_sets)
            code.append(Instr(word, pc, self.spec.cpi, ihit, line))
        self._code = code
        # Data accesses to the first range are inline when it is a plain
        # memory whose words the range maps one to one.
        first = memctrl.ranges[0] if memctrl.ranges else None
        inline = (
            first is not None
            and not first.is_mmio
            and isinstance(first.target, Memory)
            and first.base % 4 == 0
            and first.size % 4 == 0
            and first.size <= first.target.config.size
        )
        self._inline = first if inline else None
        # Fetches hit the I-cache inline when the text is cacheable.
        self._text_cached = False
        if icache is not None and code:
            try:
                text = memctrl.decode(self._text_base)
            except AccessFault:
                text = None
            last = self._text_base + 4 * (len(code) - 1)
            self._text_cached = (
                text is not None and text.cacheable and text.contains(last)
            )
        self._d_cached = inline and first.cacheable and dcache is not None
        private = None
        if self._d_cached:
            private = (first.base, first.base + first.size, dcache.line_size,
                       dcache.num_sets, dcache.config.write_policy == WRITE_BACK)
        # Blocks access a plain memory behind a port (the shared range)
        # inline when its words map one to one.
        self._ports = [
            (lo, hi, rng.target, port)
            for lo, hi, rng, port in memctrl._bounds[1 if inline else 0:]
            if port is not None and isinstance(rng.target, Memory)
            and lo % 4 == 0 and (hi - lo) % 4 == 0
            and hi - lo <= rng.target.config.size
        ]
        geometry = (icache.line_size, icache.num_sets) if icache else None
        self._translator = Translator(
            program.code, code, ihit,
            dcache.hit_latency if dcache is not None else 1, private,
            [(lo, hi, hasattr(port, "read1")) for lo, hi, _, port in self._ports],
            (program.text_base, geometry, tuple(sorted(self.spec.cpi.items()))),
            self._code_cache,
        )
        self._take_class_counts()  # the old translation's pending ones
        for namespace in self._namespaces:
            namespace.clear()
        self._namespaces.clear()
        self._timed = self._namespace(timed=True)
        self._functional = None

    def _namespace(self, timed):
        """The globals a translated program runs in (see
        :mod:`repro.mpsoc.translate`), holding this core's state by
        reference.

        Timed: fetches from a cacheable text hit the I-cache inline and
        private-range data accesses hit the D-cache inline; everything
        else goes to the memory controller.  Functional (``execute``):
        no fetch or data timing at all — the data ports only record the
        access — and class counts that are dropped, since the caller
        retires the instruction.
        """
        memctrl = self.memctrl
        icache, dcache = memctrl.icache, memctrl.dcache
        first = self._inline
        ns = {
            "TIMED": timed,
            "RUNNING": STATE_RUNNING,
            "HALTED": STATE_HALTED,
            "NO_LIMIT": _NO_LIMIT,
            "ExecutionError": ExecutionError,
            "AccessFault": AccessFault,
            "UNPACK": _WORD.unpack_from,
            "PACK": _WORD.pack_into,
            "NAME": self.name,
            "MEMCTRL": memctrl.name,
            "NCODE": len(self._code),
            "TEXT": self._text_base,
            "R": self.regs,
            "KC": 0,
            "CPI_LOAD": self.spec.cpi[CLASS_LOAD],
            "CPI_STORE": self.spec.cpi[CLASS_STORE],
            "FETCH": memctrl.fetch_timing if timed else _no_fetch,
            "ISETS": icache._sets if icache is not None else None,
            "IHIT": icache.hit_latency if icache is not None else 1,
            "DSETS": dcache._sets if dcache is not None else None,
            "DLS": dcache.line_size if dcache is not None else 1,
            "DNS": dcache.num_sets if dcache is not None else 1,
            "DHIT": dcache.hit_latency if dcache is not None else 1,
            "P_LO": first.base if first else 0,
            "P_HI": first.base + first.size if first else 0,
            "PDATA": first.target.data if first else None,
            "RUNS": self._runs,
            # The fast paths a run may take, unless an event-logging
            # sniffer hooks the cache (it needs one event per access).
            "ITEXT": timed and self._text_cached,
            "IHOOKS": icache._event_hooks if icache is not None else (),
            "DCACHED": timed and self._d_cached,
            "DHOOKS": dcache._event_hooks if dcache is not None else (),
            "WB": dcache is not None and dcache.config.write_policy == WRITE_BACK,
            "BLOCKS": None,
            # The run's parameters (RUN sets them; the functional mode
            # has none) and accumulators.
            "H": _FOREVER, "U": _FOREVER, "LIMIT": _NO_LIMIT,
            "LS": None, "LC": None,
            "MMIO_HOOK": None,
            "cycle": 0, "n": 0, "nf": 0, "stall": 0, "done": 0, "at": 0,
            "badpc": 0, "halted": False, "access": None, "PH": 0, "DC": 0,
            "STEP_CODE": {},  # the translation's step code, by mnemonic
        }
        ns["NS"] = ns
        exec(fresh(RUNTIME), ns)  # its own copy of the helpers (see fresh)
        record = ns["RECORD"]
        ranges = []
        for lo, hi, rng, port in memctrl._bounds:
            if rng is first:
                continue  # resolved before the ranges are
            target = rng.target
            memory = isinstance(target, Memory)
            if port is not None and not timed:
                port = record
            ranges.append((lo, hi, target.data if memory else None,
                           target.config.size if memory else 0, port, target))
        ns["RANGES"] = tuple(ranges)
        for index, (_, _, memory, port) in enumerate(self._ports):
            ns[f"SD{index}"], ns[f"SP{index}"] = memory.data, port
            if hasattr(port, "read1"):
                ns[f"SR{index}"], ns[f"SW{index}"] = port.read1, port.write1
        if first:
            ns["PPORT"] = memctrl.decode_port(first.base)[1] if timed else record
        ns["MMIO_LOAD"], ns["MMIO_STORE"] = self._mmio_ports(ns, timed)
        translator = self._translator
        ncode = len(self._code)

        def translate(key, pc):
            function = translator.function(ns, key[0].lower(), pc)
            if function is None:  # a block still run as steps
                return ns["SLOW"](translator.trace(pc))
            ns[key][pc] = function
            return function()

        names = ("STEPS", "BLOCKS") if timed and self._text_cached else ("STEPS",)
        for key in names:
            # The entries reach their table through ``ns`` only, so
            # clearing the namespace (``__del__``) frees the tables too.
            ns[key] = [partial(translate, key, pc) for pc in range(ncode)]
            ns[key].append(ns["BAD_PC"])
        self._namespaces.append(ns)
        return ns

    def _functional_namespace(self):
        if self._functional is None:
            self._functional = self._namespace(timed=False)
        return self._functional

    def _mmio_ports(self, ns, timed):
        """``(load(pc, target, off), store(pc, target, off, value))`` of
        an MMIO access: the run's accumulators are written back first,
        since sniffer registers read live counters, and a read runs
        inside the run's ``on_mmio_read`` hook.  They reach the core
        through a weak reference, so a dropped core is freed at once."""
        core_ref = weakref.ref(self)
        counts = self.memctrl.counters.counts

        def load(pc, target, off):
            core = core_ref()
            core._flush(ns, pc, timed, inflight=1)
            counts["loads"] = counts.get("loads", 0) + 1
            hook = ns["MMIO_HOOK"]
            if hook is None:
                return target.mmio_read(off)
            restore = hook(core)
            try:
                return target.mmio_read(off)
            finally:
                restore()

        def store(pc, target, off, value):
            core_ref()._flush(ns, pc, timed, inflight=1)
            counts["stores"] = counts.get("stores", 0) + 1
            target.mmio_write(off, value)

        return load, store

    @property
    def class_counts(self):
        """Instructions executed per class.  Translated code counts them
        packed in its namespace (one add per block); they are added here
        when read."""
        ns = self._timed
        if ns is not None and ns["KC"]:
            self._take_class_counts()
        return self._class_counts

    def _take_class_counts(self):
        ns = self._timed
        if ns is not None:
            counts = self._class_counts
            for cls, count in unpack_classes(ns["KC"]):
                counts[cls] = counts.get(cls, 0) + count
            ns["KC"] = 0

    def reset_stats(self):
        self.counters.reset()
        self.active_cycles = 0
        self.stall_cycles = 0
        self.idle_cycles = 0
        self.instructions = 0
        self.class_counts.clear()
        self.class_counts.update({cls: 0 for cls in isa.INSTRUCTION_CLASSES})

    @property
    def halted(self):
        return self.state == STATE_HALTED

    # -- execution --------------------------------------------------------------
    def run_until(self, horizon, until_cycle, budget=None, starts=None,
                  classes=None, on_mmio_read=None):
        """Execute instructions that start before ``until_cycle``, at most
        ``budget`` of them (none if it is ``<= 0``), stopping at halt;
        returns the number executed.

        An instruction that starts at or before ``horizon`` always runs.
        One that starts after it runs only if it is *core-private*: its
        fetch hits the I-cache inline, and it is no memory access or a
        private-range load or write-back store that hits the D-cache
        inline.  The batch stops before the first other instruction past
        the horizon — a *sync* instruction: a fetch or data miss, a
        write-through, uncached, shared or MMIO access.  Private
        instructions touch nothing but this core's registers, private
        memory words, cache tags and counters, so no other core can
        tell when they ran; the event-driven engine lets a core run
        ahead through them and orders only the sync instructions
        (:mod:`repro.emulation.engine`).  :meth:`step` and :meth:`run`
        pass an infinite horizon.

        This runs the translated program (:mod:`repro.mpsoc.translate`):
        it calls one block after another, each of which runs whole when
        the budget and ``until_cycle`` leave room for it and its I-cache
        lines are resident, and otherwise steps through it one checked
        instruction at a time.  :meth:`step`, :meth:`run` and the engine
        are batches of it.  Cycle split: CPI + cache hit latencies count
        as *active*, anything beyond (miss refills, bus waits) as
        *stall*.  The clock, the accounting and (:meth:`sync`) the
        pending fetch and data-access counts are written back when the
        batch ends, also on a fault, and before any MMIO access, since
        sniffer registers read live counters.  A fault leaves the core
        at the faulting instruction, which takes no cycle and is not
        counted, except for its fetch.

        ``starts``/``classes``: lists that get the start cycle and the
        class of every executed instruction.  ``on_mmio_read(core)``:
        called just before an MMIO read, with the core's clock at the
        read's start; it returns a callable to call once the read is done.
        """
        if self.state != STATE_RUNNING:
            return 0
        ran = self._timed["RUN"](self, horizon, until_cycle, budget, starts,
                                 classes, on_mmio_read)
        self.sync()
        return ran

    def runner(self):
        """:meth:`run_until` (timed) as a plain function of the core and
        the same arguments, ``run(core, horizon, until_cycle, budget,
        starts, classes, on_mmio_read)``, for a caller that runs many
        batches; valid until the next :meth:`load_program`.  It leaves
        the fetch-hit counts pending: call :meth:`sync` before anything
        reads the memory controller's or the I-cache's counters."""
        return _no_run if self._timed is None else self._timed["RUN"]

    def sync(self):
        """Add the counts translated code leaves pending to the counters:
        inline fetch hits to the memory controller's ``fetches`` and the
        I-cache's accesses and hits, and data accesses to ``loads``,
        ``stores``, the D-cache's accesses and hits and
        :attr:`shared_accesses`."""
        memctrl = self.memctrl
        for ns in self._namespaces:
            if ns["PH"] and memctrl.icache is not None:
                hits, ns["PH"] = ns["PH"], 0
                memctrl.counters.add("fetches", hits)
                memctrl.icache.counters.add("accesses", hits)
                memctrl.icache.counters.add(_HIT, hits)
            if ns["DC"]:
                self._sync_data(ns)

    def _sync_data(self, ns):
        memctrl = self.memctrl
        loads, stores, hits, ports = unpack_data(ns["DC"])
        ns["DC"] = 0
        if loads:
            memctrl.counters.add("loads", loads)
        if stores:
            memctrl.counters.add("stores", stores)
        if hits:
            memctrl.dcache.counters.add("accesses", hits)
            memctrl.dcache.counters.add(_HIT, hits)
        self._runs[1] += ports

    def _flush(self, ns, pc, timed, inflight=0):
        """Write a run's accumulators back to the core and its counters
        and zero them, before an MMIO access or after a fault; the
        instructions they held move to ``done`` (and off the budget).

        ``inflight``: 1 when an instruction is under way (an MMIO access
        after its fetch): its fetch is counted now, not when it retires.
        """
        self.pc = pc
        ran = ns["n"]
        if timed:
            cycle, stall = ns["cycle"], ns["stall"]
            self.active_cycles += cycle - self.cycle - stall
            self.stall_cycles += stall
            self.cycle = cycle
            self.instructions += ran
        ns["PH"] += ran + inflight - ns["nf"]
        self.sync()
        ns["LIMIT"] -= ran
        ns["done"] += ran
        ns["n"], ns["nf"], ns["stall"] = 0, inflight, 0

    @property
    def block_runs(self):
        """Translated blocks and steps this core has called, ever."""
        return self._runs[0]

    @property
    def shared_accesses(self):
        """Data accesses this core has made through a range port (the
        interconnect, for the shared range), ever."""
        return self._runs[1]

    def retract(self, start, classes):
        """Hide this core's newest instructions — core-private ones that
        started at cycle ``start`` and after, of the logged ``classes`` —
        from its clock and counters, as if they had not run yet; returns
        a callable that puts them back.

        A private instruction's only visible effects are its counts:
        one instruction of its class, an inline I-cache hit fetch, for a
        load or store an inline D-cache hit, and cycles that are all
        active.
        """
        count = len(classes)
        classes = Counter(classes)
        cycles = self.cycle - start
        memctrl = self.memctrl
        mc_counts = memctrl.counters.counts
        ic_counts = memctrl.icache.counters.counts
        loads, stores = classes[CLASS_LOAD], classes[CLASS_STORE]
        shifts = [(self.class_counts, cls, k) for cls, k in classes.items()]
        shifts += [(mc_counts, "fetches", count), (ic_counts, "accesses", count),
                   (ic_counts, _HIT, count)]
        if loads or stores:
            dc_counts = memctrl.dcache.counters.counts
            shifts += [(mc_counts, "loads", loads), (mc_counts, "stores", stores),
                       (dc_counts, "accesses", loads + stores),
                       (dc_counts, _HIT, loads + stores)]

        def shift(sign):
            self.cycle += sign * cycles
            self.active_cycles += sign * cycles
            self.instructions += sign * count
            for counts, key, amount in shifts:
                if amount:
                    counts[key] += sign * amount

        shift(-1)
        return lambda: shift(1)

    def step(self):
        """Execute one instruction (a one-instruction :meth:`run_until`);
        returns the virtual cycles it took, 0 when the core is halted."""
        start = self.cycle
        self.run_until(_FOREVER, _FOREVER, 1)
        return self.cycle - start

    def run(self, max_instructions=None, until_cycle=None):
        """Run until halt / instruction budget / cycle horizon.

        Returns the number of instructions executed in this call.
        """
        return self.run_until(
            _FOREVER, _FOREVER if until_cycle is None else until_cycle,
            max_instructions,
        )

    def execute(self):
        """Execute one instruction *functionally* — registers, memory, pc,
        halt and the ``loads``/``stores`` counters, but no timing and no
        cycle or instruction accounting — for an engine that models the
        timing itself (:mod:`repro.emulation.cycle_accurate`).

        Returns ``(cls, cpi, access)``; ``access`` is the
        ``(addr, is_write)`` data access to time, ``None`` for
        non-memory instructions and MMIO accesses (which take 1 cycle).
        Raises :class:`ExecutionError` on a halted core.
        """
        if self.state != STATE_RUNNING:
            raise ExecutionError(f"{self.name}: execute() on a halted core")
        ns = self._functional_namespace()
        pc = self.pc
        ns["EXEC"](self)  # checks pc
        if ns["DC"]:  # its only pending count: it fetches nothing inline
            self._sync_data(ns)
        ins = self._code[pc]
        return ins.cls, ins.cpi, ns["access"]

    def idle_until(self, cycle):
        """Advance local time in the idle state (halted core, frozen clock)."""
        if cycle > self.cycle:
            self.idle_cycles += cycle - self.cycle
            self.cycle = cycle

    # -- statistics -----------------------------------------------------------
    def stats(self):
        total = self.active_cycles + self.stall_cycles + self.idle_cycles
        busy = self.active_cycles + self.stall_cycles
        return {
            "instructions": self.instructions,
            "cycles": self.cycle,
            "active_cycles": self.active_cycles,
            "stall_cycles": self.stall_cycles,
            "idle_cycles": self.idle_cycles,
            "activity": (self.active_cycles / total) if total else 0.0,
            "class_counts": dict(self.class_counts),
            # CPI over execution cycles only — idle (post-halt / frozen
            # clock) time is not instruction time.
            "cpi": (busy / self.instructions) if self.instructions else 0.0,
        }
