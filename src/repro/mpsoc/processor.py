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
from collections import Counter
from dataclasses import dataclass

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


# -- predecoded programs ---------------------------------------------------------
# ``load_program`` decodes every instruction once into a flat tuple the
# run loop unpacks without attribute or property lookups:
#
#   (op, rd, rs1, rs2, imm, cls, cpi, hit_cycles, fetch_set, fetch_tag)
#
# ``op`` is one of the small ints below, ordered by how often the
# MATRIX and DITHERING kernels execute them (the dispatch chain tests
# them in this order).  Decoding also folds what the encoding leaves to
# execution: ALU and mul/div ops writing ``r0`` become ``_NOP`` (they
# have no other effect), branch immediates become absolute targets,
# shift immediates are masked, ``lui`` becomes a constant load,
# ``jal``/``jalr`` writing ``r0`` become ``j``/``jr``.  ``hit_cycles``
# is the CPI plus the I-cache hit latency (an instruction whose fetch
# hits costs exactly that), ``fetch_set``/``fetch_tag`` locate its
# fetch address in the I-cache.
(
    _ADDI, _ADD, _SLLI, _SRAI, _SUB, _SLTI, _LI, _AND, _ANDI, _OR, _ORI,
    _XOR, _XORI, _SLL, _SRL, _SRLI, _SRA, _SLT, _SLTU, _MUL, _DIV, _REM,
) = range(22)
_ALU_LAST = _REM  # every op up to here writes ``rd``
_BGE, _BLT, _BNE, _BEQ, _BLTU, _BGEU = range(_ALU_LAST + 1, _ALU_LAST + 7)
_LBU, _LW, _LB = range(_BGEU + 1, _BGEU + 4)
_SB, _SW = range(_LB + 1, _LB + 3)
_JAL, _JR, _J, _JALR, _HALT, _NOP = range(_SW + 1, _SW + 7)

_OP_IDS = {
    "addi": _ADDI, "add": _ADD, "slli": _SLLI, "srai": _SRAI, "sub": _SUB,
    "slti": _SLTI, "lui": _LI, "and": _AND, "andi": _ANDI, "or": _OR,
    "ori": _ORI, "xor": _XOR, "xori": _XORI, "sll": _SLL, "srl": _SRL,
    "srli": _SRLI, "sra": _SRA, "slt": _SLT, "sltu": _SLTU, "mul": _MUL,
    "div": _DIV, "rem": _REM, "bge": _BGE, "blt": _BLT, "bne": _BNE,
    "beq": _BEQ, "bltu": _BLTU, "bgeu": _BGEU, "lbu": _LBU, "lw": _LW,
    "lb": _LB, "sb": _SB, "sw": _SW, "jal": _JAL, "jr": _JR, "j": _J,
    "jalr": _JALR, "halt": _HALT, "nop": _NOP,
}

_MASK = isa.WORD_MASK
_SIGN = 0x80000000  # (w ^ _SIGN) orders unsigned words as signed ones

_WORD = struct.Struct("<I")
_unpack_word, _pack_word = _WORD.unpack_from, _WORD.pack_into
_HIT = ev.CACHE_HIT


def _predecode(instr, pc):
    """``(op, rd, rs1, rs2, imm)`` of one decoded instruction at ``pc``."""
    op = _OP_IDS[instr.mnemonic]
    rd, rs1, rs2, imm = instr.rd, instr.rs1, instr.rs2, instr.imm
    if op <= _ALU_LAST and rd == 0:
        op = _NOP  # writes r0 only: no architectural effect
    elif op in (_SLLI, _SRAI, _SRLI):
        imm &= 31
    elif op == _LI:
        imm = (imm & 0xFFFF) << 16
    elif _BGE <= op <= _BGEU:
        imm = pc + 1 + imm
    elif op == _JAL and rd == 0:
        op = _J
    elif op == _JALR and rd == 0:
        op = _JR
    return op, rd, rs1, rs2, imm


def _lru_hit(entries, tag):
    """A hit below the MRU position of a cache set: move the line to MRU
    (as :meth:`repro.mpsoc.cache.Cache.access` does) and return True."""
    for pos in range(len(entries) - 1):
        if entries[pos][0] == tag:
            entries.append(entries.pop(pos))
            return True
    return False


def _no_fetch(addr, t):
    return 0


class Processor(Observable):
    """A timed RISC-32 interpreter bound to one memory controller.

    Registers always hold unsigned 32-bit words (every write is masked),
    which the run loop relies on for its signed comparisons.
    """

    def __init__(self, name, spec, memctrl, frequency_hz=None):
        super().__init__()
        self.name = name
        self.spec = spec
        self.memctrl = memctrl
        self.frequency_hz = frequency_hz or spec.default_hz
        self.counters = CounterBlock(name)
        self.regs = [0] * isa.NUM_REGISTERS
        self.pc = 0
        self.cycle = 0  # local virtual time
        self.state = STATE_HALTED
        self.program = None
        self._code = []  # predecoded instructions (decode once, execute many)
        self._text_base = 0
        self._prepared = None  # run-loop state, built by load_program
        self._functional = None  # the same for execute(), built lazily
        self._access = None  # data access of the last execute()
        # active/stall/idle accounting (virtual cycles)
        self.active_cycles = 0
        self.stall_cycles = 0
        self.idle_cycles = 0
        self.instructions = 0
        self.class_counts = {cls: 0 for cls in isa.INSTRUCTION_CLASSES}

    # -- program loading ----------------------------------------------------
    def load_program(self, program):
        """Bind an assembled program; text/data must already be in memory
        (the platform loader does that) — the core keeps a predecoded copy
        of the text and prepares its run loop once here."""
        self.program = program
        self._text_base = program.text_base
        self.pc = program.entry
        self.regs[:] = [0] * isa.NUM_REGISTERS
        self.state = STATE_RUNNING
        icache = self.memctrl.icache
        cpi = self.spec.cpi
        ihit = icache.hit_latency if icache is not None else 1
        code = []
        for pc, word in enumerate(program.code):
            instr = isa.decode(word)
            cls = instr.cls
            fetch_set = fetch_tag = 0
            if icache is not None:
                line = (program.text_base + 4 * pc) // icache.line_size
                fetch_set = line % icache.num_sets
                fetch_tag = line // icache.num_sets
            code.append((*_predecode(instr, pc), cls, cpi[cls], cpi[cls] + ihit,
                         fetch_set, fetch_tag))
        self._code = code
        self._prepared = self._prepare(timed=True)
        self._functional = None

    def _prepare(self, timed):
        """The per-core state the run loop unpacks in one go.

        Timed: fetches from a cacheable text range hit the I-cache
        inline, and data accesses to the first (private) address range
        hit the D-cache inline; everything else calls the memory
        controller.  Functional (``execute``): no fetch or data timing at
        all — the data port only records the access — and a scratch copy
        of the class counters, since the caller retires the instruction.
        """
        memctrl = self.memctrl
        icache, dcache = memctrl.icache, memctrl.dcache
        ranges = memctrl.ranges
        first = ranges[0] if ranges else None
        # Inline functional access to the first range: a plain memory
        # whose words the range maps one to one.
        inline = (
            first is not None
            and not first.is_mmio
            and isinstance(first.target, Memory)
            and first.base % 4 == 0
            and first.size % 4 == 0
            and first.size <= first.target.config.size
        )
        p_lo, p_hi = (first.base, first.base + first.size) if inline else (0, 0)
        text_cached = False
        if timed and icache is not None and self._code:
            last = self._text_base + 4 * (len(self._code) - 1)
            try:
                text = memctrl.decode(self._text_base)
            except AccessFault:
                text = None
            text_cached = text is not None and text.cacheable and text.contains(last)
        d_cached = timed and inline and first.cacheable and dcache is not None
        if not timed:
            private_port = self._record_access
        elif inline:
            private_port = memctrl.decode_port(first.base)[1]
        else:
            private_port = None
        return (
            self._code,
            self.regs,
            self.class_counts if timed else dict(self.class_counts),
            memctrl.counters.counts,
            memctrl.fetch_timing if timed else _no_fetch,
            private_port,
            memctrl.decode_port if timed else self._decode_recorded,
            text_cached,
            icache._sets if text_cached else None,
            icache._event_hooks if text_cached else None,
            icache.counters.counts if text_cached else None,
            icache.hit_latency if icache is not None else 1,
            d_cached,
            dcache._sets if d_cached else None,
            dcache._event_hooks if d_cached else None,
            dcache.counters.counts if d_cached else None,
            dcache.hit_latency if dcache is not None else 1,
            dcache.line_size if d_cached else 1,
            dcache.num_sets if d_cached else 1,
            d_cached and dcache.config.write_policy == WRITE_BACK,
            p_lo,
            p_hi,
            first.target.data if inline else None,
        )

    def _record_access(self, addr, is_write, t):
        """The functional data port: remember the access, charge nothing."""
        self._access = (addr, is_write)
        return 0

    def _decode_recorded(self, addr):
        """``MemoryController.decode_port`` with the functional port."""
        return self.memctrl.decode(addr), self._record_access

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
                  classes=None, on_mmio_read=None, timed=True):
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

        This is the one interpreter: :meth:`step`, :meth:`run` and the
        engine are batches of it.  Fetch goes through the I-cache path
        of the memory controller, loads/stores through the D-side.
        Cycle split: CPI + cache hit latencies count as *active*,
        anything beyond (miss refills, bus waits) as *stall*.

        Fast paths: an I-cache hit on the text and a D-cache hit on the
        private range are resolved inline, and the counters they bump
        (``fetches``/``loads``/``stores``, cache ``accesses`` and hits)
        are kept in locals.  Misses, an attached cache event hook and
        every other range fall back to the memory controller.  The
        locals are written back when the batch ends (also on a fault)
        and before any MMIO access, since sniffer registers read live
        counters.

        ``starts``/``classes``: lists that get the start cycle and the
        class of every executed instruction.  ``on_mmio_read(core)``:
        called just before an MMIO read, with the core's clock at the
        read's start; it returns a callable to call once the read is done.
        ``timed=False`` is the functional mode :meth:`execute` uses.
        """
        if self.state != STATE_RUNNING or budget is not None and budget <= 0:
            return 0
        (
            code, regs, cc, mc_counts, fetch_timing, private_port, decode,
            ifast, isets, ihooks, ic_counts, ihit,
            dfast, dsets, dhooks, dc_counts, dhit, dls, dns, dwb,
            p_lo, p_hi, pdata,
        ) = self._prepared if timed else self._functional
        # An event-logging sniffer on a cache needs one event per access:
        # the memory controller's path emits them.
        if ifast and ihooks:
            ifast = False
        if dfast and dhooks:
            dfast = dwb = False
        logged = starts is not None
        if logged:
            log_start, log_class = starts.append, classes.append
        ncode = len(code)
        text_base = self._text_base
        pc = self.pc
        cycle = cycle0 = self.cycle
        limit = -1 if budget is None else budget
        n = synced = act = ih = dh = nld = nst = 0
        try:
            while cycle < until_cycle:
                if not 0 <= pc < ncode:
                    raise ExecutionError(
                        f"{self.name}: pc {pc} outside text ({ncode} instrs)"
                    )
                op, rd, rs1, rs2, imm, cls, cpi, hc, fset, ftag = code[pc]
                # ``dc``/``da``: this instruction's cycles and active
                # cycles, added to the clock once it completes (a fault or
                # an MMIO access sees the state before it, as in hardware).
                if ifast and (
                    (entries := isets[fset]) and entries[-1][0] == ftag
                    or _lru_hit(entries, ftag)
                ):
                    ih += 1
                    dc = da = hc
                elif cycle > horizon:
                    break  # a fetch miss past the horizon
                else:
                    lat = fetch_timing(text_base + 4 * pc, cycle)
                    dc = lat + cpi
                    da = (lat if lat < ihit else ihit) + cpi
                # A data access past the horizon that is no private hit
                # stops the batch before the instruction: its fetch (an
                # inline hit, which left the tags as they will be when
                # it runs) is taken back.
                if op <= _ALU_LAST:
                    a = regs[rs1]
                    if op == _ADDI:
                        value = a + imm
                    elif op == _ADD:
                        value = a + regs[rs2]
                    elif op == _SLLI:
                        value = a << imm
                    elif op == _SRAI:
                        value = ((a ^ _SIGN) - _SIGN) >> imm
                    elif op == _SUB:
                        value = a - regs[rs2]
                    elif op == _SLTI:
                        value = 1 if (a ^ _SIGN) - _SIGN < imm else 0
                    elif op == _LI:
                        value = imm
                    elif op == _AND:
                        value = a & regs[rs2]
                    elif op == _ANDI:
                        value = a & imm
                    elif op == _OR:
                        value = a | regs[rs2]
                    elif op == _ORI:
                        value = a | imm
                    elif op == _XOR:
                        value = a ^ regs[rs2]
                    elif op == _XORI:
                        value = a ^ imm
                    elif op == _SLL:
                        value = a << (regs[rs2] & 31)
                    elif op == _SRL:
                        value = a >> (regs[rs2] & 31)
                    elif op == _SRLI:
                        value = a >> imm
                    elif op == _SRA:
                        value = ((a ^ _SIGN) - _SIGN) >> (regs[rs2] & 31)
                    elif op == _SLT:
                        value = 1 if (a ^ _SIGN) < (regs[rs2] ^ _SIGN) else 0
                    elif op == _SLTU:
                        value = 1 if a < regs[rs2] else 0
                    else:
                        a = (a ^ _SIGN) - _SIGN
                        b = (regs[rs2] ^ _SIGN) - _SIGN
                        if op == _MUL:
                            value = a * b
                        elif op == _DIV:
                            # C-style truncation toward zero; x / 0 == -1.
                            value = int(a / b) if b else -1
                        else:
                            value = a - int(a / b) * b if b else a
                    regs[rd] = value & _MASK
                    pc += 1
                elif op <= _BGEU:
                    a = regs[rs1]
                    b = regs[rs2]
                    if op == _BGE:
                        taken = (a ^ _SIGN) >= (b ^ _SIGN)
                    elif op == _BLT:
                        taken = (a ^ _SIGN) < (b ^ _SIGN)
                    elif op == _BNE:
                        taken = a != b
                    elif op == _BEQ:
                        taken = a == b
                    elif op == _BLTU:
                        taken = a < b
                    else:
                        taken = a >= b
                    pc = imm if taken else pc + 1
                elif op <= _LB:
                    addr = (regs[rs1] + imm) & _MASK
                    if op == _LW and addr & 3:
                        raise ExecutionError(
                            f"{self.name}: misaligned lw at 0x{addr:08x}"
                        )
                    t = cycle + dc - cpi + 1
                    if p_lo <= addr < p_hi:
                        hit = False
                        if dfast:
                            line = addr // dls
                            entries = dsets[line % dns]
                            tag = line // dns
                            hit = (entries and entries[-1][0] == tag
                                   or _lru_hit(entries, tag))
                        if hit:
                            dh += 1
                            lat = dhit
                        elif cycle > horizon:
                            ih -= 1
                            break
                        else:
                            lat = private_port(addr, False, t)
                        nld += 1
                        off = addr - p_lo
                        value = _unpack_word(pdata, off)[0] if op == _LW else pdata[off]
                    elif cycle > horizon:
                        ih -= 1
                        break
                    else:
                        rng, port = decode(addr)
                        off = addr - rng.base
                        if rng.is_mmio:
                            self._sync(pc, cycle, cycle0, act, n - synced,
                                       ih, dh, nld, nst, timed)
                            cycle0, synced = cycle, n
                            act = ih = dh = nld = nst = 0
                            mc_counts["loads"] = mc_counts.get("loads", 0) + 1
                            if on_mmio_read is None:
                                value = rng.target.mmio_read(off)
                            else:
                                restore = on_mmio_read(self)
                                try:
                                    value = rng.target.mmio_read(off)
                                finally:
                                    restore()
                            lat = 1
                        else:
                            nld += 1
                            target = rng.target
                            value = (target.read_word(off) if op == _LW
                                     else target.read_byte(off))
                            lat = port(addr, False, t)
                    if op == _LB:
                        value = ((value & 0xFF) ^ 0x80) - 0x80
                    if rd:
                        regs[rd] = value & _MASK
                    dc += lat
                    da += lat if lat < dhit else dhit
                    pc += 1
                elif op <= _SW:
                    addr = (regs[rs1] + imm) & _MASK
                    if op == _SW and addr & 3:
                        raise ExecutionError(
                            f"{self.name}: misaligned sw at 0x{addr:08x}"
                        )
                    value = regs[rd]
                    t = cycle + dc - cpi + 1
                    if p_lo <= addr < p_hi:
                        hit = False
                        if dwb:  # a write-back hit only dirties the line
                            line = addr // dls
                            entries = dsets[line % dns]
                            tag = line // dns
                            hit = (entries and entries[-1][0] == tag
                                   or _lru_hit(entries, tag))
                        if hit:
                            entries[-1][1] = True
                            dh += 1
                            lat = dhit
                        elif cycle > horizon:
                            ih -= 1
                            break
                        else:
                            lat = private_port(addr, True, t)
                        nst += 1
                        off = addr - p_lo
                        if op == _SW:
                            _pack_word(pdata, off, value)
                        else:
                            pdata[off] = value & 0xFF
                    elif cycle > horizon:
                        ih -= 1
                        break
                    else:
                        rng, port = decode(addr)
                        off = addr - rng.base
                        if rng.is_mmio:
                            self._sync(pc, cycle, cycle0, act, n - synced,
                                       ih, dh, nld, nst, timed)
                            cycle0, synced = cycle, n
                            act = ih = dh = nld = nst = 0
                            mc_counts["stores"] = mc_counts.get("stores", 0) + 1
                            rng.target.mmio_write(off, value)
                            lat = 1
                        else:
                            nst += 1
                            if op == _SW:
                                rng.target.write_word(off, value)
                            else:
                                rng.target.write_byte(off, value)
                            lat = port(addr, True, t)
                    dc += lat
                    da += lat if lat < dhit else dhit
                    pc += 1
                elif op == _JAL:
                    regs[rd] = pc + 1
                    pc = imm
                elif op == _JR:
                    pc = regs[rs1]
                elif op == _J:
                    pc = imm
                elif op == _JALR:
                    target_pc = regs[rs1]
                    regs[rd] = pc + 1
                    pc = target_pc
                else:
                    if op == _HALT:
                        self.state = STATE_HALTED
                        limit = n + 1
                    pc += 1
                if logged:
                    log_start(cycle)
                    log_class(cls)
                cycle += dc
                act += da
                cc[cls] += 1
                n += 1
                if n == limit:
                    break
        finally:
            # ``_sync`` inline: this runs once per batch.
            self.pc = pc
            if timed:
                self.cycle = cycle
                self.active_cycles += act
                self.stall_cycles += cycle - cycle0 - act
                self.instructions += n - synced
            if ih:
                mc_counts["fetches"] = mc_counts.get("fetches", 0) + ih
                ic_counts["accesses"] = ic_counts.get("accesses", 0) + ih
                ic_counts[_HIT] = ic_counts.get(_HIT, 0) + ih
            if dh:
                dc_counts["accesses"] = dc_counts.get("accesses", 0) + dh
                dc_counts[_HIT] = dc_counts.get(_HIT, 0) + dh
            if nld:
                mc_counts["loads"] = mc_counts.get("loads", 0) + nld
            if nst:
                mc_counts["stores"] = mc_counts.get("stores", 0) + nst
        return n

    def _sync(self, pc, cycle, cycle0, active, executed, fetch_hits,
              dcache_hits, loads, stores, timed):
        """Write the run loop's locals back: the clock, the accounting
        since ``cycle0`` and the counters the fast paths deferred."""
        self.pc = pc
        if timed:
            self.cycle = cycle
            self.active_cycles += active
            self.stall_cycles += cycle - cycle0 - active
            self.instructions += executed
        memctrl = self.memctrl
        if fetch_hits:
            memctrl.counters.add("fetches", fetch_hits)
            memctrl.icache.counters.add("accesses", fetch_hits)
            memctrl.icache.counters.add(ev.CACHE_HIT, fetch_hits)
        if dcache_hits:
            memctrl.dcache.counters.add("accesses", dcache_hits)
            memctrl.dcache.counters.add(ev.CACHE_HIT, dcache_hits)
        if loads:
            memctrl.counters.add("loads", loads)
        if stores:
            memctrl.counters.add("stores", stores)

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
        """
        if self._functional is None:
            self._functional = self._prepare(timed=False)
        self._access = None
        pc = self.pc
        self.run_until(_FOREVER, _FOREVER, 1, timed=False)  # checks pc
        cls, cpi = self._code[pc][5:7]
        return cls, cpi, self._access

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
