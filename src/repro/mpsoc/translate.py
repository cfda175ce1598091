"""RISC-32 programs translated into Python basic blocks.

A loaded program is split into blocks and each block becomes one
generated Python function, so a core runs its code with no opcode
dispatch: the translation is the only implementation of the instruction
set, and :mod:`repro.mpsoc.processor` drives it.

**Blocks.**  A block is entered at any pc and runs the straight-line code
from there up to a branch, jump or ``halt``, or to the next branch or
jump target (:meth:`Translator.trace`; at most :data:`MAX_BLOCK`
instructions).  Memory accesses do not end a block.  A ``jr``/``jalr``
return, or a batch that stopped inside a block, enters a block from
there.

**Blocks and steps.**  ``b<pc>`` is a block's fast path.  It runs when

* the instruction budget and the window leave room for its first part,
* and every I-cache line it covers is the MRU line of its set (one check
  per line, at entry — only a core's own fetches touch its I-cache).

Its registers live in locals and only the ones it writes are stored
back; the class, instruction and fetch-hit counts are added once, and
the start cycles and classes of its instructions go to the engine's
logs in one call each.  A load or store runs inline when it hits the
D-cache on the private range, or when it reaches a plain memory through
a port (the shared memory) at or before the horizon; after it the block
leaves if its next part would start at or after the window's end.  Any
other access, and a block whose entry checks fail, runs as *steps*
(``s<pc>``, one function per instruction, each checking the budget, the
window and its own fetch; :func:`SLOW`).  Steps are the whole program
when the fast path is off: no I-cache on the text, an event hook on a
cache, or the functional mode of
:meth:`~repro.mpsoc.processor.Processor.execute`.  A step is an
instance of its mnemonic's precompiled code (:data:`STEP_CODE`) with the
instruction's fields as defaults; a block is compiled from generated
source, after it ran :data:`COLD` times as steps, into the code cache the
cores of one platform share.  Each namespace runs its own copy of every
code object (:func:`repro.util.codegen.fresh`).

Every function returns the pc to continue at, or ``~pc`` to stop
*before* the instruction at ``pc``.

**State.**  A translated program runs in one namespace per core and
mode (timed or functional), built by the processor.  Its globals are the
core's state by reference — ``R`` (registers), the cache tag arrays, the
private memory's bytes — the run's parameters ``H`` (horizon), ``U``
(until cycle), ``LIMIT`` (budget) and ``LS``/``LC`` (start/class logs or
None), and its accumulators: ``cycle``, ``n`` (instructions), ``nf``
(fetches that were not inline hits) and ``stall``, written back by
:func:`RUN` when the batch ends (:func:`EXEC`, in the functional mode,
runs one step with no parameters to set), and counts that wait until
they are read: ``PH`` (inline fetch hits) and ``DC`` (data accesses) for
:meth:`~repro.mpsoc.processor.Processor.sync`, ``KC`` (class counts)
for ``Processor.class_counts``; the last two are packed in one integer
each, so a block adds them in one step.
"""

from types import CodeType, FunctionType

from repro.mpsoc import isa
from repro.mpsoc.isa import CLASS_LOAD, CLASS_STORE
from repro.util.codegen import fresh

MAX_BLOCK = 32  # instructions per block, bounding one compile
# Runs of a block as steps, over all cores sharing its code, before it
# is compiled.  Most entries (cold misses, window ends) never run more
# often: on emu_dither 34 of a platform's 54 entries run fewer than 32
# times, 0.09 % of its block runs; on matrix_quickstart 29 of 38.
# Compiling every entry on its first run made short runs (20 us windows
# of matrix_quickstart, dithering_noc) 1.3-1.4x slower; 8 or 128 runs
# measured the same as 32.
COLD = 32

# Class counts accumulate packed in one int, ``KC``: class ``i`` of
# INSTRUCTION_CLASSES counts in bits 64*i and up (one add per block).
CLASS_BITS = {cls: 1 << 64 * i for i, cls in enumerate(isa.INSTRUCTION_CLASSES)}
_FIELD = (1 << 64) - 1


# Data-access counts accumulate packed in ``DC`` the same way: loads,
# stores, inline D-cache hits and accesses through a range port.
LOADS, STORES, HITS, PORTS = (1 << 64 * i for i in range(4))


def unpack_data(packed):
    """``(loads, stores, D-cache hits, port accesses)`` of a packed ``DC``."""
    return (packed & _FIELD, packed >> 64 & _FIELD, packed >> 128 & _FIELD,
            packed >> 192)


def unpack_classes(packed):
    """``(class, count)`` of every nonzero count in a packed ``KC``."""
    for cls in isa.INSTRUCTION_CLASSES:
        if packed & _FIELD:
            yield cls, packed & _FIELD
        packed >>= 64


_M = "0xFFFFFFFF"
_S = "0x80000000"

# The value each ALU mnemonic writes to ``rd`` — an unsigned word — from
# operands ``{a}`` (rs1), ``{b}`` (rs2) and the predecoded immediate ``{i}``.
_ALU = {
    "addi": "({a} + {i}) & " + _M,
    "add": "({a} + {b}) & " + _M,
    "sub": "({a} - {b}) & " + _M,
    "slli": "({a} << {i}) & " + _M,
    "srai": f"((({{a}} ^ {_S}) - {_S}) >> {{i}}) & {_M}",
    "slti": f"1 if ({{a}} ^ {_S}) - {_S} < {{i}} else 0",
    "lui": "{i}",
    "and": "{a} & {b}",
    "andi": "{a} & {i}",
    "or": "{a} | {b}",
    "ori": "{a} | {i}",
    "xor": "{a} ^ {b}",
    "xori": "{a} ^ {i}",
    "sll": "({a} << ({b} & 31)) & " + _M,
    "srl": "{a} >> ({b} & 31)",
    "srli": "{a} >> {i}",
    "sra": f"((({{a}} ^ {_S}) - {_S}) >> ({{b}} & 31)) & {_M}",
    "slt": f"1 if ({{a}} ^ {_S}) < ({{b}} ^ {_S}) else 0",
    "sltu": "1 if {a} < {b} else 0",
    "mul": "({a} * {b}) & " + _M,
    "div": "DIV({a}, {b})",
    "rem": "REM({a}, {b})",
}

# When each branch is taken.
_BRANCH = {
    "beq": "{a} == {b}",
    "bne": "{a} != {b}",
    "blt": f"({{a}} ^ {_S}) < ({{b}} ^ {_S})",
    "bge": f"({{a}} ^ {_S}) >= ({{b}} ^ {_S})",
    "bltu": "{a} < {b}",
    "bgeu": "{a} >= {b}",
}

# Access kinds :func:`LOAD` and :func:`STORE` take.
_LOADS = {"lw": 0, "lbu": 1, "lb": 2}
_STORES = {"sw": 0, "sb": 1}

_JUMPS = ("j", "jal", "jr", "jalr")


class Instr:
    """One predecoded instruction.

    Decoding folds what the encoding leaves to execution: ALU ops
    writing ``r0`` become ``nop`` (they have no other effect; the class
    and CPI stay), shift immediates are masked, ``lui`` becomes its
    constant, branch offsets become absolute targets and ``jal``/``jalr``
    writing ``r0`` become ``j``/``jr``.  ``hc`` is the cycles the
    instruction takes when its fetch hits the I-cache inline (CPI plus
    the hit latency); ``line`` is the ``(set, tag)`` of its fetch
    address, None without an I-cache.
    """

    __slots__ = ("op", "rd", "rs1", "rs2", "imm", "cls", "cpi", "hc", "line")

    def __init__(self, word, pc, cpi_table, ihit, line):
        instr = isa.decode(word)
        op, rd, imm = instr.mnemonic, instr.rd, instr.imm
        if op in _ALU and rd == 0:
            op = "nop"
        elif op in ("slli", "srai", "srli"):
            imm &= 31
        elif op == "lui":
            imm = (imm & 0xFFFF) << 16
        elif op in _BRANCH:
            imm = pc + 1 + imm
        elif op in ("jal", "jalr") and rd == 0:
            op = "jr" if op == "jalr" else "j"
        self.op, self.rd, self.imm = op, rd, imm
        self.rs1, self.rs2 = instr.rs1, instr.rs2
        self.cls = instr.cls
        self.cpi = cpi_table[self.cls]
        self.hc = self.cpi + ihit
        self.line = line

    @property
    def ends_block(self):
        op = self.op
        return op in _BRANCH or op in _JUMPS or op == "halt"

    @property
    def is_memory(self):
        return self.op in _LOADS or self.op in _STORES


class Translator:
    """Generates and compiles the functions of one loaded program.

    ``ihit``/``dhit``: the I- and D-cache hit latencies.  ``private``:
    ``(lo, hi, line_size, num_sets, write_back)`` of the private range
    whose D-cache hits blocks resolve inline, or None.  ``ports``: ``(lo,
    hi, single)`` of each range blocks access inline through its port —
    range ``i``'s bytes and port are the namespace's ``SD<i>`` and
    ``SP<i>``, and with ``single`` the port's one-word read and write
    ``SR<i>``/``SW<i>`` (see :meth:`repro.mpsoc.noc.Noc.port`).
    ``code_cache`` maps a block's key — its pcs, instruction words and
    ``context`` (everything else its source depends on) — to ``[runs as
    steps, code object or None]``, so cores running the same code share
    its warm-up and its compile.
    """

    def __init__(self, words, code, ihit, dhit, private, ports,
                 context, code_cache):
        self.words = words
        self.code = code
        self.ncode = len(code)
        self.ihit = ihit
        self.dhit = dhit
        self.private = private
        self.ports = ports
        self.context = (ihit, dhit, private, tuple(ports), context)
        self.code_cache = code_cache
        self.traces = {}  # block entry -> its pcs
        self.targets = {ins.imm for ins in code
                        if ins.op in _BRANCH or ins.op in ("j", "jal")}
        self.entries = {}  # block entry -> its code cache entry

    def function(self, namespace, name, pc):
        """The function ``name`` (``b`` block or ``s`` step) at ``pc``,
        defined in ``namespace``; None for a block that has not yet run
        :data:`COLD` times, over all the cores sharing the code cache
        (it runs as steps until then)."""
        if name == "s":
            ins = self.code[pc]
            fields = (pc, ins.rd, ins.rs1, ins.rs2, ins.imm, ins.cls,
                      CLASS_BITS[ins.cls], ins.cpi, *(ins.line or (0, 0)))
            # One copy of each mnemonic's code per namespace (see fresh):
            # steps are the whole program where the fast path is off.
            codes = namespace["STEP_CODE"]
            code = codes.get(ins.op)
            if code is None:
                code = codes[ins.op] = fresh(STEP_CODE[ins.op])
            return FunctionType(code, namespace, f"s{pc}", fields)
        entry = self.entries.get(pc) or self._entry(pc)
        if entry[1] is None:
            if entry[0] < COLD:
                entry[0] += 1
                return None
            module = compile(self.block_source(pc), f"<risc32 b{pc}>", "exec")
            entry[1] = next(
                const for const in module.co_consts if isinstance(const, CodeType)
            )
        return FunctionType(fresh(entry[1]), namespace)

    def _entry(self, pc):
        """The code cache entry ``[runs as steps, code or None]`` of the
        block at ``pc``, keyed by its trace, words and everything else
        its source depends on."""
        pcs = self.trace(pc)
        # The text's length matters only to a static successor past it.
        after = [pcs[-1] + 1] + [self.code[p].imm for p in pcs
                                 if self.code[p].op in _BRANCH
                                 or self.code[p].op in ("j", "jal")]
        key = (pcs, tuple(self.words[p] for p in pcs), self.context,
               self.ncode if max(after) >= self.ncode else None)
        entry = self.entries[pc] = self.code_cache.setdefault(key, [0, None])
        return entry

    # -- shared pieces -----------------------------------------------------------
    def _target(self, pc):
        """A static successor, routed to ``BAD`` when outside the text."""
        return str(pc) if 0 <= pc < self.ncode else f"BAD({pc})"

    def _dynamic(self, reg):
        """A register-held successor (a ``jr``/``jalr`` target)."""
        return f"{reg} if {reg} < NCODE else BAD({reg})"

    def _tail(self, ins, pc, reg):
        """Source lines of a block's final branch, ``jr`` or ``halt`` and
        the return of its successor; ``reg(r)`` spells a register read."""
        if ins.op in _BRANCH:
            cond = _BRANCH[ins.op].format(a=reg(ins.rs1), b=reg(ins.rs2))
            return [f"if {cond}:", f"    return {self._target(ins.imm)}",
                    f"return {self._target(pc + 1)}"]
        if ins.op == "jr":
            return [f"t = {reg(ins.rs1)}", f"return {self._dynamic('t')}"]
        return ["global halted", "halted = True", f"return ~{pc + 1}"]

    # -- blocks --------------------------------------------------------------------
    def trace(self, start):
        """The pcs of the block entered at ``start``: straight-line code
        up to a branch, jump or halt, or to the next branch or jump
        target (which starts a block of its own: code reached both ways
        is translated once), at most :data:`MAX_BLOCK` of them."""
        pcs = self.traces.get(start)
        if pcs is None:
            end = start
            while end < self.ncode and end - start < MAX_BLOCK:
                end += 1
                if self.code[end - 1].ends_block or end in self.targets:
                    break
            pcs = self.traces[start] = tuple(range(start, end))
        return pcs

    def block_source(self, start):
        trace = self.trace(start)
        body = [self.code[pc] for pc in trace]
        last = body[-1]
        after = last.imm if last.op in ("j", "jal") else trace[-1] + 1
        # Cycles from the block's start (or its last memory access's
        # end) to the start of its first memory access (or last
        # instruction): the fast path needs that one to start before U.
        first = next((k for k, ins in enumerate(body) if ins.is_memory),
                     len(body) - 1)
        mru = " and ".join(
            f"(e := ISETS[{s}]) and e[-1][0] == {tag}"
            for s, tag in sorted(set(ins.line for ins in body))
        )
        head = [
            f"def b{start}():",
            "    global cycle, n, stall, KC, DC",
            "    c = cycle",
            f"    if n > LIMIT - {len(body)} or "
            f"c >= {_minus('U', sum(ins.hc for ins in body[:first]))} or not ({mru}):",
            f"        return SLOW({trace!r})",
        ]
        writer = _BlockWriter(self)
        for k, (pc, ins) in enumerate(zip(trace, body)):
            if writer.closed:
                break
            writer.add(pc, ins, body[k + 1:])
        return "\n".join(head + writer.finish(after)) + "\n"


class _BlockWriter:
    """Writes a block's fast path one instruction at a time.

    Registers live in locals (``r<k>``): ``local`` ones are read from
    ``R`` where first read, ``written`` ones are stored back before each
    memory access (so an exit there has nothing to store) and at the
    block's end.  Clocks are ``base + offset``: ``base`` is ``c`` (the
    block's start cycle) until a memory access, whose latency starts a
    new base ``c<k>``.
    """

    def __init__(self, translator):
        self.t = translator
        self.local, self.written, self.lines = set(), [], []
        self.base, self.offset = "c", 0
        self.starts, self.classes = [], []  # of the instructions so far
        self.tail = None  # the lines of a final branch, jump or halt
        self.closed = False  # the block always leaves at an access

    def reg(self, r):
        if r == 0:
            return "0"
        if r not in self.local:
            # Loaded where first read: a block that leaves early at a
            # memory access skips the loads after it.
            self.local.add(r)
            self.lines.append(f"    r{r} = R[{r}]")
        return f"r{r}"

    def write(self, r, value):
        self.lines.append(f"    r{r} = {value}")
        self.local.add(r)
        if r not in self.written:
            self.written.append(r)

    def clock(self, offset=0):
        offset += self.offset
        return f"{self.base} + {offset}" if offset else self.base

    def retired(self, cycle, leave=False):
        """Lines writing back the registers and retiring the
        instructions so far, the clock set to ``cycle``; ``leave``: in
        one :func:`LEAVE` call (an early exit, compiled more often than
        run)."""
        lines = [f"R[{r}] = r{r}" for r in self.written]
        if self.starts and leave:
            lines.append(
                f"LEAVE(({', '.join(self.starts)},), {tuple(self.classes)!r}, "
                f"{sum(CLASS_BITS[cls] for cls in self.classes):#x}, "
                f"{len(self.starts)}, {cycle})")
        elif self.starts:
            if len(self.starts) == 1:
                log = [f"LS.append({self.starts[0]})",
                       f"LC.append({self.classes[0]!r})"]
            else:
                log = [f"LS.extend(({', '.join(self.starts)}))",
                       f"LC.extend({tuple(self.classes)!r})"]
            lines += ["if LS is not None:", *_indent(log)]
            lines += [f"KC += {sum(CLASS_BITS[cls] for cls in self.classes):#x}",
                      f"n += {len(self.starts)}", f"cycle = {cycle}"]
        return lines

    def _executed(self, ins):
        self.starts.append(self.clock())
        self.classes.append(ins.cls)

    def add(self, pc, ins, rest):
        t, op = self.t, ins.op
        if ins.is_memory:
            self._access(pc, ins, rest)
            return
        if op in _ALU:
            self.write(ins.rd, _ALU[op].format(
                a=self.reg(ins.rs1), b=self.reg(ins.rs2), i=ins.imm))
        elif op == "jal":  # the block goes on at its target
            self.write(ins.rd, str(pc + 1))
        elif op == "jalr":
            self.lines.append(f"    t = {self.reg(ins.rs1)}")
            self.write(ins.rd, str(pc + 1))
            self.tail = [f"return {t._dynamic('t')}"]
        elif op not in ("nop", "j"):
            self.tail = t._tail(ins, pc, self.reg)
        self._executed(ins)
        self.offset += ins.hc

    def _access(self, pc, ins, rest):
        """A load or store: a private D-cache hit, or a word-aligned
        access to a range behind a port (the shared memory) not past
        the horizon, runs inline.  Anything else leaves the block
        before it: it stops there past the horizon, else its step runs
        it (a miss, MMIO, a fault) — once the instructions before it
        retired.  After it, the block leaves when its next memory access
        (or last instruction) would start at or after U."""
        t = self.t
        load = ins.op in _LOADS
        dest = f"r{ins.rd}" if load and ins.rd else None
        value = None if load else self.reg(ins.rd)
        aligned = " and not a & 3" if ins.op in ("lw", "sw") else ""
        kind = LOADS if load else STORES
        start = self.clock()
        lines = [f"    a = ({self.reg(ins.rs1)} + {ins.imm}) & {_M}"]
        self.lines += [f"    R[{r}] = r{r}" for r in self.written]
        self.written = []
        keyword = "if"
        if t.private is not None and (load or t.private[4]):
            lo, hi, line_size, num_sets, _ = t.private
            line = _div("a", line_size)
            tag = _div("l", num_sets)
            cond = " and ".join([
                f"a < {hi}" if lo == 0 else f"{lo} <= a < {hi}",
                *(["not a & 3"] if aligned else []),
                "not DHOOKS",
                f"((e := DSETS[{_mod('(l := ' + line + ')', num_sets)}]) and "
                f"e[-1][0] == {tag} or LRU(e, {tag}))",
            ])
            off = "a" if lo == 0 else f"a - {lo}"
            lines.append(f"    if {cond}:")
            if not load:
                lines.append("        e[-1][1] = True")
            lines += [
                "        " + _data(ins.op, "PDATA", off, dest, value),
                f"        DC += {kind | HITS:#x}",
                f"        lat = {t.dhit}",
            ]
            keyword = "elif"
        for index, (lo, hi, single) in enumerate(t.ports):
            at = self.clock(t.ihit + 1)
            call = (f"{'SR' if load else 'SW'}{index}(a, {at})" if single
                    else f"SP{index}(a, {not load}, {at})")
            lines += [
                f"    {keyword} {lo} <= a < {hi} and {start} <= H{aligned}:",
                "        " + _data(ins.op, f"SD{index}", f"a - {lo}", dest, value),
                f"        lat = {call}",
                f"        DC += {kind | PORTS:#x}",
                # A port takes a cycle at least.
                "        stall += lat - 1" if t.dhit == 1 else
                f"        stall += lat - (lat if lat < {t.dhit} else {t.dhit})",
            ]
            keyword = "elif"
        exit_ = self.retired(start, leave=True) + [
            f"return ~{pc} if {start} > H{aligned} else STEPS[{pc}]()"
        ]
        if keyword == "if":  # no inline path at all
            self.lines += lines[:1] + _indent(exit_)
            self.closed = True
            return
        self.lines += lines + ["    else:"] + _indent(_indent(exit_))
        if dest:
            self.local.add(ins.rd)
            self.written.append(ins.rd)
        self._executed(ins)
        new_base = f"c{len(self.starts)}"
        self.lines.append(f"    {new_base} = {self.clock(ins.hc)} + lat")
        self.base, self.offset = new_base, 0
        upto = next((k for k, later in enumerate(rest) if later.is_memory),
                    len(rest) - 1)
        if rest:
            span = sum(later.hc for later in rest[:upto])
            self.lines += [f"    if {self.clock()} >= {_minus('U', span)}:"]
            self.lines += _indent(_indent(
                self.retired(self.clock(), leave=True)
                + [f"return {t._target(pc + 1)}"]))

    def finish(self, after):
        """The block's lines: its body and its end (``after`` follows an
        instruction that is no branch or indirect jump)."""
        lines = self.lines
        if self.closed:
            return lines
        tail = self.tail if self.tail is not None else [
            f"return {self.t._target(after)}"]
        return lines + _indent(self.retired(self.clock()) + tail)


def _minus(name, k):
    return f"{name} - {k}" if k else name


def _indent(lines):
    return ["    " + line for line in lines]


def _data(op, buf, off, dest, value):
    """The line reading (into ``dest``, if any) or writing ``value`` of
    one access to the bytes ``buf`` at offset ``off``."""
    if op == "lw":
        read = f"UNPACK({buf}, {off})[0]"
    elif op == "lbu":
        read = f"{buf}[{off}]"
    elif op == "lb":
        read = f"(({buf}[{off}] ^ 0x80) - 0x80) & {_M}"
    elif op == "sw":
        return f"PACK({buf}, {off}, {value})"
    else:
        return f"{buf}[{off}] = {value} & 0xFF"
    return f"{dest} = {read}" if dest else "pass"


def _div(expr, by):
    shift = by.bit_length() - 1
    return f"{expr} >> {shift}" if by == 1 << shift else f"{expr} // {by}"


def _mod(expr, by):
    return f"{expr} & {by - 1}" if by & (by - 1) == 0 else f"{expr} % {by}"


def _step_source(op):
    """The step of every instruction ``op``: one instruction, every check
    on its own — the budget, the window and its fetch (an inline I-cache
    hit on set ``s``, tag ``g``, or the memory controller's
    ``fetch_timing`` unless the core is past its horizon) — then its
    effect and accounting (:func:`LOAD`/:func:`STORE` for a memory
    access, which may fault after the fetch).  The instruction's fields
    are its defaults."""
    lines = [
        f"def step_{op}(p=0, d=0, a=0, b=0, i=0, cls='', bit=0, cpi=0, s=0, g=0):",
        "    global cycle, n, nf, stall, KC, at",
        "    c = cycle",
        "    if n >= LIMIT or c >= U:",
        "        return ~p",
        "    if ITEXT and not IHOOKS and ((e := ISETS[s]) and e[-1][0] == g or LRU(e, g)):",
        "        f = IHIT",
        "    elif c > H:",
        "        return ~p",
        "    else:",
        "        at = p",
        "        f = FETCH(TEXT + 4 * p, c)",
        "        nf += 1",
    ]
    if op not in _LOADS and op not in _STORES:
        # A memory access adds its fetch's stall when it retires.
        lines.append("        stall += f - (f if f < IHIT else IHIT)")
    after = "return p + 1 if p + 1 < NCODE else BAD(p + 1)"
    target = "return i if 0 <= i < NCODE else BAD(i)"
    address = f"(R[a] + i) & {_M}"
    if op in _LOADS:
        body = [f"v = LOAD(p, {address}, f, {_LOADS[op]})", "if v < 0:",
                "    return ~p", "if d:", "    R[d] = v", after]
    elif op in _STORES:
        body = [f"if STORE(p, {address}, R[d], f, {_STORES[op]}):",
                "    return ~p", after]
    else:
        body = ["if LS is not None:", "    LS.append(c)", "    LC.append(cls)",
                "KC += bit", "n += 1", "cycle = c + f + cpi"]
        if op in _ALU:
            body += [f"R[d] = {_ALU[op].format(a='R[a]', b='R[b]', i='i')}", after]
        elif op in _BRANCH:
            body += [f"if {_BRANCH[op].format(a='R[a]', b='R[b]')}:",
                     "    " + target, after]
        elif op in ("j", "jal"):
            body += ["R[d] = p + 1"] * (op == "jal") + [target]
        elif op in ("jr", "jalr"):
            body += ["t = R[a]", *["R[d] = p + 1"] * (op == "jalr"),
                     "return t if t < NCODE else BAD(t)"]
        elif op == "halt":
            body += ["global halted", "halted = True", "return ~(p + 1)"]
        else:  # nop
            body.append(after)
    return "\n".join(lines + ["    " + line for line in body]) + "\n"


_OPS = (*_ALU, *_BRANCH, *_LOADS, *_STORES, *_JUMPS, "halt", "nop")
_STEP_MODULE = compile("".join(map(_step_source, _OPS)), "<risc32 steps>", "exec")
# The step code of each (predecoded) mnemonic, shared by every program.
STEP_CODE = {
    const.co_name[len("step_"):]: const
    for const in _STEP_MODULE.co_consts if isinstance(const, CodeType)
}

# The run-time helpers every translated namespace holds.  They read the
# namespace's globals (see the module docstring); ``FETCH``, ``PPORT``,
# ``RANGES``, ``MMIO_LOAD``/``MMIO_STORE`` and the cache geometry are
# bound by the processor.
RUNTIME = compile(f'''
def LRU(entries, tag):
    """A hit below the MRU position of a cache set: move the line to MRU
    (as Cache.access does) and return True."""
    for pos in range(len(entries) - 1):
        if entries[pos][0] == tag:
            entries.append(entries.pop(pos))
            return True
    return False


def DIV(a, b):
    """Signed division truncating toward zero; x / 0 == -1."""
    a = (a ^ {_S}) - {_S}
    b = (b ^ {_S}) - {_S}
    return (int(a / b) if b else -1) & {_M}


def REM(a, b):
    """The remainder of :func:`DIV`; x % 0 == x."""
    a = (a ^ {_S}) - {_S}
    b = (b ^ {_S}) - {_S}
    return (a - int(a / b) * b if b else a) & {_M}


def RUN(core, h, u, budget, ls, lc, hook):
    """Processor.run_until on ``core``: call blocks from its pc until one
    stops, then write the clock and the accounting back to the core; the
    inline fetch hits wait in ``PH`` for :meth:`Processor.sync`."""
    global H, U, LIMIT, LS, LC, MMIO_HOOK
    global cycle, n, nf, stall, done, halted, badpc, PH
    if core.state != RUNNING or budget is not None and budget <= 0:
        return 0
    H = h
    U = u
    LIMIT = NO_LIMIT if budget is None else budget
    LS = ls
    LC = lc
    MMIO_HOOK = hook
    cycle = core.cycle
    table = BLOCKS if ITEXT and not IHOOKS else STEPS
    pc = core.pc
    if not 0 <= pc < NCODE:
        badpc = pc
        pc = NCODE
    runs = 0
    try:
        while pc >= 0:
            pc = table[pc]()
            runs += 1
    except BaseException:
        core._flush(NS, at, TIMED)
        done = 0
        raise
    RUNS[0] += runs
    pc = ~pc
    core.pc = badpc if pc == NCODE else pc
    ran = n
    PH += ran - nf
    if TIMED:
        core.active_cycles += cycle - core.cycle - stall
        core.stall_cycles += stall
        core.cycle = cycle
        core.instructions += ran
    if halted:
        core.state = HALTED
        halted = False
    ran += done
    n = nf = stall = done = 0
    LS = LC = MMIO_HOOK = None  # the caller's, not to be kept
    return ran


def EXEC(core):
    """Processor.execute on ``core``, in the functional namespace (no
    horizon, window or budget): the step at its pc, once."""
    global n, nf, halted, badpc, access
    access = None
    pc = core.pc
    if not 0 <= pc < NCODE:
        badpc = pc
        pc = NCODE
    try:
        pc = STEPS[pc]()
    except BaseException:
        core._flush(NS, at, False)
        raise
    n = nf = 0
    if pc < 0:  # after halt
        pc = ~pc
    core.pc = badpc if pc == NCODE else pc
    if halted:
        core.state = HALTED
        halted = False


def LEAVE(starts, classes, kc, count, clock):
    """Retire the instructions a block ran before it leaves early: their
    start cycles and classes, packed class counts ``kc`` and ``count``;
    the clock becomes ``clock``."""
    global KC, n, cycle
    if LS is not None:
        LS.extend(starts)
        LC.extend(classes)
    KC += kc
    n += count
    cycle = clock


def BAD(pc):
    """Route a successor outside the text to the ``BAD_PC`` entry."""
    global badpc
    badpc = pc
    return NCODE


def BAD_PC():
    """The instruction at a pc outside the text: a fault if it starts."""
    global at
    if n >= LIMIT or cycle >= U:
        return ~NCODE
    at = badpc
    raise ExecutionError(f"{{NAME}}: pc {{badpc}} outside text ({{NCODE}} instrs)")


def FAULT():
    """Count the fetch of a load or store that faults.  ``n - nf``, the
    inline fetch hits, then counts it if it was one and cancels the
    ``nf`` it added if it was not; after an MMIO flush, which counted it
    already and left ``nf`` at 1, it nets to nothing."""
    global nf
    nf -= 1


def SLOW(trace):
    """Run the block on ``trace`` (its pcs) one step at a time."""
    i = 0
    while True:
        nxt = STEPS[trace[i]]()
        i += 1
        if i == len(trace) or nxt != trace[i]:
            return nxt


def RECORD(addr, is_write, t):
    """The functional mode's data port: remember the access, charge
    nothing."""
    global access
    access = (addr, is_write)
    return 0


def LOAD(pc, a, f, kind):
    """The load at ``pc`` (kind 0 ``lw``, 1 ``lbu``, 2 ``lb``) from
    address ``a``, fetched in ``f`` cycles: returns the word it loads,
    or -1 if it must not run yet (a sync access past the horizon).

    The private range's D-cache hits are resolved inline; every other
    access goes through its range's port, which times it.  A fault
    leaves the load unretired — no cycle, no count — but its fetch
    happened and stays counted (:func:`FAULT`).
    """
    global at, cycle, n, stall, KC, DC
    at = pc
    c = cycle
    try:
        if not kind and a & 3:
            raise ExecutionError(f"{{NAME}}: misaligned lw at 0x{{a:08x}}")
        t = c + f + 1
        if P_LO <= a < P_HI:
            if DCACHED and not DHOOKS and ((e := DSETS[(l := a // DLS) % DNS]) and e[-1][0] == l // DNS
                          or LRU(e, l // DNS)):
                DC += {HITS:#x}
                lat = DHIT
            elif c > H:
                return -1
            else:
                lat = PPORT(a, False, t)
            DC += {LOADS:#x}
            v = UNPACK(PDATA, a - P_LO)[0] if not kind else PDATA[a - P_LO]
        elif c > H:
            return -1
        else:
            for lo, hi, data, size, port, target in RANGES:
                if lo <= a < hi:
                    break
            else:
                raise AccessFault(f"{{MEMCTRL}}: no range maps address 0x{{a:08x}}")
            off = a - lo
            if port is None:
                v = MMIO_LOAD(pc, target, off)
                lat = 1
            else:
                if kind:
                    v = data[off] if data is not None and off < size else target.read_byte(off)
                elif data is not None and not off & 3 and off + 4 <= size:
                    v = UNPACK(data, off)[0]
                else:
                    v = target.read_word(off)
                lat = port(a, False, t)
                DC += {LOADS | PORTS:#x}
    except BaseException:
        FAULT()
        raise
    if kind == 2:
        v = ((v & 0xFF) ^ 0x80) - 0x80
    stall += lat - (lat if lat < DHIT else DHIT) + f - (f if f < IHIT else IHIT)
    if LS is not None:
        LS.append(c)
        LC.append({CLASS_LOAD!r})
    KC += {CLASS_BITS[CLASS_LOAD]:#x}
    n += 1
    cycle = c + f + CPI_LOAD + lat
    return v & {_M}


def STORE(pc, a, value, f, kind):
    """The store at ``pc`` (kind 0 ``sw``, 1 ``sb``) of ``value`` to
    address ``a``, fetched in ``f`` cycles: returns True if it must not
    run yet (a sync access past the horizon), as :func:`LOAD`."""
    global at, cycle, n, stall, KC, DC
    at = pc
    c = cycle
    try:
        if not kind and a & 3:
            raise ExecutionError(f"{{NAME}}: misaligned sw at 0x{{a:08x}}")
        t = c + f + 1
        if P_LO <= a < P_HI:
            if DCACHED and WB and not DHOOKS and ((e := DSETS[(l := a // DLS) % DNS]) and e[-1][0] == l // DNS
                        or LRU(e, l // DNS)):
                e[-1][1] = True
                DC += {HITS:#x}
                lat = DHIT
            elif c > H:
                return True
            else:
                lat = PPORT(a, True, t)
            DC += {STORES:#x}
            if kind:
                PDATA[a - P_LO] = value & 0xFF
            else:
                PACK(PDATA, a - P_LO, value)
        elif c > H:
            return True
        else:
            for lo, hi, data, size, port, target in RANGES:
                if lo <= a < hi:
                    break
            else:
                raise AccessFault(f"{{MEMCTRL}}: no range maps address 0x{{a:08x}}")
            off = a - lo
            if port is None:
                MMIO_STORE(pc, target, off, value)
                lat = 1
            else:
                if kind:
                    if data is not None and off < size:
                        data[off] = value & 0xFF
                    else:
                        target.write_byte(off, value)
                elif data is not None and not off & 3 and off + 4 <= size:
                    PACK(data, off, value)
                else:
                    target.write_word(off, value)
                lat = port(a, True, t)
                DC += {STORES | PORTS:#x}
    except BaseException:
        FAULT()
        raise
    stall += lat - (lat if lat < DHIT else DHIT) + f - (f if f < IHIT else IHIT)
    if LS is not None:
        LS.append(c)
        LC.append({CLASS_STORE!r})
    KC += {CLASS_BITS[CLASS_STORE]:#x}
    n += 1
    cycle = c + f + CPI_STORE + lat
    return False
''', "<risc32 runtime>", "exec")
