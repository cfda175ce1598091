"""RISC-32: the small load/store instruction set executed by emulated cores.

The paper's emulator runs gcc-compiled C on PowerPC405/Microblaze netlists.
We substitute a compact 32-bit RISC instruction set with a two-pass
assembler (:mod:`repro.mpsoc.asm`); the MATRIX and DITHERING drivers are
written in it.  The set is MIPS-flavoured: 32 registers (``r0`` wired to
zero), sign-extended arithmetic immediates, zero-extended logical
immediates, branch offsets in instruction units relative to ``pc + 1``.

Encoding formats (32 bits):

====== =========================================================
R      ``op[31:26] rd[25:21] rs1[20:16] rs2[15:11] 0[10:0]``
I      ``op[31:26] rd[25:21] rs1[20:16] imm16[15:0]``
B      ``op[31:26] rs1[25:21] rs2[20:16] imm16[15:0]``
J      ``op[31:26] rd[25:21] imm21[20:0]`` (absolute instruction index)
====== =========================================================
"""

from dataclasses import dataclass

WORD_MASK = 0xFFFFFFFF
NUM_REGISTERS = 32

# Instruction classes drive per-core CPI tables and sniffer accounting.
CLASS_ALU = "alu"
CLASS_MUL = "mul"
CLASS_DIV = "div"
CLASS_LOAD = "load"
CLASS_STORE = "store"
CLASS_BRANCH = "branch"
CLASS_JUMP = "jump"
CLASS_SYSTEM = "system"

INSTRUCTION_CLASSES = (
    CLASS_ALU,
    CLASS_MUL,
    CLASS_DIV,
    CLASS_LOAD,
    CLASS_STORE,
    CLASS_BRANCH,
    CLASS_JUMP,
    CLASS_SYSTEM,
)

# Format tags.
FMT_R = "R"
FMT_I = "I"
FMT_B = "B"
FMT_J = "J"


@dataclass(frozen=True)
class OpSpec:
    """Static description of one mnemonic."""

    mnemonic: str
    opcode: int
    fmt: str
    cls: str
    signed_imm: bool = True


_OPS = [
    # mnemonic, opcode, fmt, class, signed_imm
    OpSpec("nop", 0x00, FMT_R, CLASS_ALU),
    OpSpec("add", 0x01, FMT_R, CLASS_ALU),
    OpSpec("sub", 0x02, FMT_R, CLASS_ALU),
    OpSpec("mul", 0x03, FMT_R, CLASS_MUL),
    OpSpec("div", 0x04, FMT_R, CLASS_DIV),
    OpSpec("rem", 0x05, FMT_R, CLASS_DIV),
    OpSpec("and", 0x06, FMT_R, CLASS_ALU),
    OpSpec("or", 0x07, FMT_R, CLASS_ALU),
    OpSpec("xor", 0x08, FMT_R, CLASS_ALU),
    OpSpec("sll", 0x09, FMT_R, CLASS_ALU),
    OpSpec("srl", 0x0A, FMT_R, CLASS_ALU),
    OpSpec("sra", 0x0B, FMT_R, CLASS_ALU),
    OpSpec("slt", 0x0C, FMT_R, CLASS_ALU),
    OpSpec("sltu", 0x0D, FMT_R, CLASS_ALU),
    OpSpec("jr", 0x0E, FMT_R, CLASS_JUMP),
    OpSpec("jalr", 0x0F, FMT_R, CLASS_JUMP),
    OpSpec("addi", 0x10, FMT_I, CLASS_ALU),
    OpSpec("andi", 0x11, FMT_I, CLASS_ALU, signed_imm=False),
    OpSpec("ori", 0x12, FMT_I, CLASS_ALU, signed_imm=False),
    OpSpec("xori", 0x13, FMT_I, CLASS_ALU, signed_imm=False),
    OpSpec("slli", 0x14, FMT_I, CLASS_ALU, signed_imm=False),
    OpSpec("srli", 0x15, FMT_I, CLASS_ALU, signed_imm=False),
    OpSpec("srai", 0x16, FMT_I, CLASS_ALU, signed_imm=False),
    OpSpec("slti", 0x17, FMT_I, CLASS_ALU),
    OpSpec("lui", 0x18, FMT_I, CLASS_ALU, signed_imm=False),
    OpSpec("lw", 0x19, FMT_I, CLASS_LOAD),
    OpSpec("lb", 0x1A, FMT_I, CLASS_LOAD),
    OpSpec("lbu", 0x1B, FMT_I, CLASS_LOAD),
    OpSpec("sw", 0x1C, FMT_I, CLASS_STORE),
    OpSpec("sb", 0x1D, FMT_I, CLASS_STORE),
    OpSpec("beq", 0x20, FMT_B, CLASS_BRANCH),
    OpSpec("bne", 0x21, FMT_B, CLASS_BRANCH),
    OpSpec("blt", 0x22, FMT_B, CLASS_BRANCH),
    OpSpec("bge", 0x23, FMT_B, CLASS_BRANCH),
    OpSpec("bltu", 0x24, FMT_B, CLASS_BRANCH),
    OpSpec("bgeu", 0x25, FMT_B, CLASS_BRANCH),
    OpSpec("j", 0x30, FMT_J, CLASS_JUMP),
    OpSpec("jal", 0x31, FMT_J, CLASS_JUMP),
    OpSpec("halt", 0x3F, FMT_R, CLASS_SYSTEM),
]

OPS_BY_NAME = {spec.mnemonic: spec for spec in _OPS}
OPS_BY_CODE = {spec.opcode: spec for spec in _OPS}

IMM16_MIN = -(1 << 15)
IMM16_MAX = (1 << 15) - 1
UIMM16_MAX = (1 << 16) - 1
IMM21_MAX = (1 << 21) - 1


class IsaError(ValueError):
    """Raised on malformed instructions or encodings."""


def sign_extend(value, bits):
    """Sign-extend the low ``bits`` of ``value`` to a Python int."""
    mask = (1 << bits) - 1
    value &= mask
    sign_bit = 1 << (bits - 1)
    if value & sign_bit:
        return value - (1 << bits)
    return value


def to_signed(word):
    """Interpret a 32-bit word as a signed integer."""
    return sign_extend(word, 32)


def to_unsigned(value):
    """Wrap an integer into an unsigned 32-bit word."""
    return value & WORD_MASK


@dataclass(frozen=True)
class Instruction:
    """One decoded RISC-32 instruction.

    Fields not used by the instruction's format are zero.  ``imm`` holds the
    already sign-/zero-extended immediate for I/B formats and the absolute
    instruction index for J format.
    """

    mnemonic: str
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0

    @property
    def spec(self):
        return OPS_BY_NAME[self.mnemonic]

    @property
    def cls(self):
        return self.spec.cls

    def _check_reg(self, name, value):
        if not 0 <= value < NUM_REGISTERS:
            raise IsaError(f"{self.mnemonic}: register {name}={value} out of range")

    def encode(self):
        """Encode to a 32-bit word; raises :class:`IsaError` if out of range."""
        spec = OPS_BY_NAME.get(self.mnemonic)
        if spec is None:
            raise IsaError(f"unknown mnemonic {self.mnemonic!r}")
        self._check_reg("rd", self.rd)
        self._check_reg("rs1", self.rs1)
        self._check_reg("rs2", self.rs2)
        word = spec.opcode << 26
        if spec.fmt == FMT_R:
            word |= (self.rd << 21) | (self.rs1 << 16) | (self.rs2 << 11)
        elif spec.fmt == FMT_I:
            imm = self.imm
            if spec.signed_imm:
                if not IMM16_MIN <= imm <= IMM16_MAX:
                    raise IsaError(f"{self.mnemonic}: immediate {imm} out of i16 range")
            else:
                if not 0 <= imm <= UIMM16_MAX:
                    raise IsaError(f"{self.mnemonic}: immediate {imm} out of u16 range")
            word |= (self.rd << 21) | (self.rs1 << 16) | (imm & 0xFFFF)
        elif spec.fmt == FMT_B:
            imm = self.imm
            if not IMM16_MIN <= imm <= IMM16_MAX:
                raise IsaError(f"{self.mnemonic}: branch offset {imm} out of range")
            word |= (self.rs1 << 21) | (self.rs2 << 16) | (imm & 0xFFFF)
        elif spec.fmt == FMT_J:
            if not 0 <= self.imm <= IMM21_MAX:
                raise IsaError(f"{self.mnemonic}: jump target {self.imm} out of range")
            word |= (self.rd << 21) | self.imm
        else:  # pragma: no cover - formats are fixed above
            raise IsaError(f"unknown format {spec.fmt!r}")
        return word

    def __str__(self):
        spec = self.spec
        if self.mnemonic in ("nop", "halt"):
            return self.mnemonic
        if spec.fmt == FMT_R:
            if self.mnemonic == "jr":
                return f"jr r{self.rs1}"
            if self.mnemonic == "jalr":
                return f"jalr r{self.rd}, r{self.rs1}"
            return f"{self.mnemonic} r{self.rd}, r{self.rs1}, r{self.rs2}"
        if spec.fmt == FMT_I:
            if self.mnemonic == "lui":
                return f"lui r{self.rd}, {self.imm}"
            if spec.cls in (CLASS_LOAD, CLASS_STORE):
                return f"{self.mnemonic} r{self.rd}, {self.imm}(r{self.rs1})"
            return f"{self.mnemonic} r{self.rd}, r{self.rs1}, {self.imm}"
        if spec.fmt == FMT_B:
            return f"{self.mnemonic} r{self.rs1}, r{self.rs2}, {self.imm}"
        if self.mnemonic == "jal":
            return f"jal r{self.rd}, {self.imm}"
        return f"{self.mnemonic} {self.imm}"


def decode(word):
    """Decode a 32-bit word into an :class:`Instruction`.

    Raises :class:`IsaError` for unknown opcodes.  ``decode(i.encode()) == i``
    for every well-formed instruction (the property test in
    ``tests/mpsoc/test_isa.py`` exercises this).
    """
    word &= WORD_MASK
    opcode = (word >> 26) & 0x3F
    spec = OPS_BY_CODE.get(opcode)
    if spec is None:
        raise IsaError(f"unknown opcode 0x{opcode:02x} in word 0x{word:08x}")
    if spec.fmt == FMT_R:
        return Instruction(
            spec.mnemonic,
            rd=(word >> 21) & 0x1F,
            rs1=(word >> 16) & 0x1F,
            rs2=(word >> 11) & 0x1F,
        )
    if spec.fmt == FMT_I:
        raw = word & 0xFFFF
        imm = sign_extend(raw, 16) if spec.signed_imm else raw
        return Instruction(
            spec.mnemonic,
            rd=(word >> 21) & 0x1F,
            rs1=(word >> 16) & 0x1F,
            imm=imm,
        )
    if spec.fmt == FMT_B:
        return Instruction(
            spec.mnemonic,
            rs1=(word >> 21) & 0x1F,
            rs2=(word >> 16) & 0x1F,
            imm=sign_extend(word & 0xFFFF, 16),
        )
    # J format
    return Instruction(spec.mnemonic, rd=(word >> 21) & 0x1F, imm=word & 0x1FFFFF)
