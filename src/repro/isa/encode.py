"""Byte encoding of instructions (the "machine code" of the virtual ISA).

Layout of one instruction::

    +----------+---------+----------------------+
    | opcode   | n_opnds | operand encodings ...|
    | u16 LE   | u8      | variable             |
    +----------+---------+----------------------+

Operand encodings (first byte is the kind tag):

* ``Reg``:  ``01 idx``                                     (2 bytes)
* ``Xmm``:  ``02 idx``                                     (2 bytes)
* ``Imm``:  ``03`` + 8-byte little-endian two's complement (9 bytes)
* ``Mem``:  ``04 base index scale`` + 8-byte LE disp       (12 bytes)

``base``/``index`` use ``0xFF`` for "absent".  Instructions are variable
length, like x86; the disassembler (:mod:`repro.isa.decode`) is the
project's stand-in for XED.
"""

from __future__ import annotations

import struct

from repro.isa.instruction import Instruction, IsaError
from repro.isa.opcodes import Op
from repro.isa.operands import (
    KIND_IMM,
    KIND_MEM,
    KIND_REG,
    KIND_XMM,
    Imm,
    Mem,
    NO_REG,
    Reg,
    Xmm,
)

_U16 = struct.Struct("<H")
_I64 = struct.Struct("<q")

_BITS64 = 0xFFFFFFFFFFFFFFFF


def _imm_to_signed(value: int) -> int:
    """Normalize a 64-bit raw pattern or signed int to signed i64."""
    value &= _BITS64
    return value - (1 << 64) if value >= (1 << 63) else value


def decoded_operand(op):
    """*op* exactly as :func:`decode_operand` returns it after encoding:
    immediates and displacements normalized to signed i64.  Callers that
    keep the instructions they encode (the block templates) hand these
    to the VM in place of a decode."""
    kind = op.kind
    if kind == KIND_IMM:
        value = _imm_to_signed(op.value)
        return op if value == op.value else Imm(value)
    if kind == KIND_MEM:
        disp = _imm_to_signed(op.disp)
        if disp != op.disp:
            return Mem(base=op.base, index=op.index, scale=op.scale, disp=disp)
    return op


def encode_operand(op) -> bytes:
    kind = op.kind
    if kind == KIND_REG or kind == KIND_XMM:
        return bytes((kind, op.index))
    if kind == KIND_IMM:
        return bytes((kind,)) + _I64.pack(_imm_to_signed(op.value))
    if kind == KIND_MEM:
        base = NO_REG if op.base is None else op.base
        index = NO_REG if op.index is None else op.index
        return bytes((kind, base, index, op.scale)) + _I64.pack(
            _imm_to_signed(op.disp)
        )
    raise IsaError(f"cannot encode operand {op!r}")


def encode_body(opcode: Op, operands: tuple) -> bytes:
    """Encode an (opcode, operands) pair without an Instruction wrapper.

    The encoding is independent of the instruction's address, so callers
    that know their operands are final (no unresolved labels) can encode
    before layout and reuse the bytes.
    """
    parts = [_U16.pack(int(opcode)), bytes((len(operands),))]
    parts.extend(encode_operand(o) for o in operands)
    return b"".join(parts)


def encode_instruction(instr: Instruction) -> bytes:
    return encode_body(instr.opcode, instr.operands)


def encoded_length(instr: Instruction) -> int:
    """Length in bytes of the encoding of *instr* (without encoding it twice)."""
    n = 3
    for o in instr.operands:
        kind = o.kind
        if kind in (KIND_REG, KIND_XMM):
            n += 2
        elif kind == KIND_IMM:
            n += 9
        else:
            n += 12
    return n


def decode_operand(buf: bytes, offset: int):
    """Decode one operand; returns (operand, new_offset)."""
    kind = buf[offset]
    if kind == KIND_REG:
        return Reg(buf[offset + 1]), offset + 2
    if kind == KIND_XMM:
        return Xmm(buf[offset + 1]), offset + 2
    if kind == KIND_IMM:
        (value,) = _I64.unpack_from(buf, offset + 1)
        return Imm(value), offset + 9
    if kind == KIND_MEM:
        base = buf[offset + 1]
        index = buf[offset + 2]
        scale = buf[offset + 3]
        (disp,) = _I64.unpack_from(buf, offset + 4)
        return (
            Mem(
                base=None if base == NO_REG else base,
                index=None if index == NO_REG else index,
                scale=scale,
                disp=disp,
            ),
            offset + 12,
        )
    raise IsaError(f"bad operand kind byte {kind:#x} at offset {offset}")


def decode_instruction(buf: bytes, offset: int) -> tuple[Instruction, int]:
    """Decode the instruction at *offset*; returns (instruction, size)."""
    if offset + 3 > len(buf):
        raise IsaError(f"truncated instruction at offset {offset}")
    (raw_op,) = _U16.unpack_from(buf, offset)
    try:
        opcode = Op(raw_op)
    except ValueError as exc:
        raise IsaError(f"unknown opcode {raw_op:#x} at offset {offset}") from exc
    count = buf[offset + 2]
    pos = offset + 3
    operands = []
    for _ in range(count):
        operand, pos = decode_operand(buf, pos)
        operands.append(operand)
    instr = Instruction(opcode, tuple(operands), addr=offset)
    return instr, pos - offset
