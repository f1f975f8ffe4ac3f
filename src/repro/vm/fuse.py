"""Segment specialization: fused superinstruction closures.

The per-instruction interpreter (:mod:`repro.vm.machine`) pays one
Python call per executed instruction.  This module compiles each
straight-line *run* of a segment — a maximal sequence of non-control
instructions, optionally closed by its branch/call/ret terminator — into
ONE generated Python function that executes the whole run with operand
registers, addresses, immediates and per-instruction cycle costs folded
into its source as literals.  Common pairs (load+op, op+store,
cmp+branch) thereby execute inside a single frame; the cmp+branch pair
in particular turns a tight loop's body+test+back-edge into one call per
iteration.

Parity contract (asserted by tests/vm/test_fused_parity.py and the
differential suites): a fused run is bit-identical and cycle-identical
to the per-instruction loop —

* cycles are accumulated as one constant-folded ``cyc[0] += TOTAL`` on
  fall-through; every fault site charges exactly the partial sum of the
  instructions *before* the faulting one (the reference closures charge
  cost after the trap check);
* the step budget is tracked in a steps-left cell ``sl``: a run of K
  instructions decrements by K up front and every early exit adds back
  the unexecuted suffix, so ``steps`` accounting is exact to the
  instruction;
* a run whose remaining budget is smaller than K deoptimizes: the
  generated function hands control to the VM's single-step tail, which
  executes the reference closures one by one until the budget expires
  (or a trap/halt/yield wins the race) — byte-identical to the
  reference loop's timeout behaviour;
* memory/stack faults raise :class:`FusedTrap` carrying the *relative*
  index of the faulting instruction; the VM stamps the absolute text
  address on, producing the same message the reference loop produces.
  Integer division by zero raises a plain address-less ``VmTrap``,
  exactly like the reference helpers;
* registers and flags live in locals inside a run and are stored back
  before every guard and every exit, so each trap, HALT and return
  leaves the state lists exactly as the reference loop does.

Immediates (sign extension, shift counts, compare operands) are folded
into literals at emission, and scalar add/sub/mul and the binary32 and
binary64 conversions reinterpret bits through the VM's scratch views
(:func:`scratch_views`) instead of calling the ``ieee`` helpers.

Generated factories are position- and VM-independent: branch targets,
return addresses, MPI identity, the state arrays and the scratch views
are passed as factory arguments, so one compiled factory (keyed by the
run's *unpatched template bytes* plus the cost model) is shared across
every program, configuration and Machine in the process.
"""

from __future__ import annotations

from repro.fpbits import ieee, narrow
from repro.isa.opcodes import Op, OPCODE_INFO, RED_MAX, RED_MIN, RED_SUM
from repro.isa.operands import Imm, Mem, Reg, Xmm
from repro.vm.errors import VmTrap

_M64 = 0xFFFFFFFFFFFFFFFF
_M32 = 0xFFFFFFFF
_HI32 = 0xFFFFFFFF00000000
_SB = 1 << 63
_INT_INDEFINITE = 0x8000000000000000
_XORSHIFT_MULT = 2685821657736338717
_NEG_INF32 = 0xFF800000
_POS_INF32 = 0x7F800000


class FusedTrap(VmTrap):
    """Execution fault raised inside a fused run.

    Carries the untouched core message plus the *relative* index of the
    faulting instruction within the run; :meth:`VM.resume` stamps the
    absolute text address before the trap escapes."""

    def __init__(self, message: str, rel: int) -> None:
        super().__init__(message)
        self.core = message
        self.rel = rel


class Unfusable(Exception):
    """Internal: this instruction has no fused template."""


#: globals handed to every exec'd factory: constants plus the helpers
#: of the operations a run does not inline, bound once.
_EXEC_GLOBALS = {
    "__builtins__": {
        "abs": abs, "float": float, "int": int, "len": len,
        "OverflowError": OverflowError,
    },
    "_M64": _M64,
    "_M32": _M32,
    "_HI32": _HI32,
    "_SB": _SB,
    "_INT_INDEFINITE": _INT_INDEFINITE,
    "_XORSHIFT_MULT": _XORSHIFT_MULT,
    "_FT": FusedTrap,
    "VmTrap": VmTrap,
}
for _name in (
    "commutative_nan",
    "double_div", "double_min", "double_max", "double_sqrt", "double_abs",
    "double_neg", "double_sin", "double_cos", "double_exp", "double_log",
    "single_div", "single_min", "single_max", "single_sqrt", "single_abs",
    "single_neg", "single_sin", "single_cos", "single_exp", "single_log",
):
    _EXEC_GLOBALS[_name] = getattr(ieee, _name)
for _name in (
    "bf16_add", "bf16_sub", "bf16_mul", "bf16_div", "bf16_min", "bf16_max",
    "bf16_sqrt", "bf16_abs", "bf16_neg", "bf16_sin", "bf16_cos", "bf16_exp",
    "bf16_log", "bits_to_bf16", "bf16_to_bits",
    "f16_add", "f16_sub", "f16_mul", "f16_div", "f16_min", "f16_max",
    "f16_sqrt", "f16_abs", "f16_neg", "f16_sin", "f16_cos", "f16_exp",
    "f16_log", "bits_to_f16", "f16_to_bits",
):
    _EXEC_GLOBALS[_name] = getattr(narrow, _name)

#: add/sub/mul are inlined as host float arithmetic on the operands'
#: bits reinterpreted through the VM's scratch views; the rest call the
#: same helpers as the reference closures.
_FP_ARITH = {
    Op.ADDSD: "+", Op.SUBSD: "-", Op.MULSD: "*",
    Op.ADDSS: "+", Op.SUBSS: "-", Op.MULSS: "*",
    Op.ADDPD: "+", Op.SUBPD: "-", Op.MULPD: "*",
    Op.ADDPS: "+", Op.SUBPS: "-", Op.MULPS: "*",
}
_FPD_BIN = {
    Op.ADDSD: None, Op.SUBSD: None, Op.MULSD: None,
    Op.DIVSD: "double_div", Op.MINSD: "double_min", Op.MAXSD: "double_max",
}
_FPD_UN = {
    Op.SQRTSD: "double_sqrt", Op.ABSSD: "double_abs", Op.NEGSD: "double_neg",
    Op.SINSD: "double_sin", Op.COSSD: "double_cos", Op.EXPSD: "double_exp",
    Op.LOGSD: "double_log",
}
_FPS_BIN = {
    Op.ADDSS: None, Op.SUBSS: None, Op.MULSS: None,
    Op.DIVSS: "single_div", Op.MINSS: "single_min", Op.MAXSS: "single_max",
}
_FPS_UN = {
    Op.SQRTSS: "single_sqrt", Op.ABSSS: "single_abs", Op.NEGSS: "single_neg",
    Op.SINSS: "single_sin", Op.COSSS: "single_cos", Op.EXPSS: "single_exp",
    Op.LOGSS: "single_log",
}
_FPN_BIN = {
    Op.ADDBF: "bf16_add", Op.SUBBF: "bf16_sub", Op.MULBF: "bf16_mul",
    Op.DIVBF: "bf16_div", Op.MINBF: "bf16_min", Op.MAXBF: "bf16_max",
    Op.ADDHF: "f16_add", Op.SUBHF: "f16_sub", Op.MULHF: "f16_mul",
    Op.DIVHF: "f16_div", Op.MINHF: "f16_min", Op.MAXHF: "f16_max",
}
_FPN_UN = {
    Op.SQRTBF: "bf16_sqrt", Op.ABSBF: "bf16_abs", Op.NEGBF: "bf16_neg",
    Op.SINBF: "bf16_sin", Op.COSBF: "bf16_cos", Op.EXPBF: "bf16_exp",
    Op.LOGBF: "bf16_log",
    Op.SQRTHF: "f16_sqrt", Op.ABSHF: "f16_abs", Op.NEGHF: "f16_neg",
    Op.SINHF: "f16_sin", Op.COSHF: "f16_cos", Op.EXPHF: "f16_exp",
    Op.LOGHF: "f16_log",
}
#: opcode -> (decode name, encode name) for narrow compare/convert.
_FPN_CODEC_OPS = {
    Op.UCOMIBF: ("bits_to_bf16", "bf16_to_bits"),
    Op.CVTSI2BF: ("bits_to_bf16", "bf16_to_bits"),
    Op.CVTTBF2SI: ("bits_to_bf16", "bf16_to_bits"),
    Op.CVTSD2BF: ("bits_to_bf16", "bf16_to_bits"),
    Op.CVTBF2SD: ("bits_to_bf16", "bf16_to_bits"),
    Op.UCOMIHF: ("bits_to_f16", "f16_to_bits"),
    Op.CVTSI2HF: ("bits_to_f16", "f16_to_bits"),
    Op.CVTTHF2SI: ("bits_to_f16", "f16_to_bits"),
    Op.CVTSD2HF: ("bits_to_f16", "f16_to_bits"),
    Op.CVTHF2SD: ("bits_to_f16", "f16_to_bits"),
}
_PD_BIN = {
    Op.ADDPD: None, Op.SUBPD: None, Op.MULPD: None, Op.DIVPD: "double_div",
}
_PS_BIN = {
    Op.ADDPS: None, Op.SUBPS: None, Op.MULPS: None, Op.DIVPS: "single_div",
}
#: ``{d}`` the destination, ``{s}`` the source, ``{c}`` the shift count
#: (``({s} & 63)``, or its value when the source is an immediate).
_INT_BIN_EXPR = {
    Op.ADD: "({d} + {s}) & _M64",
    Op.SUB: "({d} - {s}) & _M64",
    Op.IMUL: "({d} * {s}) & _M64",
    Op.AND: "{d} & {s}",
    Op.OR: "{d} | {s}",
    Op.XOR: "{d} ^ {s}",
    Op.SHL: "({d} << {c}) & _M64",
    Op.SHR: "{d} >> {c}",
    Op.SAR: "((({d} ^ _SB) - _SB) >> {c}) & _M64",
}
_SHIFTS = frozenset((Op.SHL, Op.SHR, Op.SAR))
#: branch conditions over the (zf, lt, unord) flag expressions.
_COND_EXPR = {
    Op.JE: "{z}",
    Op.JNE: "not {z}",
    Op.JL: "{l}",
    Op.JLE: "{l} or {z}",
    Op.JG: "not ({l} or {z} or {u})",
    Op.JGE: "not {l} and not {u}",
    Op.JP: "{u}",
    Op.JNP: "not {u}",
}
_LIST_FLAGS = ("flags[0]", "flags[1]", "flags[2]")

#: state lists a run caches in locals, and the prefix of their locals.
_LOCAL_PREFIX = {"gpr": "r", "xl": "x", "xh": "h"}

#: placeholder for the run length, substituted once the run is closed.
_K = "__K__"


def scratch_views() -> tuple:
    """One VM's conversion scratch: an 8-byte buffer viewed as ``Q`` and
    ``d`` and a 4-byte one viewed as ``I`` and ``f`` (``bq, bd, bi,
    bf``).  A run reinterprets bits by storing through one view and
    loading through the other.  The views are per VM, never shared:
    VMs on different threads must not see each other's scratch."""
    b8 = memoryview(bytearray(8))
    b4 = memoryview(bytearray(4))
    return b8.cast("Q"), b8.cast("d"), b4.cast("I"), b4.cast("f")


class _RunEmitter:
    """Accumulates the generated source of one fused run.

    ``j`` is the relative index of the instruction being emitted; every
    fault site charges the constant partial cycle sum of the completed
    instructions and returns the unexecuted suffix to the steps-left
    cell before raising.

    Registers (``gpr``, ``xl``, ``xh``) live in locals: each is read
    from its list at most once per run, and a write only marks its local
    *dirty*.  Dirty locals are stored back at the points where state can
    be observed — before every guard's condition and before every exit —
    so a fault path is one ``raise`` that finds the lists exact.  The
    store of a value that reaches such a point joins the statement that
    defined it (``gpr[1] = r1 = ...``), and a value overwritten before
    it is never stored.  CMP, TEST and the UCOMIs set the flag locals
    ``zf``, ``lf`` and ``uf`` the same way; a closing branch tests the
    locals.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.lines: list[str] = []
        self.j = 0
        self.cycles = 0  # partial sum: cost of instructions < j
        self.halted = False  # a HALT was emitted; run falls through no more
        self.cached: set = set()  # (list, index) held in a local
        #: state cell not yet stored -> (its value, the line defining that
        #: value as ``local = expr``, or None), in order
        self.dirty: dict = {}
        #: (zf, lt, unord) expressions once a flag setter ran in the run
        self.flags: tuple | None = None

    # -- plumbing ---------------------------------------------------------

    def emit(self, *lines: str) -> None:
        self.lines.extend(lines)

    def reg(self, arr: str, i: int) -> str:
        """The local holding ``arr[i]``, loaded on first use.  Call it
        outside conditional blocks only: the load must dominate every
        later use."""
        name = f"{_LOCAL_PREFIX[arr]}{i}"
        if (arr, i) not in self.cached:
            self.emit(f"{name} = {arr}[{i}]")
            self.cached.add((arr, i))
        return name

    def define(self, cell: str, local: str, expr: str) -> None:
        """Emit ``local = expr`` as the new value of state *cell*."""
        self.dirty[cell] = (local, len(self.lines))
        self.emit(f"{local} = {expr}")

    def dest(self, arr: str, i: int) -> str:
        """The local a write to ``arr[i]`` assigns; marks it dirty.  The
        caller emits the assignment (on every branch) right away."""
        name = f"{_LOCAL_PREFIX[arr]}{i}"
        self.cached.add((arr, i))
        self.dirty[f"{arr}[{i}]"] = (name, None)
        return name

    def set(self, arr: str, i: int, expr: str) -> None:
        self.define(f"{arr}[{i}]", self.dest(arr, i), expr)

    def set_flags(self, zf: str, lf: str) -> None:
        """Flags of CMP or TEST: zero and less-than; never unordered."""
        self.define("flags[0]", "zf", zf)
        self.define("flags[1]", "lf", lf)
        self.dirty["flags[2]"] = ("0", None)
        self.flags = ("zf", "lf", "0")

    def flush(self) -> None:
        """Store every dirty cell: on its defining line when there is
        one, else as a statement here."""
        lines = self.lines
        for cell, (value, at) in self.dirty.items():
            if at is None:
                lines.append(f"{cell} = {value}")
            else:
                lines[at] = f"{cell} = {lines[at]}"
        self.dirty.clear()

    def fault_lines(self, raise_stmt: str, extra_cycles: int = 0) -> list[str]:
        out = []
        charge = self.cycles + extra_cycles
        if charge:
            out.append(f"cyc[0] += {charge}")
        out.append(f"sl[0] += {_K} - {self.j + 1}")
        out.append(raise_stmt)
        return out

    def guard(self, cond: str, raise_stmt: str) -> None:
        self.flush()
        self.emit(f"if {cond}:")
        self.emit(*("    " + ln for ln in self.fault_lines(raise_stmt)))

    def ft(self, msg_expr: str) -> str:
        return f"raise _FT({msg_expr}, {self.j})"

    # -- operand fragments ------------------------------------------------

    def addr(self, m: Mem) -> str:
        parts = []
        if m.base is not None:
            parts.append(self.reg("gpr", m.base))
        if m.index is not None:
            index = self.reg("gpr", m.index)
            parts.append(f"{index} * {m.scale}" if m.scale != 1 else index)
        if m.disp or not parts:
            parts.append(str(m.disp))
        return " + ".join(parts)

    def read64(self, m: Mem) -> str:
        """Emit a checked read; returns the expression of the cell."""
        a = f"a{self.j}"
        self.emit(f"{a} = {self.addr(m)}")
        self.guard(
            f"not (0 <= {a} < top)",
            self.ft(f'f"memory read out of bounds: {{{a}}}"'),
        )
        return f"mem[{a}]"

    def write_addr(self, m: Mem, packed: bool = False) -> str:
        """Emit a checked write address; returns its local."""
        w = f"w{self.j}"
        self.emit(f"{w} = {self.addr(m)}")
        if packed:
            self.guard(
                f"not (0 <= {w} and {w} + 1 < top)",
                self.ft(f'f"packed memory write out of bounds: {{{w}}}"'),
            )
        else:
            self.guard(
                f"not (0 <= {w} < top)",
                self.ft(f'f"memory write out of bounds: {{{w}}}"'),
            )
        return w

    def src64(self, operand) -> str:
        """Expression for a 64-bit source; Mem emits a checked read."""
        if isinstance(operand, Reg):
            return self.reg("gpr", operand.index)
        if isinstance(operand, Imm):
            return str(operand.value & _M64)
        if isinstance(operand, Mem):
            var = f"v{self.j}"
            self.emit(f"{var} = {self.read64(operand)}")
            return var
        raise Unfusable

    def xsrc64(self, operand) -> str:
        if isinstance(operand, Xmm):
            return self.reg("xl", operand.index)
        if isinstance(operand, Mem):
            var = f"v{self.j}"
            self.emit(f"{var} = {self.read64(operand)}")
            return var
        raise Unfusable

    def xsrc128(self, operand) -> tuple[str, str]:
        """(lo, hi) captured in locals; Mem emits a checked 2-cell read."""
        j = self.j
        if isinstance(operand, Xmm):
            i = operand.index
            lo, hi = self.reg("xl", i), self.reg("xh", i)
        elif isinstance(operand, Mem):
            a = f"a{j}"
            self.emit(f"{a} = {self.addr(operand)}")
            self.guard(
                f"not (0 <= {a} and {a} + 1 < top)",
                self.ft(f'f"packed memory read out of bounds: {{{a}}}"'),
            )
            lo, hi = f"mem[{a}]", f"mem[{a} + 1]"
        else:
            raise Unfusable
        self.emit(f"lo{j} = {lo}", f"hi{j} = {hi}")
        return f"lo{j}", f"hi{j}"

    # -- inline IEEE conversions ------------------------------------------

    def float_op(self, sym: str, tag: str) -> str:
        """Emit ``fa{tag} sym fb{tag}`` into the float local it returns.
        A NaN sum or product takes its payload from
        ``ieee.commutative_nan``, as the helpers do."""
        fa, fb, fr = f"fa{tag}", f"fb{tag}", f"fr{tag}"
        self.emit(f"{fr} = {fa} {sym} {fb}")
        if sym != "-":
            self.emit(f"if {fr} != {fr}:",
                      f"    {fr} = commutative_nan({fa}, {fb}, {fr})")
        return fr

    def double_op(self, a: str, b: str, sym: str) -> str:
        """Emit binary64 ``a sym b`` on bit patterns; returns the result
        bits expression (valid until the scratch is next written)."""
        j = self.j
        self.emit(f"bq[0] = {a}", f"fa{j} = bd[0]", f"bq[0] = {b}", f"fb{j} = bd[0]")
        self.emit(f"bd[0] = {self.float_op(sym, str(j))}")
        return "bq[0]"

    def single_bits(self, value: str) -> str:
        """Emit the rounding of float *value* (a local) to binary32;
        returns the bits expression.  Overflow gives a signed infinity,
        as ``ieee.single_to_bits`` does where the view refuses."""
        self.emit("try:",
                  f"    bf[0] = {value}",
                  "except OverflowError:",
                  f"    bi[0] = {_NEG_INF32} if {value} < 0.0 else {_POS_INF32}")
        return "bi[0]"

    def single_op(self, a: str, b: str, sym: str, tag: str = "") -> str:
        """Emit binary32 ``a sym b`` on 32-bit patterns; returns the
        result bits expression."""
        tag = f"{self.j}{tag}"
        self.emit(f"bi[0] = {a}", f"fa{tag} = bf[0]", f"bi[0] = {b}", f"fb{tag} = bf[0]")
        return self.single_bits(self.float_op(sym, tag))

    def signed(self, v: str) -> str:
        return f"(({v} ^ _SB) - _SB)"

    def ucomi_flags(self) -> None:
        """Flags of an unordered compare of the floats ``fa{j}``/``fb{j}``."""
        j = self.j
        self.emit(f"if fa{j} != fa{j} or fb{j} != fb{j}:",
                  "    zf = 1",
                  "    lf = 0",
                  "    uf = 1",
                  "else:",
                  f"    zf = 1 if fa{j} == fb{j} else 0",
                  f"    lf = 1 if fa{j} < fb{j} else 0",
                  "    uf = 0")
        self.flags = ("zf", "lf", "uf")
        for k, name in enumerate(self.flags):
            self.dirty[f"flags[{k}]"] = (name, None)

    def truncate(self, d: int, f: str) -> None:
        """CVTT*2SI of float local *f* into ``gpr[d]``."""
        r = self.dest("gpr", d)
        self.emit(f"if {f} != {f} or {f} >= 9.223372036854776e18 or {f} < -9.223372036854776e18:",
                  f"    {r} = _INT_INDEFINITE",
                  "else:",
                  f"    {r} = int({f}) & _M64")

    # -- one instruction --------------------------------------------------

    def instruction(self, instr, cost: int) -> None:
        """Emit the body of one straight-line instruction.

        Mirrors ``VM._build`` exactly: same state effects, same trap
        messages, same evaluation order (source reads trap before
        destination writes; overflow checks precede source reads where
        the reference closure checks first).  Raises :class:`Unfusable`
        for opcodes/operand shapes without a template.
        """
        op = instr.opcode
        ops = instr.operands
        j = self.j
        e = self.emit
        reg = self.reg
        put = self.set

        if op is Op.NOP:
            pass

        elif op is Op.HALT:
            # Charges its own cost, then stops the machine: the fault
            # preamble with the HALT's cost included is exactly the
            # reference accounting.
            self.flush()
            e(*self.fault_lines("raise halt", extra_cycles=cost))
            self.halted = True

        elif op is Op.OUTI:
            e(f'outputs.append(("i", {reg("gpr", ops[0].index)}))')
        elif op is Op.OUTSD:
            e(f'outputs.append(("d", {reg("xl", ops[0].index)}))')
        elif op is Op.OUTSS:
            e(f'outputs.append(("s", {reg("xl", ops[0].index)} & _M32))')

        elif op is Op.RAND:
            e(f"s{j} = rng[0]",
              f"s{j} ^= s{j} >> 12",
              f"s{j} = (s{j} ^ (s{j} << 25)) & _M64",
              f"s{j} ^= s{j} >> 27",
              f"rng[0] = s{j}")
            put("gpr", ops[0].index, f"(s{j} * _XORSHIFT_MULT) & _M64")

        elif op is Op.MOV:
            dst, src = ops
            if isinstance(dst, Reg):
                if isinstance(src, (Reg, Imm)):
                    put("gpr", dst.index, self.src64(src))
                elif isinstance(src, Mem):
                    put("gpr", dst.index, self.read64(src))
                else:
                    raise Unfusable
            elif isinstance(dst, Mem):
                # Reference order: source evaluated first (its read may
                # trap), then the destination bounds check.
                sv = self.src64(src)
                e(f"mem[{self.write_addr(dst)}] = {sv}")
            else:
                raise Unfusable

        elif op is Op.LEA:
            put("gpr", ops[0].index, f"({self.addr(ops[1])}) & _M64")

        elif op in _INT_BIN_EXPR:
            d = ops[0].index
            src = ops[1]
            sv = self.src64(src)
            if op not in _SHIFTS:
                count = ""
            elif isinstance(src, Imm):
                count = str(src.value & 63)
            else:
                count = f"({sv} & 63)"
            expr = _INT_BIN_EXPR[op].format(d=reg("gpr", d), s=sv, c=count)
            put("gpr", d, expr)

        elif op is Op.IDIV or op is Op.IREM:
            d = ops[0].index
            sv = self.src64(ops[1])
            e(f"b{j} = {sv}")
            # Plain address-less VmTrap, exactly like the reference
            # _idiv/_irem helpers (resume() must not stamp an address).
            self.guard(
                f"b{j} == 0",
                'raise VmTrap("integer division by zero")',
            )
            e(f"sa{j} = {self.signed(reg('gpr', d))}",
              f"sb{j} = {self.signed(f'b{j}')}")
            if op is Op.IDIV:
                e(f"q{j} = abs(sa{j}) // abs(sb{j})",
                  f"if (sa{j} < 0) != (sb{j} < 0):",
                  f"    q{j} = -q{j}")
            else:
                e(f"q{j} = abs(sa{j}) % abs(sb{j})",
                  f"if sa{j} < 0:",
                  f"    q{j} = -q{j}")
            put("gpr", d, f"q{j} & _M64")

        elif op is Op.NOT:
            d = ops[0].index
            put("gpr", d, f"{reg('gpr', d)} ^ _M64")
        elif op is Op.NEG:
            d = ops[0].index
            put("gpr", d, f"(-{reg('gpr', d)}) & _M64")
        elif op is Op.INC:
            d = ops[0].index
            put("gpr", d, f"({reg('gpr', d)} + 1) & _M64")
        elif op is Op.DEC:
            d = ops[0].index
            put("gpr", d, f"({reg('gpr', d)} - 1) & _M64")

        elif op is Op.CMP:
            # Signed a < b is unsigned (a ^ _SB) < (b ^ _SB).  Against an
            # immediate b it folds to a range test on literals: a below
            # b, or a negative, when b >= 0; a negative and below b
            # otherwise.
            a = reg("gpr", ops[0].index)
            src = ops[1]
            b = self.src64(src)
            if not isinstance(src, Imm):
                lt = f"({a} ^ _SB) < ({b} ^ _SB)"
            elif int(b) < _SB:
                lt = f"{a} < {b} or {a} > {_SB - 1}"
            else:
                lt = f"{_SB - 1} < {a} < {b}"
            self.set_flags(f"1 if {a} == {b} else 0", f"1 if {lt} else 0")

        elif op is Op.TEST:
            sv = self.src64(ops[1])
            e(f"t{j} = {reg('gpr', ops[0].index)} & {sv}")
            self.set_flags(f"1 if t{j} == 0 else 0", f"t{j} >> 63")

        elif op is Op.PUSH:
            e(f"sp{j} = {reg('gpr', 15)} - 1")
            self.guard(f"sp{j} < limit", self.ft('"stack overflow"'))
            e(f"mem[sp{j}] = {self.src64(ops[0])}")
            put("gpr", 15, f"sp{j}")

        elif op is Op.POP:
            e(f"sp{j} = {reg('gpr', 15)}")
            self.guard(f"sp{j} >= top", self.ft('"stack underflow"'))
            put("gpr", ops[0].index, f"mem[sp{j}]")
            put("gpr", 15, f"sp{j} + 1")

        elif op is Op.PUSHX:
            x = ops[0].index
            e(f"sp{j} = {reg('gpr', 15)} - 2")
            self.guard(f"sp{j} < limit", self.ft('"stack overflow"'))
            e(f"mem[sp{j}] = {reg('xl', x)}",
              f"mem[sp{j} + 1] = {reg('xh', x)}")
            put("gpr", 15, f"sp{j}")

        elif op is Op.POPX:
            x = ops[0].index
            e(f"sp{j} = {reg('gpr', 15)}")
            self.guard(f"sp{j} + 1 >= top", self.ft('"stack underflow"'))
            put("xl", x, f"mem[sp{j}]")
            put("xh", x, f"mem[sp{j} + 1]")
            put("gpr", 15, f"sp{j} + 2")

        elif op is Op.MOVSD:
            dst, src = ops
            if isinstance(dst, Xmm):
                d = dst.index
                if isinstance(src, Xmm):
                    put("xl", d, reg("xl", src.index))
                elif isinstance(src, Mem):
                    put("xl", d, self.read64(src))
                    put("xh", d, "0")
                else:
                    raise Unfusable
            elif isinstance(dst, Mem) and isinstance(src, Xmm):
                w = self.write_addr(dst)
                e(f"mem[{w}] = {reg('xl', src.index)}")
            else:
                raise Unfusable

        elif op is Op.MOVAPD:
            dst, src = ops
            if isinstance(dst, Xmm):
                lo, hi = self.xsrc128(src)
                put("xl", dst.index, lo)
                put("xh", dst.index, hi)
            elif isinstance(dst, Mem) and isinstance(src, Xmm):
                s = src.index
                lo, hi = reg("xl", s), reg("xh", s)
                w = self.write_addr(dst, packed=True)
                e(f"mem[{w}] = {lo}",
                  f"mem[{w} + 1] = {hi}")
            else:
                raise Unfusable

        elif op in _FPD_BIN:
            d = ops[0].index
            sv = self.xsrc64(ops[1])
            a = reg("xl", d)
            fn = _FPD_BIN[op]
            if fn is None:
                put("xl", d, self.double_op(a, sv, _FP_ARITH[op]))
            else:
                put("xl", d, f"{fn}({a}, {sv})")

        elif op in _FPD_UN:
            sv = self.xsrc64(ops[1])
            put("xl", ops[0].index, f"{_FPD_UN[op]}({sv})")

        elif op is Op.UCOMISD or op is Op.UCOMISS:
            sv = self.xsrc64(ops[1])
            a = reg("xl", ops[0].index)
            if op is Op.UCOMISD:
                e(f"bq[0] = {a}", f"fa{j} = bd[0]",
                  f"bq[0] = {sv}", f"fb{j} = bd[0]")
            else:
                e(f"bi[0] = {a} & _M32", f"fa{j} = bf[0]",
                  f"bi[0] = {sv} & _M32", f"fb{j} = bf[0]")
            self.ucomi_flags()

        elif op is Op.CVTSI2SD:
            e(f"bd[0] = float({self.signed(reg('gpr', ops[1].index))})")
            put("xl", ops[0].index, "bq[0]")

        elif op is Op.CVTTSD2SI or op is Op.CVTTSS2SI:
            xs = reg("xl", ops[1].index)
            if op is Op.CVTTSD2SI:
                e(f"bq[0] = {xs}")
                e(f"f{j} = bd[0]")
            else:
                e(f"bi[0] = {xs} & _M32")
                e(f"f{j} = bf[0]")
            self.truncate(ops[0].index, f"f{j}")

        elif op is Op.CVTSD2SS:
            d = ops[0].index
            xs = reg("xl", ops[1].index)
            xd = reg("xl", d)
            e(f"bq[0] = {xs}", f"fr{j} = bd[0]")
            put("xl", d, f"({xd} & _HI32) | {self.single_bits(f'fr{j}')}")

        elif op is Op.CVTSS2SD:
            e(f"bi[0] = {reg('xl', ops[1].index)} & _M32", "bd[0] = bf[0]")
            put("xl", ops[0].index, "bq[0]")

        elif op in _FPN_BIN:
            d = ops[0].index
            sv = self.xsrc64(ops[1])
            a = reg("xl", d)
            put("xl", d, f"({a} & _HI32) | {_FPN_BIN[op]}({a} & 0xFFFF, ({sv}) & 0xFFFF)")

        elif op in _FPN_UN:
            d = ops[0].index
            sv = self.xsrc64(ops[1])
            put("xl", d, f"({reg('xl', d)} & _HI32) | {_FPN_UN[op]}(({sv}) & 0xFFFF)")

        elif op is Op.UCOMIBF or op is Op.UCOMIHF:
            dec = _FPN_CODEC_OPS[op][0]
            sv = self.xsrc64(ops[1])
            e(f"fa{j} = {dec}({reg('xl', ops[0].index)} & 0xFFFF)",
              f"fb{j} = {dec}(({sv}) & 0xFFFF)")
            self.ucomi_flags()

        elif op is Op.CVTSI2BF or op is Op.CVTSI2HF:
            enc = _FPN_CODEC_OPS[op][1]
            d = ops[0].index
            v = self.signed(reg("gpr", ops[1].index))
            put("xl", d, f"({reg('xl', d)} & _HI32) | {enc}(float({v}))")

        elif op is Op.CVTTBF2SI or op is Op.CVTTHF2SI:
            dec = _FPN_CODEC_OPS[op][0]
            e(f"f{j} = {dec}({reg('xl', ops[1].index)} & 0xFFFF)")
            self.truncate(ops[0].index, f"f{j}")

        elif op is Op.CVTSD2BF or op is Op.CVTSD2HF:
            enc = _FPN_CODEC_OPS[op][1]
            d = ops[0].index
            e(f"bq[0] = {reg('xl', ops[1].index)}")
            put("xl", d, f"({reg('xl', d)} & _HI32) | {enc}(bd[0])")

        elif op is Op.CVTBF2SD or op is Op.CVTHF2SD:
            dec = _FPN_CODEC_OPS[op][0]
            e(f"bd[0] = {dec}({reg('xl', ops[1].index)} & 0xFFFF)")
            put("xl", ops[0].index, "bq[0]")

        elif op is Op.MOVQXR:
            put("xl", ops[0].index, reg("gpr", ops[1].index))
        elif op is Op.MOVQRX:
            put("gpr", ops[0].index, reg("xl", ops[1].index))

        elif op in _PD_BIN:
            d = ops[0].index
            lo, hi = self.xsrc128(ops[1])
            a, b = reg("xl", d), reg("xh", d)
            fn = _PD_BIN[op]
            if fn is None:
                sym = _FP_ARITH[op]
                put("xl", d, self.double_op(a, lo, sym))
                put("xh", d, self.double_op(b, hi, sym))
            else:
                put("xl", d, f"{fn}({a}, {lo})")
                put("xh", d, f"{fn}({b}, {hi})")

        elif op is Op.SQRTPD:
            d = ops[0].index
            lo, hi = self.xsrc128(ops[1])
            put("xl", d, f"double_sqrt({lo})")
            put("xh", d, f"double_sqrt({hi})")

        elif op is Op.MOVSS:
            dst, src = ops
            if isinstance(dst, Xmm):
                d = dst.index
                if isinstance(src, Xmm):
                    put("xl", d, f"({reg('xl', d)} & _HI32) | ({reg('xl', src.index)} & _M32)")
                elif isinstance(src, Mem):
                    put("xl", d, f"{self.read64(src)} & _M32")
                    put("xh", d, "0")
                else:
                    raise Unfusable
            elif isinstance(dst, Mem) and isinstance(src, Xmm):
                xs = reg("xl", src.index)
                w = self.write_addr(dst)
                e(f"mem[{w}] = (mem[{w}] & _HI32) | ({xs} & _M32)")
            else:
                raise Unfusable

        elif op in _FPS_BIN:
            d = ops[0].index
            sv = self.xsrc64(ops[1])
            a = reg("xl", d)
            fn = _FPS_BIN[op]
            if fn is None:
                r = self.single_op(f"{a} & _M32", f"{sv} & _M32", _FP_ARITH[op])
            else:
                r = f"{fn}({a} & _M32, ({sv}) & _M32)"
            put("xl", d, f"({a} & _HI32) | {r}")

        elif op in _FPS_UN:
            d = ops[0].index
            sv = self.xsrc64(ops[1])
            put("xl", d, f"({reg('xl', d)} & _HI32) | {_FPS_UN[op]}(({sv}) & _M32)")

        elif op is Op.CVTSI2SS:
            # |int64| < FLT_MAX: the rounding to binary32 cannot overflow.
            d = ops[0].index
            e(f"bf[0] = float({self.signed(reg('gpr', ops[1].index))})")
            put("xl", d, f"({reg('xl', d)} & _HI32) | bi[0]")

        elif op in _PS_BIN:
            d = ops[0].index
            lo, hi = self.xsrc128(ops[1])
            fn = _PS_BIN[op]
            for arr, src in (("xl", lo), ("xh", hi)):
                a = reg(arr, d)
                lanes = []
                for shift in (32, 0):
                    la = f"({a} >> 32) & _M32" if shift else f"{a} & _M32"
                    lb = f"({src} >> 32) & _M32" if shift else f"{src} & _M32"
                    if fn is None:
                        lane = f"u{j}{arr}{shift}"
                        r = self.single_op(la, lb, _FP_ARITH[op], f"{arr}{shift}")
                        e(f"{lane} = {r}")
                    else:
                        lane = f"{fn}({la}, {lb})"
                    lanes.append(lane)
                put(arr, d, f"({lanes[0]} << 32) | {lanes[1]}")

        elif op is Op.SQRTPS:
            d = ops[0].index
            lo, hi = self.xsrc128(ops[1])
            put("xl", d, f"(single_sqrt(({lo} >> 32) & _M32) << 32) | single_sqrt({lo} & _M32)")
            put("xh", d, f"(single_sqrt(({hi} >> 32) & _M32) << 32) | single_sqrt({hi} & _M32)")

        elif op is Op.PEXTR or op is Op.PINSR:
            lane = ops[2].value
            if lane not in (0, 1):
                raise Unfusable
            arr = "xl" if lane == 0 else "xh"
            if op is Op.PEXTR:
                put("gpr", ops[0].index, reg(arr, ops[1].index))
            else:
                put(arr, ops[0].index, reg("gpr", ops[1].index))

        elif op is Op.MPIRANK:
            put("gpr", ops[0].index, "rank")
        elif op is Op.MPISIZE:
            put("gpr", ops[0].index, "size")

        elif op in (Op.ALLRED, Op.ALLREDSS, Op.BCASTSD, Op.BARRIER):
            # Local no-ops at size 1 (cost only); multi-rank collectives
            # yield to the scheduler, so they never join a fused run.
            if self.size != 1:
                raise Unfusable
            if op is not Op.BCASTSD and op is not Op.BARRIER:
                if ops[1].value not in (RED_SUM, RED_MIN, RED_MAX):
                    raise Unfusable

        elif op in (Op.ALLREDV, Op.ALLREDVSS):
            if self.size != 1:
                raise Unfusable
            if ops[1].value not in (RED_SUM, RED_MIN, RED_MAX):
                raise Unfusable
            e(f"a{j} = {self.addr(ops[0])}",
              f"n{j} = {reg('gpr', ops[2].index)}")
            self.guard(
                f"not (0 <= a{j} and a{j} + n{j} <= top)",
                self.ft(f'f"vector collective out of bounds: {{a{j}}}+{{n{j}}}"'),
            )

        else:
            raise Unfusable

        self.j += 1
        self.cycles += cost

    # -- terminators ------------------------------------------------------

    def terminator(self, instr, cost: int, branch_extra: int) -> int:
        """Emit the run's closing control transfer; returns the number
        of ``targets`` slots the factory call must fill.

        The fall-through total (all straight-line costs plus the
        terminator's own cost) is folded into each exit path as one
        constant; taken branches add the cost model's extra.
        """
        op = instr.opcode
        e = self.emit
        total = self.cycles + cost

        if op is Op.JMP:
            self.flush()
            e(f"cyc[0] += {total + branch_extra}",
              "return targets[0]")
            self.j += 1
            return 1

        if op in _COND_EXPR:
            z, lt, unord = self.flags or _LIST_FLAGS
            self.flush()
            e(f"if {_COND_EXPR[op].format(z=z, l=lt, u=unord)}:",
              f"    cyc[0] += {total + branch_extra}",
              "    return targets[0]",
              f"cyc[0] += {total}",
              f"return idx + {_K}")
            self.j += 1
            return 1

        if op is Op.CALL:
            e(f"spc = {self.reg('gpr', 15)} - 1")
            self.guard("spc < limit", self.ft('"stack overflow on call"'))
            e("mem[spc] = targets[1]")
            self.set("gpr", 15, "spc")
            self.flush()
            e(f"cyc[0] += {total}",
              "return targets[0]")
            self.j += 1
            return 2

        if op is Op.RET:
            e(f"spr = {self.reg('gpr', 15)}")
            self.guard("spr >= top", self.ft('"stack underflow on ret"'))
            e("ra = mem[spr]")
            self.set("gpr", 15, "spr + 1")
            e("tr = a2i.get(ra)")
            self.guard(
                "tr is None",
                self.ft('f"return to non-instruction address {ra:#x}"'),
            )
            e(f"cyc[0] += {total}",
              "return tr")
            self.j += 1
            return 0

        raise Unfusable


# -- factory assembly ------------------------------------------------------

#: a run must replace at least this many dispatches to be worth a frame.
MIN_RUN = 2

_FACTORY_SIG = (
    "def _factory(gpr, mem, xl, xh, flags, outputs, rng, cyc, sl, "
    "limit, top, a2i, tail, bq, bd, bi, bf, targets, rank, size, halt):"
)

#: cost model -> {(run template bytes, terminator opcode, size==1):
#: exec'd factory}.  Factories are position- and VM-independent, so the
#: cache is process-global: every Machine, worker and rebind in the
#: process shares compiled run bodies.  The model (a frozen dataclass
#: whose hash walks every field) is paid once per load via the outer
#: dict instead of once per run.
_FACTORIES: dict = {}

#: number of run bodies actually exec-compiled (cache misses), kept for
#: the dispatch microbenchmark and tests.
_COMPILED = [0]


def compiled_runs() -> int:
    return _COMPILED[0]


def clear_factory_cache() -> None:
    _FACTORIES.clear()
    _COMPILED[0] = 0


#: marker distinguishing "never compiled" from the None sentinel that
#: records a run whose emission raised :class:`Unfusable`.
_MISS = object()


def _assemble(em: _RunEmitter, open_ended: bool) -> str:
    """Render the emitter's body into factory source.

    *open_ended* runs (no terminator, no HALT) fall through: they charge
    the constant total and advance past the run.
    """
    k = em.j
    lines = [_FACTORY_SIG, "    def _fused(idx):"]
    lines.append(f"        if sl[0] < {k}:")
    lines.append("            return tail(idx)")
    lines.append(f"        sl[0] -= {k}")
    lines.extend("        " + ln for ln in em.lines)
    if open_ended:
        if em.cycles:
            lines.append(f"        cyc[0] += {em.cycles}")
        lines.append(f"        return idx + {k}")
    lines.append("    return _fused")
    return "\n".join(lines).replace(_K, str(k)) + "\n"


def _compile_run(instrs, costs, start, k_members, term_i, size, branch_extra):
    """Exec-compile the factory for one run; None if emission refuses.

    Covers the rare operand shapes the cheap fusability tables admit but
    the emitter has no template for: the None lands in ``_FACTORIES`` as
    a sentinel, so the shape is probed exactly once per unique run key.
    """
    em = _RunEmitter(size)
    try:
        for i in range(start, start + k_members):
            em.instruction(instrs[i], costs[i])
        if term_i >= 0:
            em.terminator(instrs[term_i], costs[term_i], branch_extra)
        open_ended = term_i < 0 and not em.halted
        if open_ended:
            em.flush()
        src = _assemble(em, open_ended)
    except Unfusable:
        return None
    ns: dict = {}
    exec(compile(src, "<fused-run>", "exec"), _EXEC_GLOBALS, ns)
    factory = ns["_factory"]
    factory.__fused_source__ = src
    _COMPILED[0] += 1
    return factory


_TERMINATORS = frozenset(_COND_EXPR) | {Op.JMP, Op.CALL, Op.RET}

#: collectives become straight-line code only in single-rank mode; with
#: size > 1 they yield to the rank scheduler and stay on the slow path.
_MPI_MEMBERS = frozenset(
    (Op.ALLRED, Op.ALLREDSS, Op.BCASTSD, Op.BARRIER, Op.ALLREDV, Op.ALLREDVSS)
)

#: every opcode ``_RunEmitter.instruction`` has a template for.  Used for
#: run *detection*, which must be cheap: source is generated only when the
#: process-global factory cache misses the run's key.
_MEMBER_OPS = (
    frozenset(
        (
            Op.NOP, Op.HALT, Op.OUTI, Op.OUTSD, Op.OUTSS, Op.RAND, Op.MOV,
            Op.LEA, Op.IDIV, Op.IREM, Op.NOT, Op.NEG, Op.INC, Op.DEC,
            Op.CMP, Op.TEST, Op.PUSH, Op.POP, Op.PUSHX, Op.POPX,
            Op.MOVSD, Op.MOVAPD, Op.MOVSS, Op.UCOMISD, Op.UCOMISS,
            Op.CVTSI2SD, Op.CVTSI2SS, Op.CVTTSD2SI, Op.CVTTSS2SI,
            Op.CVTSD2SS, Op.CVTSS2SD, Op.MOVQXR, Op.MOVQRX,
            Op.SQRTPD, Op.SQRTPS, Op.PEXTR, Op.PINSR,
            Op.MPIRANK, Op.MPISIZE,
        )
    )
    | frozenset(_INT_BIN_EXPR)
    | frozenset(_FPD_BIN)
    | frozenset(_FPD_UN)
    | frozenset(_FPS_BIN)
    | frozenset(_FPS_UN)
    | frozenset(_FPN_BIN)
    | frozenset(_FPN_UN)
    | frozenset(_FPN_CODEC_OPS)
    | frozenset(_PD_BIN)
    | frozenset(_PS_BIN)
    | _MPI_MEMBERS
)


def vm_state(vm) -> tuple:
    """The VM-bound leading arguments of every run factory."""
    return (
        vm.gpr, vm.mem, vm.xmm_lo, vm.xmm_hi, vm.flags, vm.outputs,
        vm.rng, vm._cyc, vm._sl, vm.stack_limit, len(vm.mem),
        vm._addr2idx, vm._fused_tail, *vm._scratch,
    )


def _scan_span(vm, lo: int, hi: int, leaders) -> list:
    """Detect the fusable runs of instruction span ``[lo, hi)``.

    Returns the span's *partition*: ``(rel_start, k_total, term_rel,
    term_opcode)`` tuples plus the run's compiled factory, all relative
    to *lo* and free of any per-load data — branch targets stay out (the
    terminator's operand is resolved at instantiation time), so a
    partition computed once for a segment template is valid for every
    later placement of the same template.

    Run keys into the factory cache are the members' *raw text bytes*
    plus the terminator's opcode.  Member encodings carry no positional
    data — branches and calls never join the member stretch — so
    identical bytes at any address decode to identical instructions, and
    factories are shared across layouts, configurations, VMs and rebinds
    process-wide.  A bytes slice hashes at C speed, which keeps the
    per-load key cost negligible when a partition is not cached.
    """
    instrs = vm._instrs
    costs = vm._inst_costs
    addrs = vm._instr_addrs
    text = vm.program.text
    n = len(instrs)
    size = vm.size
    model = vm.cost_model
    branch_extra = model.branch_taken_extra
    size_one = size == 1
    members = _MEMBER_OPS
    mpi = _MPI_MEMBERS
    terms = _TERMINATORS
    factories = _FACTORIES.setdefault(model, {})
    part: list = []
    i = lo
    while i < hi:
        start = i
        halted = False
        while i < hi:
            if i in leaders and i > start:
                break
            op = instrs[i].opcode
            if op not in members or (op in mpi and not size_one):
                break
            i += 1
            if op is Op.HALT:
                halted = True
                break
        term_i = -1
        if (
            not halted
            and i > start
            and i < hi
            and instrs[i].opcode in terms
        ):
            term_i = i
            i += 1
        k_members = (term_i if term_i >= 0 else i) - start
        k_total = k_members + (term_i >= 0)
        if k_total >= MIN_RUN:
            m_end = start + k_members
            term_op = instrs[term_i].opcode if term_i >= 0 else None
            key = (
                text[addrs[start] : addrs[m_end] if m_end < n else len(text)],
                term_op,
                size_one,
            )
            factory = factories.get(key, _MISS)
            if factory is _MISS:
                vm.fuse_misses += 1
                factory = _compile_run(
                    instrs, costs, start, k_members, term_i, size,
                    branch_extra,
                )
                factories[key] = factory
                if factory is not None:
                    vm.load_fused += 1
            elif factory is not None:
                vm.fuse_hits += 1
            if factory is not None:
                part.append(
                    (
                        start - lo,
                        k_total,
                        term_i - lo if term_i >= 0 else -1,
                        term_op,
                        factory,
                    )
                )
            else:
                # Emission refused a member: rescan past the first
                # instruction so a fusable suffix still gets found.
                i = start + 1
        elif i == start:
            i += 1  # non-fusable: stays on the per-instruction path
    return part


def _instantiate(vm, fcode, covered, lo: int, part, state, halt) -> None:
    """Bind one span's partition to this load: resolve the terminator
    targets from the patched text and call each run's factory."""
    instrs = vm._instrs
    addrs = vm._instr_addrs
    n = len(instrs)
    rank = vm.rank
    size = vm.size
    for rel, k_total, term_rel, term_op, factory in part:
        start = lo + rel
        targets: tuple = ()
        if term_rel >= 0:
            ti = lo + term_rel
            if term_op is Op.CALL:
                targets = (
                    vm._branch_index(instrs[ti].operands[0], addrs[ti]),
                    addrs[ti + 1] if ti + 1 < n else -1,
                )
            elif term_op is not Op.RET:
                targets = (
                    vm._branch_index(instrs[ti].operands[0], addrs[ti]),
                )
        fcode[start] = factory(*state, targets, rank, size, halt)
        for c in range(start, start + k_total):
            covered[c] = 1


def build_fcode(vm, halt) -> tuple[list, bytearray]:
    """Build the fused dispatch array for *vm*'s freshly loaded program
    (the whole text as one span; segment loads use :func:`scan_segment`).

    Returns ``(fcode, covered)``: ``fcode`` is the list
    the VM's fused loop indexes — a fused closure at every run head,
    None everywhere else (interior entries single-step the reference
    closures) — and ``covered[i]`` flags every instruction inside a
    fused run, so the loader may defer compiling its reference closure.
    """
    instrs = vm._instrs
    n = len(instrs)
    fcode: list = [None] * n
    covered = bytearray(n)
    state = vm_state(vm)
    # Basic-block leaders: every branch/call target starts its own run,
    # so dynamic control transfers always land on a fused head instead
    # of single-stepping through a run interior.
    a2i = vm._addr2idx
    terms = _TERMINATORS
    leaders = set()
    for ins in instrs:
        op = ins.opcode
        if op in terms and op is not Op.RET:
            t = a2i.get(ins.operands[0].value)
            if t is not None:
                leaders.add(t)
    part = _scan_span(vm, 0, n, leaders)
    if part:
        _instantiate(vm, fcode, covered, 0, part, state, halt)
    return fcode, covered


def scan_segment(vm, seg_bytes: bytes, lo: int, hi: int, leaders,
                 partitions: dict) -> list:
    """Scan the fused runs of a segment template placed at ``[lo, hi)``
    and record its partition in *partitions* under the template bytes.

    A segment template's run partition depends only on its own
    instruction sequence: member operands are final in the template
    bytes, terminator *targets* stay outside the partition, and interior
    run leaders can only come from the segment's own branches (original
    branches target block starts — segment heads — and snippet branches
    are intra-block).  So the loader scans once per template and every
    later placement only re-binds the runs whose terminator targets
    moved (see ``VM._retarget``).
    """
    part = partitions[seg_bytes] = _scan_span(vm, lo, hi, leaders)
    return part
