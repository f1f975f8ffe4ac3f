"""Fused superinstruction dispatch: exact parity with the reference loop.

The fused path (:mod:`repro.vm.fuse`) replaces each straight-line run
with one generated closure.  Its contract is *bit- and cycle-identity*
with the per-instruction reference loop on every observable — outputs,
cycles, steps, trap messages, trap addresses — on every path, including
the awkward ones this file exists for: the step budget expiring in the
middle of a fused run, a fault on the last instruction of a fused pair,
and a collective yield resuming execution inside a specialized segment.

``VM(..., fused=False)`` is the reference; it is the exact loop the
fused path replaced (also reachable via ``REPRO_NO_FUSE=1``).
"""

import random
import sys
import threading

import pytest

from repro.asm import AsmBuilder, LabelRef
from repro.compiler import CompileOptions, compile_source
from repro.config import Config, build_tree
from repro.instrument import InstrumentCache, instrument
from repro.isa import Imm, Mem, Op, Reg, Xmm
from repro.isa.opcodes import OPCODE_INFO
from repro.mpi import MultiRankRunner
from repro.vm import VM, Machine, fuse
from repro.vm.errors import VmTimeout, VmTrap
from repro.workloads import make_nas
from tests.vm.conftest import machine_state


def _loop_program(n):
    builder = AsmBuilder()
    builder.func("_start")
    builder.emit(Op.MOV, Reg(0), Imm(0))
    builder.mark("top")
    builder.emit(Op.INC, Reg(0))
    builder.emit(Op.CMP, Reg(0), Imm(n))
    builder.emit(Op.JL, LabelRef("top"))
    builder.emit(Op.OUTI, Reg(0))
    builder.emit(Op.HALT)
    builder.endfunc()
    return builder.link()


def _pair(program, **kw):
    """(fused VM, reference VM) for the same program and parameters."""
    fused = VM(program, **kw)
    ref = VM(program, fused=False, **kw)
    assert fused._fcode is not None and any(fused._fcode), (
        "test is vacuous: the program produced no fused run"
    )
    assert ref._fcode is None
    return fused, ref


def _assert_same_trap(program, match, **kw):
    """Both paths trap with the identical message, address, steps, cycles
    and leave the identical machine state behind."""
    fused, ref = _pair(program, **kw)
    with pytest.raises(VmTrap, match=match) as got_f:
        fused.run()
    with pytest.raises(VmTrap, match=match) as got_r:
        ref.run()
    assert str(got_f.value) == str(got_r.value)
    assert got_f.value.addr == got_r.value.addr
    assert fused.steps == ref.steps
    assert fused.cycles == ref.cycles
    assert fused.outputs == ref.outputs
    assert machine_state(fused) == machine_state(ref)
    return got_f.value


class TestBudgetEdges:
    def test_budget_expiring_mid_run_every_alignment(self):
        # The loop body (inc+cmp+jl) is one fused run of 3; sweeping the
        # budget over several periods lands the expiry on every relative
        # position inside the run — including budgets smaller than the
        # run, which exercise the _fused_tail deopt.
        full = _loop_program(50)
        total = VM(full, fused=False).run().steps
        for budget in list(range(1, 16)) + [total - 1]:
            fused, ref = _pair(full, max_steps=budget)
            with pytest.raises(VmTimeout) as got_f:
                fused.run()
            with pytest.raises(VmTimeout) as got_r:
                ref.run()
            assert str(got_f.value) == str(got_r.value)
            assert fused.steps == ref.steps, f"budget={budget}"
            assert fused.cycles == ref.cycles, f"budget={budget}"

    def test_budget_exactly_sufficient(self):
        full = _loop_program(50)
        total = VM(full, fused=False).run().steps
        fused, ref = _pair(full, max_steps=total)
        assert fused.run() == ref.run()

    def test_zero_remaining_budget_still_charges_one_step(self):
        fused, ref = _pair(_loop_program(50), max_steps=0)
        with pytest.raises(VmTimeout):
            fused.run()
        with pytest.raises(VmTimeout):
            ref.run()
        assert fused.steps == ref.steps == 1


class TestTrapParity:
    def test_trap_on_last_instruction_of_fused_pair(self):
        # inc + ret fuse into one run of two; the terminator faults.
        builder = AsmBuilder()
        builder.func("_start")
        builder.emit(Op.INC, Reg(0))
        builder.emit(Op.RET)
        builder.endfunc()
        trap = _assert_same_trap(builder.link(), "stack underflow on ret")
        assert trap.addr >= 0

    def test_trap_mid_run_charges_partial_cycles(self):
        # Third member of a four-instruction run faults: the fused run
        # must charge exactly the two completed instructions' cycles and
        # repay the unexecuted suffix to the step budget.
        builder = AsmBuilder()
        builder.func("_start")
        builder.emit(Op.MOV, Reg(0), Imm(10**6))
        builder.emit(Op.INC, Reg(1))
        builder.emit(Op.MOV, Mem(base=0), Reg(1))
        builder.emit(Op.HALT)
        builder.endfunc()
        trap = _assert_same_trap(builder.link(), "write out of bounds")
        assert trap.addr >= 0

    def test_trap_on_first_instruction_of_run(self):
        builder = AsmBuilder()
        builder.func("_start")
        builder.emit(Op.POP, Reg(0))
        builder.emit(Op.HALT)
        builder.endfunc()
        _assert_same_trap(builder.link(), "stack underflow")

    def test_division_by_zero_stays_addressless(self):
        # The reference _idiv helper raises a plain VmTrap with no text
        # address; the fused template must not start stamping one.
        builder = AsmBuilder()
        builder.func("_start")
        builder.emit(Op.MOV, Reg(0), Imm(5))
        builder.emit(Op.MOV, Reg(1), Imm(0))
        builder.emit(Op.IDIV, Reg(0), Reg(1))
        builder.emit(Op.HALT)
        builder.endfunc()
        trap = _assert_same_trap(builder.link(), "division by zero")
        assert trap.addr == -1


class TestResumeMidSegment:
    def test_resume_into_run_interior_single_steps_to_next_head(self):
        # Entering at the cmp (index 2) lands inside the inc+cmp+jl run:
        # the fused loop must single-step the reference closures until
        # dispatch reaches the next run head, with exact accounting.
        program = _loop_program(30)
        fused, ref = _pair(program)
        assert fused._fcode[2] is None, "expected a run-interior entry"
        assert fused.resume(2) and ref.resume(2)
        assert fused.outputs == ref.outputs
        assert fused.steps == ref.steps
        assert fused.cycles == ref.cycles

    def test_collective_yield_resumes_into_specialized_segment(self):
        # Multi-rank: every allreduce yields to the scheduler and resumes
        # at the next instruction, mid-block.  Fused and reference
        # runners must agree on every per-rank observable.
        src = """
        const N: i64 = 64;
        fn main() {
            var rank: i64 = mpi_rank();
            var size: i64 = mpi_size();
            var acc: real = 0.0;
            for i in 0 .. N {
                if i % size == rank {
                    acc = acc + 1.0 / real(i + 1);
                }
                acc = allreduce_sum(acc) / real(size);
            }
            out(acc);
        }
        """
        program = compile_source(src, CompileOptions())
        fused_runner = MultiRankRunner(program, 4)
        assert any(
            vm._fcode is not None and any(vm._fcode)
            for vm in fused_runner.vms
        ), "test is vacuous: no rank built a fused run"
        ref_runner = MultiRankRunner(program, 4)
        for vm in ref_runner.vms:
            vm._fcode = None  # force the reference loop
        got_f = fused_runner.run()
        got_r = ref_runner.run()
        assert got_f.values() == got_r.values()
        assert fused_runner.collectives == ref_runner.collectives
        for rank_f, rank_r in zip(got_f.per_rank, got_r.per_rank):
            assert rank_f.outputs == rank_r.outputs
            assert rank_f.cycles == rank_r.cycles
            assert rank_f.steps == rank_r.steps


class TestSegmentPartitionCache:
    def test_partition_cached_segments_stay_byte_identical(self):
        # The searcher's shape: one Machine, repeated instrumented builds
        # of one workload.  The second and later loads take the cached
        # partition path (template bytes -> run partition); results must
        # match a cold, unfused VM exactly.
        workload = make_nas("cg", "T")
        tree = build_tree(workload.program)
        cache = InstrumentCache(workload.program)
        machine = Machine(**workload.vm_params())
        params = workload.vm_params()
        for config in (Config.all_double(tree), Config.all_single(tree)):
            built = instrument(workload.program, config, cache=cache)
            for _ in range(2):  # second run rebinds through the partitions
                warm = machine.run(built.program, built.segments)
                ref = VM(built.program, fused=False, **params).run()
                assert warm.outputs == ref.outputs
                assert warm.cycles == ref.cycles
                assert warm.steps == ref.steps
        assert machine._cache is not None
        assert machine._cache._fuse_partitions, (
            "segment loads never populated the partition cache"
        )
        assert machine.fuse_cache_hits > 0


# -- random straight-line runs: state-exact ----------------------------------

#: bit patterns the float templates must treat exactly like the helpers:
#: signed zeros, denormals, the binary32 overflow edge, infinities,
#: quiet and signalling NaNs with payloads, and NaN-boxed singles.
_PATTERNS = [
    0, 1, 0x8000000000000000, 0x7FFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF,
    0x3FF0000000000000, 0xC000000000000000, 0x0000000000000001,
    0x47EFFFFFE0000000, 0x47EFFFFFF0000000, 0x47F0000000000000,
    0xC7F0000000000000, 0x7FEFFFFFFFFFFFFF, 0x7FF0000000000000,
    0xFFF0000000000000, 0x7FF8000000000000, 0x7FF0000000000001,
    0xFFF4DEAD12345678, 0x7FF4DEAD3F800000, 0x7FF4DEAD7F7FFFFF,
    0x7FF4DEAD7F800001, 0x7FF4DEADFFC00001, 0x7FF4DEAD00000001,
    0x7FF41BF57FA13F80, 0x7FF42DEA00007C01, 0x000000007F800001,
    0x0000000080000000, 0x12345678, 0xFFFFFFFF80000000, 2**40 + 3,
]
_GPRS = (0, 1, 2, 3, 4, 12)
_XMMS = (0, 1, 2, 3)
_BASE = 6  # holds a valid data address; never a destination
_DATA_WORDS = 32
_RANDOM_OPS = (
    Op.MOV, Op.MOV, Op.ADD, Op.SUB, Op.IMUL, Op.AND, Op.OR, Op.XOR,
    Op.SHL, Op.SHR, Op.SAR, Op.NOT, Op.NEG, Op.INC, Op.DEC, Op.CMP,
    Op.CMP, Op.TEST, Op.IDIV, Op.IREM, Op.LEA, Op.PUSH, Op.POP,
    Op.PUSHX, Op.POPX, Op.MOVSD, Op.MOVSS, Op.MOVAPD, Op.MOVQXR,
    Op.MOVQRX, Op.MOVQRX, Op.ADDSD, Op.SUBSD, Op.MULSD, Op.DIVSD,
    Op.MINSD, Op.SQRTSD, Op.ADDSS, Op.SUBSS, Op.MULSS, Op.DIVSS,
    Op.MAXSS, Op.UCOMISD, Op.UCOMISS, Op.CVTSI2SD, Op.CVTSI2SS,
    Op.CVTTSD2SI, Op.CVTTSS2SI, Op.CVTSD2SS, Op.CVTSD2SS, Op.CVTSS2SD,
    Op.ADDPD, Op.SUBPD, Op.MULPD, Op.DIVPD, Op.ADDPS, Op.SUBPS,
    Op.MULPS, Op.DIVPS, Op.SQRTPS, Op.PEXTR, Op.PINSR, Op.RAND,
    Op.OUTI, Op.OUTSD, Op.OUTSS, Op.ADDBF, Op.MULHF, Op.UCOMIBF,
    Op.UCOMIHF, Op.CVTSD2BF, Op.CVTBF2SD, Op.CVTSI2HF, Op.CVTTHF2SI,
)
_BRANCHES = (Op.JE, Op.JNE, Op.JL, Op.JLE, Op.JG, Op.JGE, Op.JP, Op.JNP)


def _random_operand(rng, letter, op, k):
    if letter == "R":
        return Reg(rng.choice(_GPRS))
    if letter == "X":
        return Xmm(rng.choice(_XMMS))
    if letter == "I":
        if op in (Op.PEXTR, Op.PINSR):
            return Imm(rng.choice((0, 1)) if k == 2 else 0)
        return Imm(rng.choice((0, 1, 5, 31, 32, 63, 64, 65, -1, -7,
                               0x7FF4DEAD, rng.choice(_PATTERNS))))
    roll = rng.random()
    if roll < 0.03:  # the occasional out-of-bounds access
        return Mem(disp=rng.choice((-1, 10**7)))
    if roll < 0.5:
        return Mem(disp=rng.randrange(_DATA_WORDS - 1))
    return Mem(base=_BASE, disp=rng.randrange(-2, _DATA_WORDS - 6))


def _random_program(seed):
    """A straight-line program over a few registers, cut into runs by
    forward branches; every float op sees the special patterns."""
    rng = random.Random(seed)
    builder = AsmBuilder()
    builder.global_("g", _DATA_WORDS,
                    [rng.choice(_PATTERNS) for _ in range(_DATA_WORDS)])
    builder.func("_start")
    builder.emit(Op.MOV, Reg(_BASE), Imm(2))
    for r in _GPRS:
        builder.emit(Op.MOV, Reg(r), Imm(rng.choice(_PATTERNS)))
    for x in _XMMS:
        builder.emit(Op.MOVAPD, Xmm(x), Mem(disp=rng.randrange(_DATA_WORDS - 1)))
    builder.emit(Op.PUSH, Reg(0))
    builder.emit(Op.PUSHX, Xmm(0))
    labels = []
    for i in range(rng.randrange(20, 60)):
        while labels and labels[0][0] <= i:
            builder.mark(labels.pop(0)[1])
        op = rng.choice(_RANDOM_OPS)
        sig = rng.choice(OPCODE_INFO[op].sigs)
        letters = [rng.choice(alt) for alt in sig]
        builder.emit(op, *(_random_operand(rng, ch, op, k)
                           for k, ch in enumerate(letters)))
        if rng.random() < 0.15:
            label = f"L{i}"
            builder.emit(rng.choice(_BRANCHES), LabelRef(label))
            labels.append((i + rng.randrange(1, 6), label))
            labels.sort()
    for _, label in labels:
        builder.mark(label)
    builder.emit(Op.OUTI, Reg(0))
    builder.emit(Op.OUTSD, Xmm(0))
    builder.emit(Op.HALT)
    builder.endfunc()
    return builder.link()


def _final(vm):
    """Outcome of one run plus the machine state it leaves behind."""
    try:
        result = vm.run()
        got = ("ok", result.outputs, result.cycles, result.steps)
    except VmTrap as exc:
        got = ("trap", str(exc), exc.addr, vm.outputs, vm.cycles, vm.steps)
    return got, machine_state(vm)


class TestRandomRuns:
    @pytest.mark.parametrize("chunk", range(8))
    def test_random_runs_are_state_exact(self, chunk):
        # Registers and flags live in locals inside a run and are
        # stored back only before guards and exits: every HALT and every
        # trap must still leave exactly the reference machine state.
        outcomes = set()
        for seed in range(chunk * 40, chunk * 40 + 40):
            program = _random_program(seed)
            fused, ref = _pair(program, max_steps=10_000)
            got_f, state_f = _final(fused)
            got_r, state_r = _final(ref)
            assert got_f == got_r, f"seed {seed}"
            assert state_f == state_r, f"seed {seed}"
            outcomes.add(got_f[0])
        assert outcomes == {"ok", "trap"}, "both outcomes must be exercised"


class TestInlineConversions:
    @pytest.mark.parametrize(
        "op", [Op.ADDSD, Op.SUBSD, Op.MULSD, Op.ADDSS, Op.SUBSS, Op.MULSS,
               Op.UCOMISD, Op.UCOMISS, Op.CVTSD2SS, Op.CVTSS2SD,
               Op.CVTTSD2SI, Op.CVTTSS2SI],
        ids=lambda o: o.name,
    )
    def test_special_patterns_match_the_helpers(self, op):
        # Every pair of special patterns through the inlined conversion:
        # NaN payloads, binary32 overflow to infinity, denormals.
        builder = AsmBuilder()
        builder.global_("g", len(_PATTERNS), _PATTERNS)
        builder.func("_start")
        for a in range(len(_PATTERNS)):
            for b in range(0, len(_PATTERNS), 3):
                builder.emit(Op.MOVSD, Xmm(0), Mem(disp=a))
                builder.emit(Op.MOVSD, Xmm(1), Mem(disp=b))
                if op in (Op.CVTTSD2SI, Op.CVTTSS2SI):
                    builder.emit(op, Reg(0), Xmm(1))
                    builder.emit(Op.OUTI, Reg(0))
                else:
                    builder.emit(op, Xmm(0), Xmm(1))
                    builder.emit(Op.PUSH, Reg(15))  # flags and lanes stay live
                    builder.emit(Op.POP, Reg(1))
                builder.emit(Op.OUTSD, Xmm(0))
        builder.emit(Op.HALT)
        builder.endfunc()
        fused, ref = _pair(builder.link())
        assert _final(fused) == _final(ref)


class TestScratchIsolation:
    def _programs(self):
        built = []
        for bench in ("ep", "mg"):
            program = make_nas(bench, "S").program
            config = Config.all_single(build_tree(program))
            built.append(instrument(program, config).program)
        return built * 2

    def test_concurrent_fused_vms_match_sequential_runs(self):
        # The conversion scratch is per VM: more threads than cores, each
        # running a fused, float-heavy instrumented program and switching
        # as often as the interpreter allows, must get the sequential
        # answers.
        programs = self._programs()
        expected = [_final(VM(p)) for p in programs]
        vms = [VM(p) for p in programs]
        got = [None] * len(vms)

        def run(k):
            got[k] = _final(vms[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,))
                       for k in range(len(vms))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == expected
        # Each VM's runs convert through that VM's own buffers.  (Under
        # the GIL a switch cannot land between a scratch store and its
        # load, so this is what catches a shared buffer.)
        buffers = [{id(view.obj) for view in vm._scratch} for vm in vms]
        assert all(len(own) == 2 for own in buffers)
        assert len(set().union(*buffers)) == 2 * len(vms)
        for vm, own in zip(vms, buffers):
            bound = 0
            for f in vm._fcode:
                if f is None:
                    continue
                cells = dict(zip(f.__code__.co_freevars, f.__closure__))
                for name in set(cells) & {"bq", "bd", "bi", "bf"}:
                    assert id(cells[name].cell_contents.obj) in own
                    bound += 1
            assert bound, "no fused run converted through the scratch"


def test_flag_test_run_keeps_state_in_locals():
    # The instrumented flag test (movq r12,x3; shr r12,32; cmp r12,
    # sentinel; je) is the hottest run of every replaced program.  Its
    # body stores r12 once, branches on a flag local, folds the shift
    # count and the signed compare, and converts nothing through helpers.
    builder = AsmBuilder()
    builder.func("_start")
    builder.emit(Op.MOVQRX, Reg(12), Xmm(3))
    builder.emit(Op.SHR, Reg(12), Imm(32))
    builder.emit(Op.CMP, Reg(12), Imm(0x7FF4DEAD))
    builder.emit(Op.JE, LabelRef("done"))
    builder.mark("done")
    builder.emit(Op.HALT)
    builder.endfunc()
    fused, ref = _pair(builder.link())
    run = fused._fcode[0]
    sources = [
        factory.__fused_source__
        for per_model in fuse._FACTORIES.values()
        for factory in per_model.values()
        if factory is not None and run.__code__ in factory.__code__.co_consts
    ]
    assert len(sources) == 1
    body = sources[0]
    assert body.count("gpr[12] =") == 1
    assert body.count("flags[0] =") == 1
    assert "if zf:" in body
    for call in ("_s64(", "bits_to_double(", "double_to_bits(", "& 63"):
        assert call not in body, call
    assert _final(fused) == _final(ref)
