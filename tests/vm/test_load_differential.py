"""Load differential: warm segment loads against fresh reference runs.

Records every instrumented program a serial class-T search evaluates on
the nine-workload suite, then replays them through one persistent
``Machine`` — in search order and in a seeded shuffled order — and
compares each run with a fresh ``run_program(program, fused=False)``:
outputs, cycles, steps, and trap message and address.  Two more legs
drive the lazily compiled run interiors (a step budget that expires
inside fused runs) and a trapping configuration through the same warm
path.
"""

import random

import pytest

from repro.asm import AsmBuilder
from repro.config import Config, Policy, build_tree
from repro.instrument import InstrumentCache, instrument
from repro.isa.encode import decode_instruction
from repro.isa.opcodes import Op
from repro.isa.operands import Imm, Mem, Reg
from repro.search import SearchEngine, SearchOptions
from repro.search.evaluator import IncrementalState
from repro.vm import VM, CompiledSegmentCache, Machine, run_program
from repro.vm.errors import VmTrap
from repro.vm.machine import _NO_FUSE
from repro.workloads import make_workload
from tests.conftest import compile_src

SUITE = ("bt", "cg", "ep", "ft", "lu", "mg", "sp", "heat", "nekcg")

TRAP_SRC = """
var a: real[4] = [1.0, 2.0, 3.0, 4.0];
fn main() {
    var x: real = 3.0;
    var y: real = x * 1.0;
    var k: i64 = i64(y);
    out(a[k]);
}
"""


def _outcome(run) -> tuple:
    """(outputs, cycles, steps, trap message, trap address) of *run*."""
    try:
        result = run()
    except VmTrap as exc:
        return None, None, None, str(exc), exc.addr
    return result.outputs, result.cycles, result.steps, None, None


def _reference(program, params) -> tuple:
    return _outcome(lambda: run_program(program, fused=False, **params))


@pytest.fixture(scope="module")
def recorded():
    """``(workload, program, segments)`` per evaluated configuration, in
    search order, plus each workload's VM parameters."""
    runs: list = []
    params: dict = {}
    original = IncrementalState.run

    def record(state, workload, instrumented):
        runs.append((workload.name, instrumented.program, instrumented.segments))
        return original(state, workload, instrumented)

    IncrementalState.run = record
    try:
        for name in SUITE:
            workload = make_workload(name, "T")
            params[workload.name] = workload.vm_params()
            SearchEngine(workload, SearchOptions()).run()
    finally:
        IncrementalState.run = original
    assert {name for name, _p, _s in runs} == set(params)
    return runs, params


@pytest.fixture(scope="module")
def references(recorded):
    runs, params = recorded
    return [_reference(program, params[name]) for name, program, _s in runs]


def _replay(order, runs, params, references) -> None:
    # All nine workloads share one set of VM parameters, so one Machine
    # serves the whole replay; it rebinds within a workload and starts a
    # fresh VM when the data image changes.
    assert len({tuple(sorted(p.items())) for p in params.values()}) == 1
    machine = Machine(**next(iter(params.values())))
    for i in order:
        name, program, segments = runs[i]
        warm = _outcome(lambda: machine.run(program, segments))
        assert warm == references[i], f"{name} config #{i} diverged"
    assert machine.compile_cache_hits > machine.compile_cache_misses


def test_search_order_replay_matches_fresh_runs(recorded, references):
    runs, params = recorded
    _replay(range(len(runs)), runs, params, references)


def test_shuffled_replay_matches_fresh_runs(recorded, references):
    # Shuffle the workloads and, within each, its configurations: a
    # global shuffle would switch data images at almost every run and
    # leave the warm path untested.
    runs, params = recorded
    rng = random.Random(20121110)
    groups: dict = {}
    for i, (name, _program, _segments) in enumerate(runs):
        groups.setdefault(name, []).append(i)
    names = sorted(groups)
    rng.shuffle(names)
    order = []
    for name in names:
        members = groups[name]
        rng.shuffle(members)
        order.extend(members)
    _replay(order, runs, params, references)


def test_templates_hand_off_their_decoded_instructions(recorded):
    runs, _params = recorded
    seen = set()
    for _name, _program, segments in runs:
        for template, _base in segments:
            if template.code in seen:
                continue
            seen.add(template.code)
            assert template.instrs == _decode(template.code)


def test_hand_off_normalizes_raw_bit_patterns():
    # Operands built as raw 64-bit patterns encode as signed i64; the
    # handed-off instructions must match that decode, or a warm load
    # would compute a different (trapping) address than a fresh run.
    builder = AsmBuilder()
    builder.func("_start")
    builder.emit(Op.MOV, Reg(1), Imm(0xBFF0000000000000))
    builder.emit(Op.OUTI, Reg(1))
    builder.emit(Op.MOV, Reg(2), Mem(disp=0xFFFFFFFFFFFFFFF8))
    builder.emit(Op.OUTI, Reg(2))
    builder.emit(Op.HALT)
    builder.endfunc()
    program = builder.link()
    built = instrument(
        program, Config.all_double(build_tree(program)),
        cache=InstrumentCache(program),
    )
    for template, _base in built.segments:
        assert template.instrs == _decode(template.code)
    params = {"stack_words": 64, "max_steps": 1000}
    expected = _reference(built.program, params)
    assert expected[3].startswith("memory read out of bounds: -8 ")
    machine = Machine(**params)
    for _ in range(2):
        assert _outcome(lambda: machine.run(built.program, built.segments)) == expected


def _decode(code: bytes) -> tuple:
    decoded = []
    offset = 0
    while offset < len(code):
        instr, size = decode_instruction(code, offset)
        decoded.append(instr)
        offset += size
    return tuple(decoded)


def _deferred_slots(vm: VM) -> int:
    """Closure slots of *vm*'s segment cache still awaiting compilation."""
    return sum(
        slot is vm._deferred
        for entry in vm._segment_cache._segments.values()
        for slot in entry.code or ()
    )


def test_budget_expiring_inside_fused_runs_matches(recorded):
    # The budget-tail deopt single-steps run interiors, whose closures a
    # segment load defers: they compile on first dispatch, write through
    # to the cache entry, and must still count and trap exactly.
    runs, params = recorded
    picks = {}
    for name, program, segments in runs:
        picks.setdefault(name, (program, segments))
    compiled_lazily = 0
    for name in ("cg.T", "mg.T", "heat.T"):
        program, segments = picks[name]
        full = run_program(program, fused=False, **params[name]).steps
        for fraction in (0.31, 0.5, 0.77):
            vm_params = dict(params[name], max_steps=int(full * fraction))
            reference = VM(program, fused=False, **vm_params)
            expected = _outcome(reference.run)
            assert expected[3].startswith("step budget exceeded")
            vm = VM(
                program, segment_cache=CompiledSegmentCache(),
                segments=segments, **vm_params,
            )
            for _ in range(2):  # cold load, then a warm rebind
                deferred = _deferred_slots(vm)
                assert _outcome(vm.run) == expected
                assert (vm.steps, vm.cycles, vm.outputs) == (
                    reference.steps, reference.cycles, reference.outputs
                )
                compiled_lazily += deferred - _deferred_slots(vm)
                vm.rebind(program, segments)
    if not _NO_FUSE:
        assert compiled_lazily > 0, "no budget expired inside a fused run"


def test_trapping_configuration_matches_through_the_cache():
    program = compile_src(TRAP_SRC)
    tree = build_tree(program)
    nodes = list(tree.instructions())
    config = Config(tree)
    config.set(next(n for n in nodes if "mulsd" in n.text).node_id, Policy.SINGLE)
    config.set(
        next(n for n in nodes if "cvttsd2si" in n.text).node_id, Policy.IGNORE
    )
    cache = InstrumentCache(program)
    built = instrument(program, config, cache=cache)
    params = {"stack_words": 256, "max_steps": 100_000}
    expected = _reference(built.program, params)
    assert expected[3] is not None and expected[4] is not None
    machine = Machine(**params)
    for _ in range(2):  # cold load, then a warm rebind through the cache
        assert _outcome(lambda: machine.run(built.program, built.segments)) == expected
    # A passing build of the same program between two trapping ones.
    clean = instrument(program, Config.all_double(tree), cache=cache)
    assert _outcome(
        lambda: machine.run(clean.program, clean.segments)
    ) == _reference(clean.program, params)
    assert _outcome(lambda: machine.run(built.program, built.segments)) == expected
