"""Host-independent load work counters of the persistent ``Machine``.

A warm load must only do work for segment templates it has never seen,
plus the control-flow transfers whose targets moved.  The counters
(``vm.load_decoded``, ``vm.load_closures``, ``vm.load_fused``) measure
that work exactly, so these gates read the same on any host.
"""

from repro.config import Config, Policy, build_tree
from repro.instrument import InstrumentCache, instrument
from repro.search import SearchEngine, SearchOptions
from repro.search.execution import DELTA_COUNTERS
from repro.telemetry import MetricsRegistry, Telemetry
from repro.vm import Machine, fuse
from repro.vm.machine import _NO_FUSE, MACHINE_COUNTERS
from repro.workloads import make_nas

#: load work of the serial cg.T search, from a cold fused-run factory
#: cache.  A change here means every configuration's load got cheaper or
#: dearer; update the pin only with a before/after layer table.  With
#: fusion disabled (REPRO_NO_FUSE) no closure is deferred or fused.
CG_T_LOAD_WORK = {
    "vm.compile_cache_hits": 1686,
    "vm.compile_cache_misses": 74,
    "vm.load_decoded": 0,
    "vm.load_closures": 4031 if _NO_FUSE else 1805,
    "vm.load_fused": 0 if _NO_FUSE else 80,
}


def _counts(machine: Machine) -> dict:
    return dict(zip(MACHINE_COUNTERS, machine._counters()))


def _delta(after: dict, before: dict) -> dict:
    return {name: after[name] - before[name] for name in after}


def test_serial_cg_t_search_load_work_is_pinned():
    fuse.clear_factory_cache()
    metrics = MetricsRegistry()
    workload = make_nas("cg", "T")
    result = SearchEngine(
        workload, SearchOptions(), telemetry=Telemetry(metrics=metrics)
    ).run()
    assert result.configs_tested == 32
    counters = {name: metrics.counters.get(name, 0) for name in CG_T_LOAD_WORK}
    assert counters == CG_T_LOAD_WORK


def test_identical_rebind_does_no_load_work():
    workload = make_nas("cg", "T")
    tree = build_tree(workload.program)
    built = instrument(
        workload.program, Config.all_single(tree),
        cache=InstrumentCache(workload.program),
    )
    machine = Machine(**workload.vm_params())
    first = machine.run(built.program, built.segments)
    before = _counts(machine)
    again = machine.run(built.program, built.segments)
    work = _delta(_counts(machine), before)
    assert (again.outputs, again.cycles, again.steps) == (
        first.outputs, first.cycles, first.steps
    )
    # Every segment hits; nothing is decoded and no fused run compiled.
    # Closures are rebuilt only for transfers, and only where one
    # template sits at several places with different targets.
    assert work["vm.compile_cache_hits"] == len(built.segments)
    assert work["vm.compile_cache_misses"] == 0
    assert work["vm.load_decoded"] == 0
    assert work["vm.load_fused"] == 0
    assert work["vm.load_closures"] <= _shared_template_transfers(built)


def _transfers(template) -> int:
    return sum(
        1 for ins in template.instrs if ins.info.is_branch or ins.info.is_call
    )


def _shared_template_transfers(built) -> int:
    """Transfers in templates placed more than once in *built*."""
    placed: dict = {}
    for template, _base in built.segments:
        placed.setdefault(template.code, []).append(template)
    return sum(
        _transfers(group[0]) * len(group)
        for group in placed.values()
        if len(group) > 1
    )


def test_changed_config_compiles_only_new_templates_and_moved_transfers():
    workload = make_nas("mg", "T")
    tree = build_tree(workload.program)
    cache = InstrumentCache(workload.program)
    machine = Machine(**workload.vm_params())
    base = instrument(workload.program, Config.all_double(tree), cache=cache)
    machine.run(base.program, base.segments)
    seen = {template.code for template, _base in base.segments}
    node = next(iter(tree.instructions())).node_id
    child = instrument(
        workload.program,
        Config.all_double(tree).set(node, Policy.SINGLE),
        cache=cache,
    )
    before = _counts(machine)
    machine.run(child.program, child.segments)
    work = _delta(_counts(machine), before)
    fresh = [t for t, _base in child.segments if t.code not in seen]
    transfers = sum(_transfers(template) for template, _base in child.segments)
    assert work["vm.load_decoded"] == 0
    assert work["vm.compile_cache_misses"] == len({t.code for t in fresh})
    assert 0 < work["vm.load_closures"] <= (
        sum(len(t.instrs) for t in fresh) + transfers
    )


def test_wire_counters_are_unchanged():
    # The load counters are telemetry only; the worker wire format keeps
    # its six cache counters.
    assert DELTA_COUNTERS == (
        "instr.block_cache_hits",
        "instr.block_cache_misses",
        "vm.compile_cache_hits",
        "vm.compile_cache_misses",
        "vm.fuse_cache_hits",
        "vm.fuse_cache_misses",
    )
