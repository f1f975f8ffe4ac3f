"""Substrate micro-benchmarks: VM dispatch, instrumentation, compilation.

Not a paper figure — these track the performance of the reproduction's
own machinery (useful when modifying the interpreter or the rewriter).

The dispatch benchmark measures the fused superinstruction path against
the per-instruction reference loop on the same program and writes an
``interpreter`` section into ``results/BENCH_search.json`` so the perf
trajectory captures raw instructions/second alongside search throughput.
"""

from __future__ import annotations

import time

from conftest import emit, merge_json_rows

from repro.config import Config, build_tree
from repro.instrument import instrument
from repro.vm import VM, fuse, run_program
from repro.workloads import make_nas


def measure_dispatch(
    bench: str = "ep", klass: str = "W", repeats: int = 10,
    instrumented: bool = False,
) -> dict:
    """Instructions/second, per-instruction loop vs fused dispatch.

    Same program, same VM parameters; only the dispatch strategy
    differs.  The two runs must agree on every observable (outputs,
    cycles, steps) — the speedup is pure dispatch overhead removed.
    *instrumented* runs the program with every candidate replaced
    (all-f32), so the snippet idioms (flag test, downcast, narrow op)
    make up most of what executes.
    """
    program = make_nas(bench, klass).program
    label = f"{bench}.{klass}"
    if instrumented:
        config = Config.all_single(build_tree(program))
        program = instrument(program, config).program
        label += " all-f32"
    walls = {}
    results = {}
    for name, fused in (("per_instruction", False), ("fused", True)):
        best = float("inf")
        for _ in range(repeats):
            vm = VM(program, fused=fused)
            start = time.perf_counter()
            result = vm.run()
            best = min(best, time.perf_counter() - start)
        walls[name] = best
        results[name] = result

    ref, fst = results["per_instruction"], results["fused"]
    assert fst.outputs == ref.outputs, "fused dispatch changed program output"
    assert fst.cycles == ref.cycles
    assert fst.steps == ref.steps

    steps = ref.steps
    return {
        "benchmark": label,
        "steps": steps,
        "per_instruction_wall_s": round(walls["per_instruction"], 4),
        "fused_wall_s": round(walls["fused"], 4),
        "per_instruction_ips": round(steps / walls["per_instruction"]),
        "fused_ips": round(steps / walls["fused"]),
        "dispatch_speedup": round(
            walls["per_instruction"] / walls["fused"], 2
        ),
        "compiled_runs": fuse.compiled_runs(),
    }


def _format_dispatch(rows: list) -> str:
    lines = ["Interpreter dispatch — per-instruction loop vs fused runs"]
    for row in rows:
        lines += [
            "",
            f"{row['benchmark']}: {row['steps']} instructions "
            f"(byte-identical results)",
            f"  per-instruction {row['per_instruction_ips']:>12,} instr/s",
            f"  fused           {row['fused_ips']:>12,} instr/s",
            f"  speedup         {row['dispatch_speedup']:>11.2f}x   "
            f"({row['compiled_runs']} compiled run bodies process-wide)",
        ]
    return "\n".join(lines)


def test_vm_dispatch_rate(benchmark):
    workload = make_nas("ep", "W")
    program = workload.program

    result = benchmark(lambda: run_program(program).steps)
    assert result > 10_000


def test_dispatch_fused_vs_reference(benchmark):
    rows = benchmark.pedantic(
        lambda: [measure_dispatch(), measure_dispatch(instrumented=True)],
        rounds=1, iterations=1,
    )
    emit("interpreter_dispatch", _format_dispatch(rows))
    merge_json_rows(
        "BENCH_search",
        {"rows": rows, "primary": rows[0]},
        section="interpreter",
    )
    # Fused dispatch exists to beat the reference loop; a ratio at or
    # below 1.0 means the fast path stopped paying for itself.
    for row in rows:
        assert row["dispatch_speedup"] > 1.0, row


def test_vm_load_precompile(benchmark):
    program = make_nas("cg", "W").program
    vm = benchmark(lambda: VM(program))
    assert vm.entry_index() >= 0


def test_instrumentation_rewrite(benchmark):
    program = make_nas("mg", "W").program
    tree = build_tree(program)
    config = Config.all_single(tree)

    instrumented = benchmark(lambda: instrument(program, config))
    assert instrumented.growth > 1.0


def test_compile_pipeline(benchmark):
    from repro.workloads.nas import cg

    workload = benchmark(lambda: cg.make("W").program)
    assert workload.stats()["instructions"] > 100
