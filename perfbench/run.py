"""The repository benchmark: precision searches end to end, layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload nas-t-serial --seed 1 \
        --seconds 38 --trace 0

Each repetition runs in a fresh process (``rep.py``) and is checked
against ``golden.json``.  Repetitions continue until ``--seconds`` is
used up; the metrics are medians over them.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones.  The
last line of standard output is one JSON object; everything above it is
for people.  See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)

import layers  # noqa: E402
from rep import WORKLOADS, draw, planned_searches  # noqa: E402

#: a repetition is killed (and counted as failed) after this long
REP_TIMEOUT_S = 150.0
#: the whole run stops starting repetitions this long before its hard
#: 180-second limit would be at risk
RUN_LIMIT_S = 165.0

END_TO_END = (
    ("setup_s", "s"),
    ("time_to_result_s", "s"),
    ("configs_per_s", "1/s"),
    ("turnaround_p50_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


def host_probe() -> dict:
    """Reference-loop dispatch rate on this host (metadata, not gated)."""
    from repro.vm.machine import VM
    from repro.workloads import make_nas

    program = make_nas("ep", "T").program
    rates = []
    for _ in range(5):
        vm = VM(program, fused=False)
        start = time.perf_counter()
        result = vm.run()
        rates.append(result.steps / (time.perf_counter() - start))
    return {"reference_loop_ips": round(statistics.median(rates))}


def _end_session(pgid: int) -> None:
    """Kill whatever is left of a repetition's process group (service
    workers, pool children) and wait until it is gone."""
    deadline = time.monotonic() + 10.0
    try:
        os.killpg(pgid, signal.SIGKILL)
        while time.monotonic() < deadline:
            time.sleep(0.01)
            os.killpg(pgid, 0)
    except ProcessLookupError:
        pass


def run_rep(workload: str, seed: int, traced: bool, index: int,
            timeout: float) -> dict:
    """One repetition in a fresh process; returns its record or an
    ``error`` record when it crashed or timed out."""
    rep_dir = os.path.join(WORK, "reps", f"{workload}-{seed}-{index}")
    shutil.rmtree(rep_dir, ignore_errors=True)
    spans = os.path.join(rep_dir, "spans")
    out = os.path.join(rep_dir, "rep.json")
    os.makedirs(spans)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, os.path.join(HERE, "rep.py"),
           "--workload", workload, "--seed", str(seed),
           "--spans", spans, "--out", out]
    if traced:
        cmd.append("--traced")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        _end_session(proc.pid)
        proc.wait()
        code = "timeout"
    wall = time.perf_counter() - start
    _end_session(proc.pid)
    if code != 0 or not os.path.exists(out):
        return {"error": f"repetition exited with {code}", "wall_s": wall,
                "traced": traced, "records": []}
    with open(out) as handle:
        rep = json.load(handle)
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep["wall_s"] = wall
    rep["traced"] = traced
    return rep


def check(workload: str, rep: dict, golden: dict) -> tuple[int, list]:
    """(searches that failed, problem descriptions) for one repetition:
    a search fails when it raised, timed out, went missing or missed its
    golden answer."""
    expected = golden[workload]
    planned = planned_searches(rep["plan"])
    failed = max(0, planned - len(rep["records"]))
    problems = [f"{failed} of {planned} searches missing"] if failed else []
    for record in rep["records"]:
        name = record["name"]
        wrong = []
        if "error" in record:
            wrong.append(record["error"])
        else:
            wrong.extend(
                f"{key} {record.get(key)!r} != golden {value!r}"
                for key, value in expected[name].items()
                if record.get(key) != value
            )
            if record.get("resubmit") and record["executions"] != 0:
                wrong.append(f"re-submission executed "
                             f"{record['executions']} configs")
        failed += bool(wrong)
        problems.extend(f"{name}: {w}" for w in wrong)
    return failed, problems


def answers(rep: dict) -> list:
    """The part of a repetition that tracing must not change."""
    keep = ("name", "config", "tested", "static_pct", "dynamic_pct",
            "final", "history", "executions")
    return sorted(
        json.dumps({k: r.get(k) for k in keep}, sort_keys=True)
        for r in rep["records"]
    )


def end_to_end(reps: list) -> dict:
    configs_per_s = []
    turnarounds = []
    for rep in reps:
        configs = sum(r.get("configs", 0) for r in rep["records"])
        configs_per_s.append(configs / rep["time_to_result_s"])
        turnarounds.extend(r["turnaround_s"] for r in rep["records"])
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "time_to_result_s": statistics.median(
            r["time_to_result_s"] for r in reps
        ),
        "configs_per_s": statistics.median(configs_per_s),
        "turnaround_p50_s": statistics.median(turnarounds),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(HERE, "golden.json")) as handle:
        golden = json.load(handle)

    run_start = time.perf_counter()
    probe = host_probe()
    plan = draw(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed}: {json.dumps(plan)}")
    print(f"host probe: {probe['reference_loop_ips']} instr/s "
          "(reference loop, ep.T)")

    planned = planned_searches(plan)
    deadline = time.perf_counter() + args.seconds
    reps: list = []
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        left = RUN_LIMIT_S - (time.perf_counter() - run_start)
        rep = run_rep(args.workload, args.seed, traced, len(reps),
                      min(REP_TIMEOUT_S, max(left, 1.0)))
        reps.append(rep)
        if "error" in rep:
            rep["failed"], problems = planned, [rep["error"]]
        else:
            rep["failed"], problems = check(args.workload, rep, golden)
        tag = "traced" if traced else "untraced"
        if "error" in rep:
            print(f"rep {len(reps)} ({tag}): FAILED {rep['error']}")
        else:
            print(f"rep {len(reps)} ({tag}): setup {rep['setup_s']:.3f} s, "
                  f"time to result {rep['time_to_result_s']:.3f} s, "
                  f"{rep['failed']} failed")
        for problem in problems:
            print(f"  mismatch: {problem}")
        now = time.perf_counter()
        typical = statistics.median(r["wall_s"] for r in reps)
        enough = len(reps) >= (2 if args.trace else 1)
        if enough and (now + typical > deadline
                       or now - run_start + typical > RUN_LIMIT_S):
            break

    attempted = planned * len(reps)
    failed = sum(rep["failed"] for rep in reps)
    good = [r for r in reps if "error" not in r]
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    correct = failed == 0 and bool(untraced)
    if untraced and any(answers(r) != answers(untraced[0]) for r in traced):
        print("mismatch: traced and untraced repetitions disagree")
        correct = False

    if args.trace:
        metrics = layers.per_layer(traced, untraced) if traced else {}
        if traced:
            print(layers.table(args.workload, traced, untraced))
    else:
        metrics = end_to_end(untraced) if untraced else {}
        for name, entry in metrics.items():
            print(f"  {name:<20} {entry['value']:>12.4f} {entry['unit']}")
    print(f"  failed_frac          {failed / attempted:>12.4f} "
          f"({failed} of {attempted} searches)")

    os.makedirs(os.path.join(WORK, "runs"), exist_ok=True)
    record = os.path.join(
        WORK, "runs", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(record, "w") as handle:
        json.dump({"probe": probe, "plan": plan, "reps": reps,
                   "metrics": metrics}, handle, indent=1)
    if not metrics:
        print("error: no repetition completed", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
