"""One repetition of a benchmark workload, in a fresh process.

``run.py`` starts this script once per repetition so that every
repetition begins with cold process-wide caches, as a user's
``repro search`` or ``repro serve`` does.  It sets up the workload,
runs the timed phase, and writes one JSON record::

    python3 perfbench/rep.py --workload nas-t-serial --seed 1 \
        --spans DIR --out FILE [--traced]

The record holds the phase timings, one entry per search or job (the
answers ``run.py`` checks against ``golden.json``), CPU time and peak
memory, and, when ``--traced``, the merged layer totals of every
process that took part.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))

SERIAL_SUITE = ("bt", "cg", "ep", "ft", "lu", "mg", "sp", "nekcg", "heat")
POOL_SUITE = ("mg", "ep")
SERVICE_LIGHT = ("bt", "lu", "mg", "heat")
#: status poll interval of the tenants' clients, fine enough that it
#: adds little to a job's turnaround
SERVICE_POLL_S = 0.01
POOL_OPTIONS = {"workers": 2, "lattice": "f64,f32,bf16,f16", "analysis": True}
SERVICE_WORKERS = 2
JOB_TIMEOUT_S = 120.0

WORKLOADS = ("nas-t-serial", "nas-w-pool", "service-mix")


def draw(workload: str, seed: int) -> dict:
    """The inputs a workload seed selects: the order of the searches, or
    each tenant's job sequence.  The set of searches never depends on
    the seed, so every seed does the same total work."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "nas-t-serial":
        order = list(SERIAL_SUITE)
        rng.shuffle(order)
        return {"class": "T", "order": order}
    if workload == "nas-w-pool":
        order = list(POOL_SUITE)
        rng.shuffle(order)
        return {"class": "W", "order": order}
    if workload == "service-mix":
        # Each tenant gets one of the two heaviest searches (ep, nekcg),
        # one of the next two (cg, sp) and two of the light ones, and
        # both follow the same pattern (heavy, light, the heavy job
        # again), so the tenants carry the same load in step whatever
        # the seed.  Re-submitting only the heavy jobs keeps the median
        # turnaround among the light cold jobs, clear of the two ends
        # of the mix.
        light = list(SERVICE_LIGHT)
        rng.shuffle(light)
        heavy = [["ep", "cg"], ["nekcg", "sp"]]
        if rng.random() < 0.5:
            heavy = [["ep", "sp"], ["nekcg", "cg"]]
        rng.shuffle(heavy)
        tenants = {}
        for t, big in enumerate(heavy):
            rng.shuffle(big)
            seq = []
            for name, small in zip(big, light[2 * t: 2 * t + 2]):
                seq += [{"name": name, "resubmit": False},
                        {"name": small, "resubmit": False},
                        {"name": name, "resubmit": True}]
            tenants[f"tenant{t}"] = seq
        return {"class": "T", "tenants": tenants}
    raise ValueError(f"unknown workload {workload!r}")


def planned_searches(plan: dict) -> int:
    if "order" in plan:
        return len(plan["order"])
    return sum(len(seq) for seq in plan["tenants"].values())


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _answer(row: dict, config_text: str) -> dict:
    """The golden-answer part of one search or job result."""
    return {
        "config": _sha(config_text),
        "tested": row["tested"],
        "static_pct": row["static_pct"],
        "dynamic_pct": row["dynamic_pct"],
        "final": row["final"],
    }


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _set_phase(phase: str) -> None:
    import tracer

    if tracer.tracer() is not None:
        tracer.tracer().phase = phase


# -- in-process suites ------------------------------------------------------


def _setup_suite(names, klass) -> list:
    from repro.workloads import make_workload

    built = []
    for name in names:
        workload = make_workload(name, klass)
        workload.program
        workload.baseline()
        workload.profile()
        built.append(workload)
    return built


def _search_one(workload, options: dict) -> dict:
    from repro.config import dump_config
    from repro.search import SearchEngine, SearchOptions

    opts = SearchOptions(**options)
    name = workload.name.split(".")[0]
    start = time.perf_counter()
    try:
        engine = SearchEngine(workload, opts)
        result = engine.run()
    except Exception as exc:  # a search that raises counts as failed
        return {
            "name": name, "error": f"{type(exc).__name__}: {exc}",
            "turnaround_s": time.perf_counter() - start,
        }
    turnaround = time.perf_counter() - start
    history = [[r.label, r.passed, r.cycles] for r in result.history]
    record = _answer(
        result.row(), dump_config(result.final_config, lattice=opts.lattice)
    )
    record.update(
        name=name,
        history=_sha(json.dumps(history)),
        history_len=len(history),
        configs=len(history),
        executions=engine.evaluator.executions,
        turnaround_s=turnaround,
    )
    return record


def run_suite(plan: dict, options: dict) -> dict:
    t0 = time.perf_counter()
    built = _setup_suite(plan["order"], plan["class"])
    setup_s = time.perf_counter() - t0
    _set_phase("timed")
    cpu0 = _cpu()
    wall0 = time.time()
    start = time.perf_counter()
    records = [_search_one(w, options) for w in built]
    time_to_result = time.perf_counter() - start
    return {
        "setup_s": setup_s,
        "time_to_result_s": time_to_result,
        "cpu_s": _cpu() - cpu0,
        "records": records,
        "window": (wall0, wall0 + time_to_result),
    }


# -- service-mix ------------------------------------------------------------


def _tenant(address: str, tenant: str, seq: list, klass: str,
            out: list) -> None:
    from repro.service import ServiceClient

    with ServiceClient(address) as client:
        for job in seq:
            start = time.perf_counter()
            record = {"name": job["name"], "resubmit": job["resubmit"],
                      "tenant": tenant}
            try:
                job_id = client.submit(job["name"], klass, tenant=tenant)
                reply = client.wait(job_id, timeout=JOB_TIMEOUT_S,
                                    poll=SERVICE_POLL_S)
                if reply["state"] != "complete":
                    raise RuntimeError(f"{job_id} {reply['state']}: "
                                       f"{reply.get('error')}")
                record.update(_answer(reply["row"], reply["config"] or ""))
                record.update(
                    configs=reply["tested"], executions=reply["executions"]
                )
            except Exception as exc:  # a failed job is counted, not fatal
                record["error"] = f"{type(exc).__name__}: {exc}"
            record["turnaround_s"] = time.perf_counter() - start
            out.append(record)


def _start_workers(address: str, spans: str, traced: bool) -> list:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), address,
           "--spans", spans]
    if traced:
        cmd.append("--traced")
    return [subprocess.Popen(cmd) for _ in range(SERVICE_WORKERS)]


def _stop_workers(procs: list) -> None:
    for proc in procs:
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def run_service(plan: dict, spans: str, traced: bool) -> dict:
    import shutil
    import tempfile

    from repro.service import PrecisionService

    names = sorted(
        {j["name"] for seq in plan["tenants"].values() for j in seq}
    )
    t0 = time.perf_counter()
    _setup_suite(names, plan["class"])
    root = tempfile.mkdtemp(prefix="svc-", dir=spans)
    service = PrecisionService(root, bind="127.0.0.1:0")
    procs = _start_workers(service.address, spans, traced)
    try:
        deadline = time.monotonic() + 60
        while service.workers_connected < SERVICE_WORKERS:
            if time.monotonic() > deadline:
                raise RuntimeError("service workers never connected")
            time.sleep(0.01)
        setup_s = time.perf_counter() - t0
        _set_phase("timed")
        cpu0 = _cpu()
        wall0 = time.time()
        start = time.perf_counter()
        records: list = []
        threads = [
            threading.Thread(
                target=_tenant,
                args=(service.address, tenant, seq, plan["class"], records),
            )
            for tenant, seq in plan["tenants"].items()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        time_to_result = time.perf_counter() - start
    finally:
        service.close()
        _stop_workers(procs)
        shutil.rmtree(root, ignore_errors=True)
    return {
        "setup_s": setup_s,
        "time_to_result_s": time_to_result,
        "cpu_s": _cpu() - cpu0,
        "records": records,
        "window": (wall0, wall0 + time_to_result),
    }


# -- traced totals ------------------------------------------------------------


def merge_spans(spans: str, main: dict, window: tuple) -> dict:
    """Sum the layer totals of this process and every child that dumped
    its own; worker idle time is clipped to the timed window."""
    procs = [main]
    for path in sorted(glob.glob(os.path.join(spans, "*-*.json"))):
        with open(path) as handle:
            procs.append(json.load(handle))
    merged: dict = {"self_s": {}, "calls": {}, "counts": {}}
    for proc in procs:
        for table in ("self_s", "calls", "counts"):
            target = merged[table]
            for key, value in proc[table].items():
                role_key = f"{proc['role']}|{key}"
                target[role_key] = target.get(role_key, 0) + value
    lo, hi = window
    alive = 0.0
    for proc in procs:
        if proc["role"] == "worker":
            alive += max(0.0, min(proc["alive_to"], hi)
                         - max(proc["alive_from"], lo))
    merged["worker_alive_s"] = alive
    return merged


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    os.makedirs(args.spans, exist_ok=True)
    plan = draw(args.workload, args.seed)
    if args.traced:
        import tracer

        tracer.install("main", args.spans)
        if args.workload == "service-mix":
            tracer.install_service()
    if args.workload == "service-mix":
        rep = run_service(plan, args.spans, args.traced)
    else:
        options = POOL_OPTIONS if args.workload == "nas-w-pool" else {}
        rep = run_suite(plan, options)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    rep["peak_rss_mb"] = (own + kids) / 1024.0
    rep["plan"] = plan
    if args.traced:
        import tracer

        rep["layers"] = merge_spans(
            args.spans, tracer.tracer().snapshot(), rep["window"]
        )
    tmp = args.out + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(rep, handle)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
