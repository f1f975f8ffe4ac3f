"""Per-layer metrics and the traced table, from merged span totals.

A traced repetition's ``layers`` record (see ``rep.merge_spans``) holds
self times, call counts and work counters keyed ``role|phase|name``:
*role* is ``main`` (the benchmark process: search engine, or service
and tenants), ``pool`` (forked pool children) or ``worker`` (service
worker processes); *phase* is ``setup`` or ``timed``.
"""

from __future__ import annotations

import statistics

from rep import POOL_OPTIONS

TIMED = ("timed",)
ALL_PHASES = ("setup", "timed")

#: (metric, unit) in the order BENCHMARK.json lists them
PER_LAYER = (
    ("vm.load_s", "s"), ("vm.loads", "count"),
    ("vm.compile_cache_hit_ratio", "ratio"),
    ("vm.fuse_cache_hit_ratio", "ratio"),
    ("vm.exec_s", "s"), ("vm.steps", "count"), ("vm.steps_per_s", "1/s"),
    ("vm.traps", "count"),
    ("instrument.s", "s"), ("instrument.calls", "count"),
    ("instrument.block_cache_hit_ratio", "ratio"),
    ("instrument.bytes_out", "bytes"),
    ("config.policies_s", "s"), ("config.policies_calls", "count"),
    ("search.self_s", "s"), ("search.configs", "count"),
    ("search.executions", "count"), ("search.exec_ratio", "ratio"),
    ("search.batches", "count"), ("search.census_s", "s"),
    ("pool.batch_s", "s"), ("pool.busy_s", "s"), ("pool.utilization", "ratio"),
    ("analysis.s", "s"), ("analysis.pruned", "count"),
    ("lattice.s", "s"), ("lattice.descent_configs", "count"),
    ("workloads.build_s", "s"), ("workloads.baseline_s", "s"),
    ("workloads.verify_s", "s"), ("profile.s", "s"),
    ("store.get_s", "s"), ("store.put_s", "s"), ("store.gets", "count"),
    ("store.hits", "count"), ("store.puts", "count"),
    ("campaign.checkpoint_s", "s"), ("campaign.checkpoints", "count"),
    ("cluster.tasks", "count"), ("cluster.frames", "count"),
    ("cluster.bytes", "bytes"), ("cluster.batch_s", "s"),
    ("cluster.worker_busy_s", "s"), ("cluster.worker_idle_s", "s"),
    ("cluster.worker_utilization", "ratio"),
    ("service.job_self_s", "s"), ("service.rpc_s", "s"),
    ("service.wait_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


class Totals:
    """Sums over one traced repetition's merged layer record."""

    def __init__(self, layers: dict) -> None:
        self.layers = layers

    def _sum(self, table: str, name: str, roles=None, phases=TIMED) -> float:
        total = 0.0
        for key, value in self.layers[table].items():
            role, phase, layer = key.split("|", 2)
            if layer == name and phase in phases and (
                roles is None or role in roles
            ):
                total += value
        return total

    def time(self, name: str, roles=None, phases=TIMED) -> float:
        return self._sum("self_s", name, roles, phases)

    def calls(self, name: str, roles=None, phases=TIMED) -> float:
        return self._sum("calls", name, roles, phases)

    def count(self, name: str, roles=None, phases=TIMED) -> float:
        return self._sum("counts", name, roles, phases)

    def busy(self, role: str) -> float:
        """Self time of every span in processes of *role*: their time
        inside any traced call, which is all the work they did."""
        return sum(
            value for key, value in self.layers["self_s"].items()
            if key.startswith(role + "|")
        )

    def by_layer(self, roles, phases=TIMED) -> dict:
        out: dict = {}
        for key, value in self.layers["self_s"].items():
            role, phase, layer = key.split("|", 2)
            if role in roles and phase in phases:
                entry = out.setdefault(layer, [0.0, 0])
                entry[0] += value
                entry[1] += self.layers["calls"].get(key, 0)
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def rep_metrics(rep: dict) -> dict:
    """Every per-layer metric of one traced repetition, except the
    tracing overhead, which compares repetitions."""
    t = Totals(rep["layers"])
    jobs = len(rep["records"])
    exec_s = t.time("vm.exec")
    configs = t.count("search.configs", ("main",))
    executions = t.count("search.executions", ("main",))
    batch_s = t.time("pool.batch", ("main",))
    pool_busy = t.busy("pool")
    worker_busy = t.busy("worker")
    alive = rep["layers"]["worker_alive_s"]
    job_thread = sum(
        seconds for layer, (seconds, _) in t.by_layer(("main",)).items()
        if layer != "service.rpc"
    )
    turnaround = sum(r["turnaround_s"] for r in rep["records"])
    is_service = "service.job" in t.by_layer(("main",))
    hits = t.count("vm.compile_hits")
    fuse = t.count("vm.fuse_hits")
    blocks = t.count("instrument.block_hits")
    return {
        "vm.load_s": t.time("vm.load"),
        "vm.loads": t.calls("vm.load"),
        "vm.compile_cache_hit_ratio": _ratio(
            hits, hits + t.count("vm.compile_misses")
        ),
        "vm.fuse_cache_hit_ratio": _ratio(
            fuse, fuse + t.count("vm.fuse_misses")
        ),
        "vm.exec_s": exec_s,
        "vm.steps": t.count("vm.steps"),
        "vm.steps_per_s": _ratio(t.count("vm.steps"), exec_s),
        "vm.traps": t.count("vm.traps"),
        "instrument.s": t.time("instrument"),
        "instrument.calls": t.calls("instrument"),
        "instrument.block_cache_hit_ratio": _ratio(
            blocks, blocks + t.count("instrument.block_misses")
        ),
        "instrument.bytes_out": t.count("instrument.bytes_out"),
        "config.policies_s": t.time("config.policies"),
        "config.policies_calls": t.calls("config.policies"),
        "search.self_s": t.time("search", ("main",)),
        "search.configs": configs,
        "search.executions": executions,
        "search.exec_ratio": _ratio(executions, configs),
        "search.batches": t.count("search.batches", ("main",)),
        "search.census_s": t.time("search.census"),
        "pool.batch_s": batch_s,
        "pool.busy_s": pool_busy,
        "pool.utilization": _ratio(
            pool_busy, batch_s * POOL_OPTIONS["workers"]
        ),
        "analysis.s": t.time("analysis", phases=ALL_PHASES),
        "analysis.pruned": t.count("analysis.pruned", ("main",)),
        "lattice.s": t.time("lattice"),
        "lattice.descent_configs": t.count("lattice.descent_configs",
                                           ("main",)),
        "workloads.build_s": t.time("workloads.build", phases=ALL_PHASES),
        "workloads.baseline_s": t.time("workloads.baseline",
                                       phases=ALL_PHASES),
        "workloads.verify_s": t.time("workloads.verify"),
        "profile.s": t.time("profile", phases=ALL_PHASES),
        "store.get_s": t.time("store.get"),
        "store.put_s": t.time("store.put"),
        "store.gets": t.calls("store.get"),
        "store.hits": t.count("store.hits"),
        "store.puts": t.calls("store.put"),
        "campaign.checkpoint_s": t.time("campaign.checkpoint"),
        "campaign.checkpoints": t.calls("campaign.checkpoint"),
        "cluster.tasks": t.calls("cluster.task", ("worker",)),
        "cluster.frames": t.count("cluster.frames", ("worker",)),
        "cluster.bytes": t.count("cluster.bytes", ("worker",)),
        "cluster.batch_s": t.time("cluster.batch"),
        "cluster.worker_busy_s": worker_busy,
        "cluster.worker_idle_s": max(0.0, alive - worker_busy),
        "cluster.worker_utilization": _ratio(worker_busy, alive),
        "service.job_self_s": t.time("service.job"),
        "service.rpc_s": t.time("service.rpc"),
        "service.wait_s": (
            max(0.0, turnaround - job_thread) / jobs
            if is_service and jobs else 0.0
        ),
    }


def per_layer(traced: list, untraced: list) -> dict:
    """Medians over the traced repetitions, plus the tracing overhead:
    traced over untraced median time to result, minus one."""
    per_rep = [rep_metrics(rep) for rep in traced]
    values = {
        name: statistics.median(m[name] for m in per_rep)
        for name, _ in PER_LAYER if name != "trace.overhead_frac"
    }
    values["trace.overhead_frac"] = (
        statistics.median(r["time_to_result_s"] for r in traced)
        / statistics.median(r["time_to_result_s"] for r in untraced) - 1.0
        if untraced else 0.0
    )
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}


def _rows(layers: dict, scale: float, ttr: float) -> list:
    lines = []
    for layer, (seconds, calls) in sorted(
        layers.items(), key=lambda item: -item[1][0]
    ):
        share = f"{100.0 * seconds * scale / ttr:6.1f}%" if ttr else ""
        lines.append(f"  {layer:<22} {seconds * scale:10.4f} {share:>8} "
                     f"{int(calls * scale):>9}")
    return lines


def table(workload: str, traced: list, untraced: list) -> str:
    """The per-layer table of the traced repetition with the median time
    to result, accounting for where that time went."""
    rep = sorted(traced, key=lambda r: r["time_to_result_s"])[
        (len(traced) - 1) // 2
    ]
    t = Totals(rep["layers"])
    ttr = rep["time_to_result_s"]
    out = [f"traced layers, {workload}: time to result {ttr:.4f} s"]
    head = (f"  {'layer (self time)':<22} {'seconds':>10} {'share':>8} "
            f"{'calls':>9}")
    main = t.by_layer(("main",))
    if "service.job" not in main:
        out += ["main process (blocking path):", head]
        out += _rows(main, 1.0, ttr)
        total = sum(seconds for seconds, _ in main.values())
        out.append(f"  {'sum':<22} {total:10.4f} {100.0 * total / ttr:7.1f}%")
    else:
        jobs = len(rep["records"])
        turnaround = sum(r["turnaround_s"] for r in rep["records"]) / jobs
        rpc = main.pop("service.rpc", [0.0, 0])
        job_thread = sum(seconds for seconds, _ in main.values()) / jobs
        out += [
            f"per job, mean over {jobs} jobs: turnaround {turnaround:.4f} s"
            f" = job thread {job_thread:.4f} s + submit/poll/result "
            f"{turnaround - job_thread:.4f} s (the client's rpc time, "
            f"{rpc[0] / jobs:.4f} s, overlaps the job thread)",
            "job thread, per job:", head,
        ]
        out += _rows(main, 1.0 / jobs, turnaround)
    for role, label in (("pool", "pool children"), ("worker", "workers")):
        layers = t.by_layer((role,), ALL_PHASES)
        if layers:
            out += [f"{label} (all processes, concurrent):", head]
            out += _rows(layers, 1.0, 0.0)
            busy = t.busy(role)
            line = f"  {'busy':<22} {busy:10.4f}"
            if role == "worker":
                alive = rep["layers"]["worker_alive_s"]
                line += (f"  of {alive:.4f} s alive in the timed phase"
                         f" (idle {max(0.0, alive - busy):.4f} s)")
            out.append(line)
    setup = t.by_layer(("main",), ("setup",))
    if setup:
        out += [f"setup {rep['setup_s']:.4f} s:", head]
        out += _rows(setup, 1.0, rep["setup_s"])
    if untraced:
        plain = statistics.median(r["time_to_result_s"] for r in untraced)
        out.append(f"tracing overhead: traced {ttr:.4f} s vs untraced "
                   f"median {plain:.4f} s")
    return "\n".join(out)
