"""Event kinds and the trace schema.

An event is a plain dict with two universal keys —

``kind``
    One of :data:`EVENT_KINDS` (a dotted ``layer.what`` name).
``ts``
    Seconds since the owning :class:`~repro.telemetry.core.Telemetry`
    was created (monotonic clock, so wall math across events is safe).

— plus the kind-specific payload fields listed in :data:`EVENT_FIELDS`.
Extra fields are allowed (the schema states the floor, not the ceiling),
so layers can attach context without a schema bump; missing required
fields are an error.  :func:`validate_event` enforces exactly that and is
what the round-trip tests run over every line of a trace file.
"""

from __future__ import annotations

#: kind -> fields every event of that kind must carry (beyond kind/ts).
EVENT_FIELDS: dict[str, frozenset] = {
    # -- search layer ------------------------------------------------------
    "search.begin": frozenset({"workload", "candidates"}),
    "search.end": frozenset({"workload", "tested", "final", "wall_s"}),
    "search.eval": frozenset({"label", "passed", "cycles", "trap", "phase"}),
    "search.queue": frozenset({"depth", "tested"}),
    "search.descend": frozenset({"label", "action"}),
    "search.refine": frozenset({"drops", "verified"}),
    # analysis-guided prune: a queue item skipped without evaluation
    # because the shadow-value report predicted a verification failure.
    "search.prune": frozenset({"label", "level"}),
    # analysis="auto" economics verdict: whether this search pays for the
    # shadow run, and the measured numbers the decision came from
    # (predicted_saving_s / predicted_cost_s ride along as extras).
    "search.guidance": frozenset({"workload", "analyze", "reason"}),
    # -- evaluation (one per configuration actually executed) --------------
    "eval.config": frozenset({"passed", "cycles", "trap", "wall_s"}),
    # crash-fault tolerance: a worker died, unfinished configs resubmitted
    # on a fresh pool after a backoff; one eval.worker_crash per config
    # that exhausted its bounded retries (classified reason=worker_crash).
    "eval.retry": frozenset({"attempt", "pending"}),
    "eval.worker_crash": frozenset({"attempts"}),
    # -- durable campaigns (repro.store / repro.campaign) -------------------
    # store.hit: a previously decided outcome replayed from the result
    # store instead of executed (resume and warm-start paths).
    "store.hit": frozenset({"key"}),
    "campaign.checkpoint": frozenset({"batch", "tested"}),
    "campaign.resume": frozenset({"batch", "tested"}),
    # -- distributed search service (repro.cluster) -------------------------
    # Coordinator-side lease lifecycle: every event carries the worker's
    # coordinator-assigned id ("w1", "w2", ...).  lease/heartbeat also
    # carry `busy` (that worker's outstanding leases) so live progress
    # can render per-worker occupancy.  lease carries `queued_s`, the
    # coordinator's loop-clock time from the task becoming leasable
    # (enqueue or backoff expiry) to its grant.
    "cluster.worker_join": frozenset({"worker", "name"}),
    "cluster.worker_lost": frozenset({"worker", "leases", "reason"}),
    "cluster.lease": frozenset({"worker", "task", "busy", "queued_s"}),
    "cluster.heartbeat": frozenset({"worker", "busy"}),
    # a lease whose worker died/errored, put back on the queue with
    # exponential backoff (exhausted retries become eval.worker_crash).
    "cluster.requeue": frozenset({"task", "attempts", "reason"}),
    # -- multi-tenant job service (repro.service) ----------------------------
    # Job lifecycle on the service's own trace: submit (accepted over
    # the wire), begin (engine thread started), end (terminal state:
    # complete/failed/cancelled), cancel (request received).  Per-job
    # cluster.*/eval.* events land in that job's own trace instead,
    # tagged with a `job` extra field.
    "service.job.submit": frozenset({"job", "tenant", "workload"}),
    "service.job.begin": frozenset({"job", "workload"}),
    "service.job.end": frozenset({"job", "state"}),
    "service.job.cancel": frozenset({"job"}),
    # -- instrumentation layer ---------------------------------------------
    "instr.stats": frozenset(
        {
            "program",
            "replaced_single",
            "wrapped_double",
            "checks_emitted",
            "checks_skipped",
            "blocks_split",
            "bytes_grown",
        }
    ),
    # -- shadow-value analysis (repro.analysis) ----------------------------
    "analysis.run.begin": frozenset({"workload"}),
    "analysis.run.end": frozenset({"workload"}),
    # -- direct metric updates ---------------------------------------------
    # Telemetry.count()/observe() ride the event stream as these kinds so
    # a JSONL trace replays into a byte-identical MetricsRegistry summary.
    "metric.count": frozenset({"name", "value"}),
    "metric.observe": frozenset({"name", "value"}),
    # -- worker-side evaluation (repro.cluster) ------------------------------
    # One per task executed on a remote worker; the coordinator tags the
    # forwarded event with `worker` (coordinator-assigned id) and
    # `worker_ts` (the worker's own clock) before merging it into the
    # unified trace.  Distinct from eval.config so that "eval.config count
    # == configs_tested" stays true in merged cluster traces.
    "eval.remote": frozenset({"task", "passed", "cycles", "trap", "wall_s"}),
    # -- profiling (repro.profile) ------------------------------------------
    # profile.census: one per profiled run — whole-program totals plus the
    # per-opcode breakdown.  profile.site: one per executed instruction
    # site, with config-tree attribution (`node` is "" for instructions
    # that are not precision candidates).
    "profile.census": frozenset(
        {"program", "steps", "cycles", "sites", "attributed_cycles"}
    ),
    "profile.site": frozenset({"node", "addr", "mnemonic", "execs", "cycles"}),
    # -- VM ----------------------------------------------------------------
    "vm.opcodes": frozenset({"program", "steps", "cycles", "opcodes"}),
    "vm.trap": frozenset({"message"}),
    # -- MPI rank scheduler ------------------------------------------------
    "mpi.rank": frozenset({"rank", "cycles", "compute_cycles", "comm_cycles"}),
    "mpi.run": frozenset({"size", "elapsed", "collectives"}),
}

#: All event kinds a conforming trace may contain.
EVENT_KINDS: frozenset = frozenset(EVENT_FIELDS)


def validate_event(event: dict) -> dict:
    """Check *event* against the schema; returns it unchanged.

    Raises ``ValueError`` on an unknown kind, a missing universal key, or
    a missing kind-specific required field.
    """
    if not isinstance(event, dict):
        raise ValueError(f"event must be a dict, got {type(event).__name__}")
    kind = event.get("kind")
    if kind not in EVENT_FIELDS:
        raise ValueError(f"unknown event kind {kind!r}")
    if "ts" not in event:
        raise ValueError(f"{kind}: missing 'ts'")
    missing = EVENT_FIELDS[kind] - event.keys()
    if missing:
        raise ValueError(f"{kind}: missing required fields {sorted(missing)}")
    return event
