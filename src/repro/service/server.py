"""The long-lived multi-tenant campaign server.

:class:`PrecisionService` owns exactly one :mod:`repro.cluster`
coordinator (and its asyncio loop thread, TCP endpoint, and worker
pool) and runs every accepted job's :class:`~repro.search.bfs.SearchEngine`
on a dedicated thread against a per-job channel of that coordinator —
the "coordinator owns many engines" generalisation of the standalone
``--cluster`` search, which is the same coordinator with one channel.
One TCP port serves both populations: workers handshake with
``role: "worker"``, clients with ``role: "client"`` and the
``submit``/``status``/``result``/``cancel``/``list`` job frames.

Layout of the service root directory::

    root/
      service.json        # bind address, quotas, creation time
      store.sqlite        # the service-wide shared ResultStore
      jobs/<job id>/      # one isolated campaign dir per job:
        campaign.json     #   options + lifecycle (repro.campaign)
        journal.jsonl     #   frontier checkpoints
        trace.jsonl       #   that job's full telemetry stream
        metrics.txt       #   live MetricsRegistry summary at job end
        config.txt        #   the best final configuration
        result.json       #   result row + provenance counters

Threading model: the asyncio loop thread owns all coordinator state;
each job thread owns its engine, campaign journal, and trace file (the
single-writer telemetry rule, per job); the service's *own* telemetry
(worker joins, job lifecycle) is emitted by one drainer thread that
also reaps finished job threads.  Cross-thread traffic is limited to
``run_coroutine_threadsafe`` calls into the loop and thread-safe deque
appends out of it.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time

from repro.campaign import Campaign
from repro.cluster.coordinator import (
    BaseLeaseEvaluator,
    CoordinatorHost,
    JobCancelled,
    _Coordinator,
)
from repro.cluster.protocol import (
    CANCEL,
    JOB,
    JOBS,
    LIST,
    REJECTED,
    RESULT,
    STATUS,
    SUBMIT,
    SUBMITTED,
)
from repro.config.fileformat import dump_config
from repro.config.generator import build_tree
from repro.config.model import Config
from repro.search.bfs import SearchEngine
from repro.search.retry import RetryPolicy
from repro.service.jobs import (
    CANCELLED,
    COMPLETE,
    FAILED,
    JobRegistry,
    QuotaError,
    RUNNING,
    TERMINAL_STATES,
)
from repro.store import ResultStore
from repro.telemetry import JsonlSink, MetricsRegistry, Telemetry
from repro.workloads import REGISTRY


class PrecisionService:
    """Host many concurrent search campaigns over one worker pool.

    Parameters:

    root:
        Service state directory (created if missing): the shared store,
        ``service.json``, and one campaign directory per job.
    bind:
        ``HOST:PORT`` for the combined worker + client endpoint
        (port 0 = let the OS pick; see :attr:`address`).
    max_inflight:
        Per-tenant cap on simultaneously leased evaluations (None =
        uncapped).  Enforced in the coordinator's deficit-round-robin
        scheduler at grant time.
    max_queued:
        Per-tenant cap on active (queued + running) jobs (None =
        uncapped).  Enforced at admission; over-quota submits get a
        ``rejected`` reply.
    lease_timeout:
        Worker-liveness window, exactly as in the standalone cluster.
    telemetry:
        Optional service-level telemetry for worker lifecycle and
        ``service.job.*`` events (per-job events go to each job's own
        trace instead).
    lease_log:
        Record ``(job, tenant, in-flight-after)`` per granted lease on
        the coordinator — the fairness tests and the service benchmark
        read interleaving straight off this.
    """

    def __init__(
        self,
        root: str,
        bind: str = "127.0.0.1:0",
        max_inflight: int | None = None,
        max_queued: int | None = None,
        lease_timeout: float = 30.0,
        telemetry=None,
        lease_log: bool = False,
    ) -> None:
        self.root = str(root)
        os.makedirs(os.path.join(self.root, "jobs"), exist_ok=True)
        self.telemetry = telemetry
        self.lease_timeout = lease_timeout
        self.registry = JobRegistry(max_queued=max_queued)
        self.store = ResultStore(os.path.join(self.root, "store.sqlite"))
        self._coord = _Coordinator(
            lease_timeout,
            client_api=self,
            max_inflight=max_inflight,
            lease_log=lease_log,
        )
        self._events = self._coord.events   # service-global (kind, fields)
        self._host = CoordinatorHost(self._coord, bind, "repro-service")
        self._closed = False
        self._closing = threading.Event()
        self._drainer = threading.Thread(
            target=self._drain_loop, name="repro-service-drain", daemon=True
        )
        self._drainer.start()
        self._write_meta(max_inflight, max_queued)

    # -- metadata -------------------------------------------------------------

    def _write_meta(self, max_inflight, max_queued) -> None:
        meta = {
            "address": self.address,
            "created": time.time(),
            "lease_timeout": self.lease_timeout,
            "max_inflight": max_inflight,
            "max_queued": max_queued,
            "store": os.path.join(self.root, "store.sqlite"),
        }
        path = os.path.join(self.root, "service.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(meta, handle, indent=2, sort_keys=True)
        os.replace(tmp, path)

    @property
    def address(self) -> str:
        """The bound ``host:port`` for both workers and clients."""
        return self._host.address

    @property
    def workers_connected(self) -> int:
        return len(self._coord.workers)

    # -- client frames (called on the loop thread by the coordinator) --------

    def handle_client(self, message: dict) -> dict:
        kind = message.get("type")
        if kind == SUBMIT:
            return self._client_submit(message)
        if kind == STATUS:
            return self._client_status(message, result=False)
        if kind == RESULT:
            return self._client_status(message, result=True)
        if kind == CANCEL:
            return self._client_cancel(message)
        if kind == LIST:
            return {
                "type": JOBS,
                "jobs": [job.status() for job in self.registry.jobs()],
            }
        return {
            "type": REJECTED,
            "code": "bad_request",
            "message": f"unknown frame {kind!r}",
        }

    def _client_submit(self, message: dict) -> dict:
        workload = str(message.get("workload", ""))
        if workload not in REGISTRY:
            names = ", ".join(REGISTRY.names())
            return {
                "type": REJECTED,
                "code": "unknown_workload",
                "message": f"unknown workload {workload!r}; "
                           f"registered workloads: {names}",
            }
        try:
            job = self.submit(
                workload,
                str(message.get("klass", "") or "W"),
                options=message.get("options") or {},
                tenant=str(message.get("tenant", "") or "default"),
                quantum=float(message.get("quantum", 1.0)),
            )
        except QuotaError as exc:
            return {"type": REJECTED, "code": "quota", "message": str(exc)}
        return {"type": SUBMITTED, "job": job.job_id}

    def _client_status(self, message: dict, result: bool) -> dict:
        job = self.registry.get(str(message.get("job", "")))
        if job is None:
            return {
                "type": REJECTED,
                "code": "unknown_job",
                "message": f"no job {message.get('job')!r}",
            }
        reply = job.result_reply() if result else job.status()
        reply["type"] = JOB
        return reply

    def _client_cancel(self, message: dict) -> dict:
        job_id = str(message.get("job", ""))
        state = self.cancel(job_id)
        if state is None:
            return {
                "type": REJECTED,
                "code": "unknown_job",
                "message": f"no job {job_id!r}",
            }
        job = self.registry.get(job_id)
        reply = job.status()
        reply["type"] = JOB
        return reply

    # -- job lifecycle --------------------------------------------------------

    def submit(self, workload: str, klass: str = "W", options=None,
               tenant: str = "default", quantum: float = 1.0):
        """Admit a job and start its engine thread; returns the Job.

        ``options`` is the JSON form of
        :class:`~repro.search.bfs.SearchOptions` (unknown keys ignored);
        ``cluster`` is stripped — the service *is* the cluster — and
        ``workers`` only sets the engine's batch size, since evaluation
        happens on the shared pool.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        options = dict(options or {})
        options.pop("cluster", None)
        job = self.registry.admit(tenant, workload, klass, options, quantum)
        self._event(
            "service.job.submit",
            job=job.job_id, tenant=tenant, workload=f"{workload}.{klass}",
        )
        job.thread = threading.Thread(
            target=self._run_job, args=(job,),
            name=f"repro-job-{job.job_id}", daemon=True,
        )
        job.thread.start()
        return job

    def cancel(self, job_id: str):
        """Request cancellation; returns the job's state afterwards
        (None for an unknown job).  Idempotent; terminal jobs are left
        untouched."""
        job = self.registry.get(job_id)
        if job is None:
            return None
        if job.state in TERMINAL_STATES:
            return job.state
        self._event("service.job.cancel", job=job.job_id)
        # Order matters: the event gates the *next* batch, the channel
        # abort unblocks a batch already in flight.
        job.cancel_event.set()
        with contextlib.suppress(Exception):
            self._host.call(self._coord.cancel_channel(job.job_id))
        return job.state

    def _run_job(self, job) -> None:
        from repro.campaign import options_from_dict
        from repro.workloads import make_workload

        job.state = RUNNING
        job.started = time.time()
        jobdir = os.path.join(self.root, "jobs", job.job_id)
        job.path = jobdir
        evaluator = None
        campaign = None
        telemetry = None
        try:
            if job.cancel_event.is_set():
                raise JobCancelled(f"{job.job_id}: cancelled before start")
            # job.options never carries "cluster" (stripped at submit),
            # so the rebuilt options embed no nested coordinator.
            options = options_from_dict(job.options)
            workload = make_workload(job.workload, job.klass)
            self._event(
                "service.job.begin",
                job=job.job_id, workload=f"{job.workload}.{job.klass}",
            )
            campaign = Campaign.create(
                jobdir, job.workload, job.klass, options
            )
            metrics = MetricsRegistry()
            telemetry = Telemetry(
                sinks=[JsonlSink(os.path.join(jobdir, "trace.jsonl"))],
                metrics=metrics,
            )
            tree = build_tree(workload.program)
            evaluator = BaseLeaseEvaluator(
                self._host, workload, tree, job=job,
                telemetry=telemetry,
                incremental=options.incremental,
                store=self.store,
                retry=RetryPolicy(options.retry_limit, options.retry_backoff),
            )
            # A supplied evaluator is externally owned: the engine keeps
            # it open across run() and our finally closes it (which
            # unregisters the job's coordinator channel).
            engine = SearchEngine(
                workload,
                options,
                base_config=Config.all_double(tree),
                evaluator=evaluator,
                telemetry=telemetry,
                campaign=campaign,
                store=self.store,
            )
            job.engine = engine
            result = engine.run()
            job.result_row = result.row()
            job.tested = result.configs_tested
            job.executions = evaluator.executions
            job.store_replays = result.store_replays
            if result.final_config is not None:
                best = (
                    result.refined_config
                    if result.refined_config is not None
                    and result.refined_verified
                    else result.final_config
                )
                job.config_text = dump_config(best, lattice=options.lattice)
                with open(os.path.join(jobdir, "config.txt"), "w") as handle:
                    handle.write(job.config_text)
            with open(os.path.join(jobdir, "result.json"), "w") as handle:
                json.dump(
                    {
                        "row": job.result_row,
                        "tested": job.tested,
                        "executions": job.executions,
                        "store_replays": job.store_replays,
                        "wall_seconds": result.wall_seconds,
                    },
                    handle, indent=2, sort_keys=True,
                )
            with open(os.path.join(jobdir, "metrics.txt"), "w") as handle:
                handle.write(metrics.summary())
            job.state = COMPLETE
        except JobCancelled:
            job.state = CANCELLED
        except Exception as exc:
            job.error = f"{type(exc).__name__}: {exc}"
            job.state = FAILED
        finally:
            job.finished = time.time()
            if evaluator is not None:
                job.tested = max(job.tested, evaluator.evaluations)
                job.executions = max(job.executions, evaluator.executions)
                job.store_replays = max(job.store_replays, evaluator.store_hits)
                with contextlib.suppress(Exception):
                    evaluator.close()
            if campaign is not None:
                with contextlib.suppress(Exception):
                    campaign.close()
            if telemetry is not None:
                for sink in telemetry.sinks:
                    with contextlib.suppress(Exception):
                        sink.close()
            self._event("service.job.end", job=job.job_id, state=job.state)

    # -- service telemetry ----------------------------------------------------

    def _event(self, kind: str, **fields) -> None:
        # Thread-safe: deque.append is atomic; the drainer thread is the
        # single writer into the service-level telemetry.
        self._events.append((kind, fields))

    def _drain_loop(self) -> None:
        while not self._closing.wait(0.05):
            self._drain_events()
        self._drain_events()

    def _drain_events(self) -> None:
        telemetry = self.telemetry
        events = self._events
        while events:
            kind, fields = events.popleft()
            if telemetry is not None and telemetry.enabled:
                telemetry.emit(kind, **fields)

    # -- introspection --------------------------------------------------------

    def lease_log(self) -> list:
        """Copy of the coordinator's lease log (empty unless enabled)."""
        async def grab():
            log = self._coord.lease_log
            return list(log) if log is not None else []

        return self._host.call(grab())

    def wait_all(self, timeout: float = 300.0) -> bool:
        """Block until every admitted job reaches a terminal state."""
        deadline = time.monotonic() + timeout
        for job in self.registry.jobs():
            thread = job.thread
            if thread is None:
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            thread.join(timeout=remaining)
            if thread.is_alive():
                return False
        return True

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for job in self.registry.active():
            self.cancel(job.job_id)
        for job in self.registry.jobs():
            if job.thread is not None:
                job.thread.join(timeout=10)
        try:
            self._host.close()
        finally:
            self._closing.set()
            self._drainer.join(timeout=5)
            self.store.close()

    def __enter__(self) -> "PrecisionService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
