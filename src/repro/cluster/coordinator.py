"""The cluster coordinator: lease-based dispatch over TCP workers.

:class:`ClusterEvaluator` is the third sibling of the evaluator family
(serial :class:`~repro.search.evaluator.Evaluator`, fork-pool
:class:`~repro.search.parallel.ParallelEvaluator`): the search engine
hands it batches of configurations, and it shards them across however
many ``repro worker`` processes are currently connected.  The engine —
and therefore the whole search trajectory — cannot tell the difference:
batch deduplication, store replay, and counter semantics are the shared
:mod:`repro.search.batching` logic, outcomes come back in submission
order, and every evaluation a worker runs goes through the shared
:mod:`repro.search.execution` kernel, so the final configuration is
byte-identical to a serial search (differential-tested).

Multi-campaign dispatch
-----------------------
Work is organised into *channels*, one per campaign (:class:`_Channel`),
each with its own pending queue, retry policy, in-flight batch and
workload fields, which every ``task`` frame carries.  A standalone
``ClusterEvaluator`` is a coordinator with exactly one channel; the
:mod:`repro.service` job server opens one per submitted job and shares
a single coordinator — and therefore one worker pool — across all of
them.  Both drive their channels through :class:`BaseLeaseEvaluator`
and run their coordinator on a :class:`CoordinatorHost`.  Leases are
multiplexed fairly with deficit round-robin: each ready channel
accumulates ``quantum`` credit per scheduler pass and spends one credit
per granted lease, so a large campaign cannot starve a small one, and
per-tenant in-flight quotas (``max_inflight``) cap how much of the pool
any one tenant can hold at once.

Parked leases
-------------
A worker's ``lease`` that finds nothing leasable is *parked*: the worker
joins the idle set and the coordinator keeps reading its frames, so
heartbeats and EOF still count.  Every event that can make a task
leasable — a batch enqueued, a result or an abort releasing tenant
quota, a requeued task's backoff expiring — runs :meth:`_dispatch`,
which hands tasks to parked workers (longest-parked first) through the
same deficit round-robin picker.  A worker therefore waits for work
only as long as there is none, never for a poll interval.

Threading model
---------------
The asyncio TCP server runs on one dedicated background thread; all
coordinator state (workers, channels, leases, queues) lives on that
loop and is never touched from an engine thread.  ``evaluate_batch``
submits a batch with ``run_coroutine_threadsafe`` and blocks, draining
its channel's event queue into the telemetry hub while it waits — so
traces keep a single writer (that engine's thread) and ``--progress``
still renders worker occupancy live.  Under the service each job's
engine thread does the same against its own channel, so per-job traces
stay single-writer too.

Fault tolerance
---------------
Liveness is heartbeat-based: any worker message refreshes its deadline,
and a worker silent for ``lease_timeout`` seconds — or whose connection
reaches EOF, the usual fate of a SIGKILLed process — is declared lost.
Its leases are requeued under their campaign's
:class:`~repro.search.retry.RetryPolicy` (exponential per-task backoff);
a task that keeps losing its worker through every retry is classified
``worker_crash`` exactly like a fork-pool crash.  A worker that leaves
cleanly (``bye``, e.g. after refusing a task whose workload it builds
differently) hands its leases back without spending retry attempts; a
malformed frame is a protocol error, so its sender is reaped and its
leases requeued.  Results are first-wins: if a presumed-dead worker
resurfaces and reports a requeued task, the duplicate is ignored —
evaluations are deterministic, so either copy is the same outcome — and
re-connected workers never re-execute configs the store already
decided, because decided configs are filtered out parent-side before
tasks are ever created.  Cancelling a job aborts only its channel: its
queued tasks are dropped, its leases are released from the quota
ledger, and every other channel keeps running untouched.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import threading
import time
from collections import deque

from repro.cluster.protocol import (
    BYE,
    CANCEL,
    ERROR,
    EVENTS,
    HEARTBEAT,
    HELLO,
    LEASE,
    LIST,
    OK,
    PROTOCOL_VERSION,
    RESULT,
    ROLE_CLIENT,
    STATUS,
    SUBMIT,
    REJECTED,
    SOCKET_TIMEOUT,
    TASK,
    WAIT,
    WELCOME,
    ProtocolError,
    outcome_from_wire,
    pack_frame,
    parse_address,
    recv_frame_async,
    send_frame_async,
    unsupported_frame,
)
from repro.config.model import Config
from repro.search.batching import plan_batch, record_batch
from repro.search.results import EvalOutcome
from repro.search.retry import RetryPolicy
from repro.telemetry import NULL_TELEMETRY

#: channel id used by a standalone (single-search) ClusterEvaluator.
DEFAULT_CHANNEL = ""


class ClusterError(RuntimeError):
    """Coordinator-side setup or dispatch failure."""


class JobCancelled(RuntimeError):
    """A campaign's channel was aborted while a batch was in flight.

    Raised out of ``evaluate_batch`` on the engine thread of the
    cancelled job (and only that job); the service turns it into a
    ``cancelled`` job state.
    """


class _Task:
    """One leased unit of work: a deduplicated configuration."""

    __slots__ = ("task_id", "index", "flags", "digest", "job", "attempts",
                 "not_before", "done", "inflight")

    def __init__(self, task_id: int, index: int, flags: dict, digest: str,
                 job: str = DEFAULT_CHANNEL):
        self.task_id = task_id
        self.index = index          # position in the owning batch
        self.flags = flags          # wire form: node id -> policy char
        self.digest = digest
        self.job = job              # owning channel id ("" = standalone)
        self.attempts = 0           # crashes so far (not normal failures)
        #: loop time the task became (or, backed off, becomes) leasable
        self.not_before = 0.0
        self.done = False
        self.inflight = False       # currently leased (quota accounting)

    def payload(self, info: dict) -> dict:
        return {
            "type": TASK,
            "task": self.task_id,
            "job": self.job,
            "flags": self.flags,
            "digest": self.digest,
            **info,
        }


class _Batch:
    """One engine batch in flight on the loop."""

    __slots__ = ("outcomes", "remaining", "done")

    def __init__(self, size: int, loop) -> None:
        self.outcomes: list = [None] * size
        self.remaining = size
        self.done = loop.create_future()

    def finish_one(self, index: int, outcome: EvalOutcome) -> None:
        self.outcomes[index] = outcome
        self.remaining -= 1
        if self.remaining == 0 and not self.done.done():
            self.done.set_result(None)

    def abort(self, exc: BaseException) -> None:
        if not self.done.done():
            self.done.set_exception(exc)


class _Channel:
    """Loop-side state for one campaign sharing the worker pool."""

    __slots__ = ("job_id", "tenant", "quantum", "deficit", "info", "events",
                 "retry", "pending", "batch", "leased", "aborted")

    def __init__(self, job_id: str, tenant: str, quantum: float,
                 info: dict, events: deque, retry: RetryPolicy) -> None:
        self.job_id = job_id
        self.tenant = tenant
        self.quantum = quantum      # DRR credit earned per scheduler pass
        self.deficit = 0.0          # unspent credit (reset while idle)
        #: workload fields merged into every task payload
        self.info = info
        self.events = events        # (kind, fields) — drained engine-side
        self.retry = retry          # the campaign's policy for lost tasks
        #: leasable tasks; a requeued task rejoins when its backoff ends
        self.pending: deque[_Task] = deque()
        self.batch: _Batch | None = None
        self.leased = 0             # tasks of this channel currently leased
        #: why the channel was aborted (None = open).  Sticky: a batch
        #: submitted after the abort fails at once instead of waiting
        #: for an abort that already happened.
        self.aborted: str | None = None

    def pop_ready(self) -> _Task | None:
        while self.pending:
            task = self.pending.popleft()
            if not task.done:
                return task
        return None


class _WorkerConn:
    """Loop-side connection state for one network worker."""

    __slots__ = ("wid", "name", "writer", "leases", "last_seen",
                 "parked_at", "reaped")

    def __init__(self, wid: str, name: str, writer, now: float) -> None:
        self.wid = wid
        self.name = name
        self.writer = writer
        self.leases: dict[int, _Task] = {}
        self.last_seen = now
        self.parked_at = 0.0        # loop time its pending lease parked
        self.reaped = False


class _Coordinator:
    """Everything that runs on the event-loop thread."""

    def __init__(
        self,
        lease_timeout: float,
        client_api=None,
        max_inflight: int | None = None,
        lease_log: bool = False,
    ) -> None:
        self.lease_timeout = lease_timeout
        self.events: deque = deque()   # global (kind, fields) queue
        #: service hook answering client job frames (None = worker-only)
        self.client_api = client_api
        self.welcome = {
            "type": WELCOME,
            "version": PROTOCOL_VERSION,
            "lease_timeout": lease_timeout,
            "service": client_api is not None,
        }
        #: per-tenant cap on simultaneously leased tasks (None = off;
        #: channels with an empty tenant are never capped)
        self.max_inflight = max_inflight
        self.workers: dict[str, _WorkerConn] = {}
        #: workers with a parked lease, longest-parked first
        self.idle: dict[str, _WorkerConn] = {}
        self.channels: dict[str, _Channel] = {}
        self._ring: deque[str] = deque()   # DRR visit order over channels
        self.tasks: dict[int, _Task] = {}
        self.tenant_inflight: dict[str, int] = {}
        #: (job_id, tenant, tenant_inflight_after_grant) per granted
        #: lease, recorded only when requested — the fairness tests and
        #: the service bench read interleaving straight off this.
        self.lease_log: list | None = [] if lease_log else None
        self.closing = False
        self.server = None
        self.sweeper = None
        self._worker_seq = 0
        self._task_seq = 0
        # stats (read engine-side after drain; plain ints, GIL-safe)
        self.workers_seen = 0
        self.leases_granted = 0
        self.requeues = 0
        self.crashed_tasks = 0

    def event(self, kind: str, **fields) -> None:
        self.events.append((kind, fields))

    def job_event(self, job_id: str, kind: str, **fields) -> None:
        """Route an event to the owning channel's queue (so it lands in
        that job's trace); fall back to the global queue if the channel
        is already gone."""
        channel = self.channels.get(job_id)
        if channel is not None:
            if job_id:
                fields.setdefault("job", job_id)
            channel.events.append((kind, fields))
        else:
            self.events.append((kind, fields))

    # -- lifecycle (loop thread) --------------------------------------------

    async def start(self, host: str, port: int) -> tuple[str, int]:
        self.server = await asyncio.start_server(self._handle, host, port)
        self.sweeper = asyncio.ensure_future(self._sweep())
        bound = self.server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def shutdown(self) -> None:
        self.closing = True
        if self.sweeper is not None:
            self.sweeper.cancel()
        for job_id in list(self.channels):
            self._abort_channel(job_id, "coordinator shutting down")
        self.idle.clear()
        for worker in list(self.workers.values()):
            worker.reaped = True  # a closed connection is not a lost worker
            with contextlib.suppress(Exception):
                worker.writer.write(pack_frame({"type": BYE}))
            with contextlib.suppress(Exception):
                worker.writer.close()
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()

    # -- channel registry (loop thread) -------------------------------------

    async def open_channel(self, job_id: str, info: dict, events: deque,
                           retry: RetryPolicy, tenant: str = "",
                           quantum: float = 1.0) -> None:
        if job_id in self.channels:
            raise ClusterError(f"channel {job_id!r} already registered")
        self.channels[job_id] = _Channel(
            job_id, tenant, max(0.05, float(quantum)), info, events, retry,
        )
        self._ring.append(job_id)

    async def close_channel(self, job_id: str) -> None:
        self._abort_channel(job_id, "channel closed")
        self.channels.pop(job_id, None)
        with contextlib.suppress(ValueError):
            self._ring.remove(job_id)

    async def cancel_channel(self, job_id: str) -> bool:
        """Abort a channel's queues and in-flight batch (the channel
        stays registered until its owner closes it)."""
        return self._abort_channel(job_id, "job cancelled")

    def _abort_channel(self, job_id: str, why: str) -> bool:
        channel = self.channels.get(job_id)
        if channel is None:
            return False
        channel.aborted = why
        for task in list(self.tasks.values()):
            if task.job != job_id:
                continue
            self._release(task)
            task.done = True
            del self.tasks[task.task_id]
        channel.pending.clear()
        self._dispatch()  # the released quota may unblock another tenant
        batch, channel.batch = channel.batch, None
        if batch is not None:
            batch.abort(JobCancelled(f"{job_id or 'search'}: {why}"))
            return True
        return False

    # -- batch dispatch (loop thread) ---------------------------------------

    async def run_batch(self, job_id: str, payload: list) -> list:
        """Queue *payload* (``(flags, digest)`` pairs) as leasable tasks
        on *job_id*'s channel and wait until every one is decided."""
        channel = self.channels.get(job_id)
        if channel is None:
            raise ClusterError(f"no channel {job_id!r}")
        if channel.aborted is not None:
            # The abort already ran (e.g. a cancel that landed between
            # the engine's open check and this batch): nothing would
            # ever abort the batch registered here.
            raise JobCancelled(f"{job_id or 'search'}: {channel.aborted}")
        loop = asyncio.get_running_loop()
        batch = _Batch(len(payload), loop)
        channel.batch = batch
        tasks = []
        now = loop.time()
        for index, (flags, digest) in enumerate(payload):
            self._task_seq += 1
            task = _Task(self._task_seq, index, flags, digest, job_id)
            task.not_before = now
            self.tasks[task.task_id] = task
            channel.pending.append(task)
            tasks.append(task)
        self._dispatch()
        try:
            await batch.done
        finally:
            if channel.batch is batch:
                channel.batch = None
                channel.pending.clear()
            for task in tasks:
                self._release(task)
                task.done = True
                self.tasks.pop(task.task_id, None)
        return batch.outcomes

    def _quota_blocked(self, channel: _Channel) -> bool:
        if self.max_inflight is None or not channel.tenant:
            return False
        return (
            self.tenant_inflight.get(channel.tenant, 0) >= self.max_inflight
        )

    def _next_task(self) -> _Task | None:
        """Deficit round-robin over every ready channel.

        Each visited channel earns ``quantum`` credit and a lease costs
        one credit, so with the default quantum of 1.0 ready channels
        alternate strictly; fractional quanta throttle a channel to a
        share of the pool.  Idle channels forfeit their credit (classic
        DRR, so a long-idle campaign cannot burst later), and channels
        whose tenant is at its in-flight quota are skipped without
        earning credit.  Passes repeat until a lease is granted or a
        whole pass finds no channel able to earn credit: a parked worker
        is only re-offered work on the next trigger, so a small quantum
        must not leave it waiting for credit to build up.
        """
        ring = self._ring
        eligible = True
        while eligible:
            eligible = False
            for _ in range(len(ring)):
                job_id = ring[0]
                ring.rotate(-1)
                channel = self.channels.get(job_id)
                if channel is None:
                    continue
                if not channel.pending:
                    channel.deficit = 0.0
                    continue
                if self._quota_blocked(channel):
                    continue
                eligible = True
                channel.deficit += channel.quantum
                if channel.deficit < 1.0:
                    continue
                task = channel.pop_ready()
                if task is None:
                    channel.deficit = 0.0
                    continue
                channel.deficit -= 1.0
                return task
        return None

    def _dispatch(self) -> None:
        """Grant leasable tasks to parked workers, longest-parked first."""
        while self.idle and not self.closing:
            task = self._next_task()
            if task is None:
                return
            worker = self.idle.pop(next(iter(self.idle)))
            self._grant(worker, task)
            info = self.channels[task.job].info
            worker.writer.write(pack_frame(task.payload(info)))

    def _backoff_expired(self, task: _Task) -> None:
        """A requeued task's backoff is over: make it leasable again."""
        channel = self.channels.get(task.job)
        if task.done or channel is None:
            return
        channel.pending.append(task)
        self._dispatch()

    # -- connection handling (loop thread) ----------------------------------

    async def _handle(self, reader, writer) -> None:
        worker = None
        try:
            role, worker = await self._handshake(reader, writer)
            if role == ROLE_CLIENT:
                await self._serve_client(reader, writer)
            elif worker is not None:
                await self._serve(worker, reader, writer)
        except (ProtocolError, ConnectionError, asyncio.TimeoutError):
            pass
        finally:
            if worker is not None:
                self._reap(worker, "disconnect")
            with contextlib.suppress(Exception):
                writer.close()

    async def _handshake(self, reader, writer):
        hello = await recv_frame_async(reader)
        if hello is None or hello.get("type") != HELLO:
            return None, None
        if hello.get("version") != PROTOCOL_VERSION:
            # Structured refusal: the peer learns which version would
            # have been accepted, then we close cleanly instead of
            # silently dropping the connection.
            await send_frame_async(writer, unsupported_frame(hello))
            return None, None
        if hello.get("role") == ROLE_CLIENT:
            if self.client_api is None:
                await send_frame_async(writer, {
                    "type": ERROR,
                    "message": "this coordinator does not accept job "
                               "submissions (start it with --service)",
                })
                return None, None
            await send_frame_async(writer, self.welcome)
            return ROLE_CLIENT, None
        self._worker_seq += 1
        wid = f"w{self._worker_seq}"
        name = f"{hello.get('host', '?')}:{hello.get('pid', '?')}"
        now = asyncio.get_running_loop().time()
        worker = _WorkerConn(wid, name, writer, now)
        self.workers[wid] = worker
        self.workers_seen += 1
        self.event("cluster.worker_join", worker=wid, name=name)
        await send_frame_async(writer, self.welcome)
        return None, worker

    async def _serve_client(self, reader, writer) -> None:
        """Request/response loop for a job-submission client.

        Handlers run on an executor thread, not the loop: they take the
        registry lock, start job threads, and (for cancel) block on a
        coroutine scheduled back onto this very loop — which would
        deadlock if called inline.
        """
        loop = asyncio.get_running_loop()
        while True:
            message = await recv_frame_async(reader)
            if message is None or message.get("type") == BYE:
                return
            kind = message.get("type")
            if kind not in (SUBMIT, STATUS, RESULT, CANCEL, LIST):
                raise ProtocolError(f"unexpected client message {kind!r}")
            try:
                reply = await loop.run_in_executor(
                    None, self.client_api.handle_client, message
                )
            except Exception as exc:  # service bug: report, keep serving
                reply = {
                    "type": REJECTED,
                    "code": "internal",
                    "message": f"{type(exc).__name__}: {exc}",
                }
            await send_frame_async(writer, reply)

    async def _serve(self, worker: _WorkerConn, reader, writer) -> None:
        while True:
            message = await recv_frame_async(reader)
            if message is None:
                return  # EOF: worker gone (reaped by caller)
            worker.last_seen = asyncio.get_running_loop().time()
            kind = message.get("type")
            if kind == LEASE:
                if self.closing:
                    await send_frame_async(writer, {"type": BYE})
                    self._reap(worker, "bye", lost=False)
                    return
                # Park; _dispatch answers with a task now or once one
                # becomes leasable (the sweeper keeps long parks alive).
                worker.parked_at = worker.last_seen
                self.idle[worker.wid] = worker
                self._dispatch()
            elif kind == RESULT:
                self._complete(worker, message)
                await send_frame_async(writer, {"type": OK})
            elif kind == ERROR:
                # The worker survived but its evaluation blew up
                # (instrumentation bug, unpicklable trap, ...): treat it
                # like a crash of that one task — requeue elsewhere.
                task_id = _task_id(message)
                worker.leases.pop(task_id, None)
                self._task_lost(task_id, "worker_error")
                await send_frame_async(writer, {"type": OK})
            elif kind == HEARTBEAT:
                self.event(
                    "cluster.heartbeat",
                    worker=worker.wid, busy=len(worker.leases),
                )
            elif kind == EVENTS:
                # One-way telemetry forwarding: merge the worker's
                # per-task events into the owning channel's queue, tagged
                # with the worker id.  The worker's own clock is
                # preserved as `worker_ts`; the engine-side drain stamps
                # the merged trace's single monotonic `ts` on emission.
                task_id = _task_id(message)
                task = self.tasks.get(task_id)
                job_id = task.job if task is not None else DEFAULT_CHANNEL
                for forwarded in message.get("events", ()):
                    if not isinstance(forwarded, dict) or "kind" not in forwarded:
                        continue
                    fields = dict(forwarded)
                    event_kind = fields.pop("kind")
                    fields["worker_ts"] = fields.pop("ts", 0.0)
                    fields["worker"] = worker.wid
                    fields.setdefault("task", task_id)
                    self.job_event(job_id, event_kind, **fields)
            elif kind == BYE:
                self._reap(worker, "bye", lost=False)
                return
            else:
                raise ProtocolError(f"unexpected message {kind!r}")

    # -- lease accounting (loop thread) --------------------------------------

    def _grant(self, worker: _WorkerConn, task: _Task) -> None:
        now = asyncio.get_running_loop().time()
        worker.leases[task.task_id] = task
        task.inflight = True
        channel = self.channels.get(task.job)
        tenant = channel.tenant if channel is not None else ""
        if channel is not None:
            channel.leased += 1
        if tenant:
            self.tenant_inflight[tenant] = (
                self.tenant_inflight.get(tenant, 0) + 1
            )
        self.leases_granted += 1
        if self.lease_log is not None:
            self.lease_log.append(
                (task.job, tenant, self.tenant_inflight.get(tenant, 0))
            )
        self.job_event(
            task.job, "cluster.lease",
            worker=worker.wid, task=task.task_id, busy=len(worker.leases),
            queued_s=round(max(0.0, now - task.not_before), 6),
        )

    def _release(self, task: _Task) -> None:
        """Return a task's lease to the quota ledger (idempotent)."""
        if not task.inflight:
            return
        task.inflight = False
        channel = self.channels.get(task.job)
        if channel is not None:
            channel.leased = max(0, channel.leased - 1)
            if channel.tenant:
                left = self.tenant_inflight.get(channel.tenant, 0) - 1
                if left > 0:
                    self.tenant_inflight[channel.tenant] = left
                else:
                    self.tenant_inflight.pop(channel.tenant, None)

    def _complete(self, worker: _WorkerConn, message: dict) -> None:
        # Validate before touching any state: a malformed frame raises
        # ProtocolError, which reaps the worker with its leases intact
        # so they are requeued.
        task_id = _task_id(message)
        outcome = outcome_from_wire(message.get("outcome"))
        worker.leases.pop(task_id, None)
        task = self.tasks.get(task_id)
        if task is None or task.done:
            return  # late duplicate from a presumed-dead worker: first wins
        self._release(task)
        task.done = True
        channel = self.channels.get(task.job)
        if channel is not None and channel.batch is not None:
            channel.batch.finish_one(task.index, outcome)
        self._dispatch()  # the released quota may unblock a parked worker

    def _task_lost(self, task_id, reason: str, charge: bool = True) -> None:
        """Requeue a task its worker lost.  A charged loss (crash, error,
        expiry) spends a retry attempt and backs off; an uncharged one
        (a worker leaving cleanly) is leasable again at once."""
        task = self.tasks.get(task_id)
        if task is None or task.done:
            return
        self._release(task)
        self._dispatch()  # the released quota may unblock a parked worker
        channel = self.channels.get(task.job)
        if channel is None:
            return
        delay = 0.0
        if charge:
            task.attempts += 1
            if channel.retry.exhausted(task.attempts):
                # Kept killing (or losing) its executor: classify, descend.
                self.crashed_tasks += 1
                self.job_event(
                    task.job, "eval.worker_crash", attempts=task.attempts
                )
                task.done = True
                if channel.batch is not None:
                    channel.batch.finish_one(
                        task.index,
                        channel.retry.crash_outcome(
                            task.attempts, what="cluster worker died"
                        ),
                    )
                return
            delay = channel.retry.delay(task.attempts)
        self.requeues += 1
        loop = asyncio.get_running_loop()
        task.not_before = loop.time() + delay
        loop.call_at(task.not_before, self._backoff_expired, task)
        self.job_event(
            task.job, "cluster.requeue",
            task=task.task_id, attempts=task.attempts, reason=reason,
        )

    def _reap(self, worker: _WorkerConn, reason: str,
              lost: bool = True) -> None:
        """A worker is gone and its leases are requeued: charged if it
        was lost (EOF, protocol error, expired heartbeat), uncharged if
        it left cleanly with ``bye``."""
        if worker.reaped:
            return
        worker.reaped = True
        self.workers.pop(worker.wid, None)
        self.idle.pop(worker.wid, None)
        if lost:
            self.event(
                "cluster.worker_lost",
                worker=worker.wid, leases=len(worker.leases), reason=reason,
            )
        leases = list(worker.leases.values())
        worker.leases.clear()
        for task in leases:
            self._task_lost(task.task_id, reason, charge=lost)

    async def _sweep(self) -> None:
        """Expire workers whose heartbeats stopped (network partition,
        frozen process — a SIGKILL usually surfaces as EOF instead), and
        answer leases parked for a quarter of the liveness window with a
        ``wait`` keepalive, well inside the worker's socket timeout."""
        interval = max(0.01, min(1.0, self.lease_timeout / 4))
        park_limit = min(self.lease_timeout, SOCKET_TIMEOUT) / 4
        while True:
            await asyncio.sleep(interval)
            now = asyncio.get_running_loop().time()
            for worker in list(self.workers.values()):
                if now - worker.last_seen > self.lease_timeout:
                    self._reap(worker, "expired")
                    with contextlib.suppress(Exception):
                        worker.writer.close()
            for worker in list(self.idle.values()):
                if now - worker.parked_at > park_limit:
                    del self.idle[worker.wid]
                    worker.writer.write(pack_frame({"type": WAIT, "delay": 0}))


def _task_id(message: dict) -> int:
    task_id = message.get("task")
    if not isinstance(task_id, int) or isinstance(task_id, bool):
        raise ProtocolError(f"malformed task id {task_id!r}")
    return task_id


class CoordinatorHost:
    """The one owner of a coordinator's event-loop thread.

    Starts the loop on a daemon thread and the coordinator's TCP server
    on *bind*; :meth:`call` runs a coordinator coroutine from any other
    thread, and :meth:`close` shuts the coordinator down and stops the
    loop.  Used by both :class:`ClusterEvaluator` and
    :class:`~repro.service.server.PrecisionService`.
    """

    def __init__(self, coord: _Coordinator, bind: str, name: str) -> None:
        self.coord = coord
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self.loop.run_forever, name=name, daemon=True
        )
        self._thread.start()
        host, port = parse_address(bind)
        try:
            self.host, self.port = self.call(coord.start(host, port), 10)
        except BaseException:
            self._stop_loop()
            raise

    @property
    def address(self) -> str:
        """The bound ``host:port``."""
        return f"{self.host}:{self.port}"

    def submit(self, coro) -> concurrent.futures.Future:
        return asyncio.run_coroutine_threadsafe(coro, self.loop)

    def call(self, coro, timeout: float = 5):
        return self.submit(coro).result(timeout=timeout)

    def close(self) -> None:
        try:
            self.call(self.coord.shutdown())
        except (concurrent.futures.TimeoutError, RuntimeError):
            pass
        finally:
            self._stop_loop()

    def _stop_loop(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=5)
        if not self.loop.is_running():
            self.loop.close()


class BaseLeaseEvaluator:
    """Engine-thread side of lease dispatch: one search riding one
    channel of a coordinator that runs on *host*.

    A standalone :class:`ClusterEvaluator` is this plus its own
    coordinator; a service job is this on the service's shared one,
    with its ``job`` (``job_id``, ``tenant``, ``quantum`` and
    ``cancel_event``) naming the channel.  Caches, counters, batch
    planning and telemetry draining are the same code either way, which
    is what keeps a service job byte-identical to a standalone search.

    Cancellation: the job's ``cancel_event`` is checked at every batch
    boundary, and the service aborts the job's channel for a batch
    already in flight; either path raises :class:`JobCancelled` on this
    job's engine thread only.
    """

    def __init__(
        self,
        host: CoordinatorHost,
        workload,
        tree,
        job=None,
        optimize_checks: bool = False,
        telemetry=None,
        incremental: bool = True,
        store=None,
        store_workload: str = "",
        retry: RetryPolicy | None = None,
        lattice=None,
    ) -> None:
        from repro.store import workload_id

        self.workload = workload
        self.tree = tree
        self.optimize_checks = optimize_checks
        self.incremental = incremental
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.cache: dict = {}
        self.semantic_cache: dict = {}
        self.evaluations = 0
        self.cache_hits = 0
        self.store = store
        wid = workload_id(workload)
        self.store_workload = store_workload or wid
        self.store_hits = 0
        #: lattice spec salting the store's policy digests (see Evaluator)
        self.lattice = lattice
        #: configurations actually run on some worker (excludes replays)
        self.executions = 0
        #: policy digests counted toward ``evaluations`` (see Evaluator)
        self.decided: set = set()
        self.retry = retry if retry is not None else RetryPolicy()
        self._drain_interval = 0.05
        self._closed = False
        self._host = host
        self._coord = host.coord
        self._job = job
        name = getattr(workload, "name", tree.program_name)
        klass = getattr(workload, "klass", "")
        if klass and name.endswith("." + klass):
            name = name[: -(len(klass) + 1)]
        # Every task frame carries these, so a worker builds (and
        # caches) the workload each task names.
        info = {
            "workload": name,
            "klass": klass,
            "workload_id": wid,
            "incremental": incremental,
            "optimize_checks": optimize_checks,
        }
        if job is None:
            # A standalone search's one channel shares the coordinator's
            # global event queue, so worker lifecycle events land in the
            # same trace.
            self.job_id, tenant, quantum = DEFAULT_CHANNEL, "", 1.0
            self._events = self._coord.events
        else:
            self.job_id, tenant, quantum = job.job_id, job.tenant, job.quantum
            self._events = deque()
        host.call(
            self._coord.open_channel(
                self.job_id, info, self._events, self.retry, tenant, quantum
            ),
            10,
        )

    def _store_id(self) -> str:
        return self.store_workload

    def _check_open(self) -> None:
        if self._closed:
            raise ClusterError("evaluator is closed")
        if self._job is not None and self._job.cancel_event.is_set():
            raise JobCancelled(f"{self.job_id}: job cancelled")

    # -- telemetry bridge ----------------------------------------------------

    def _drain_events(self) -> None:
        """Emit queued coordinator events from the engine thread (the
        trace's single writer)."""
        telemetry = self.telemetry
        events = self._events
        while events:
            kind, fields = events.popleft()
            if not telemetry.enabled:
                continue
            if kind == "eval.worker_crash":
                telemetry.count("eval.worker_crashes")
            elif kind == "cluster.requeue":
                telemetry.count("cluster.requeues")
            elif kind == "cluster.lease":
                telemetry.count("cluster.leases")
            telemetry.emit(kind, **fields)

    # -- Evaluator protocol ---------------------------------------------------

    def evaluate(self, config: Config) -> EvalOutcome:
        return self.evaluate_batch([config])[0]

    def evaluate_batch(self, configs: list[Config]) -> list[EvalOutcome]:
        self._check_open()
        # Parent-side dedup (shared with ParallelEvaluator): what remains
        # in plan.jobs is exactly what a serial evaluator would execute —
        # re-connected or duplicate workers can never re-run a decided
        # config because decided configs never become tasks.
        plan = plan_batch(self, configs)
        outcomes: list = []
        batch_wall = 0.0
        if plan.jobs:
            payload = [
                (
                    {nid: policy.value for nid, policy in job.config.flags.items()},
                    job.digest,
                )
                for job in plan.jobs
            ]
            start = time.perf_counter()
            future = self._host.submit(
                self._coord.run_batch(self.job_id, payload)
            )
            try:
                while True:
                    try:
                        outcomes = future.result(self._drain_interval)
                        break
                    except concurrent.futures.TimeoutError:
                        self._drain_events()  # keep progress/traces live
            finally:
                self._drain_events()
            batch_wall = time.perf_counter() - start
        self._drain_events()
        return record_batch(self, plan, outcomes, batch_wall)

    def close(self) -> None:
        """Close this evaluator's channel (the coordinator stays up)."""
        if self._closed:
            return
        self._closed = True
        with contextlib.suppress(Exception):  # loop already shutting down
            self._host.call(self._coord.close_channel(self.job_id))
        self._drain_events()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ClusterEvaluator(BaseLeaseEvaluator):
    """Evaluator that dispatches batches to network workers: a
    coordinator of its own, bound to *bind*, with one channel.

    Parameters mirror :class:`~repro.search.parallel.ParallelEvaluator`
    where they overlap; the extras:

    bind:
        ``HOST:PORT`` to listen on (port 0 = let the OS pick; the bound
        address is in :attr:`address`).
    retry:
        Shared :class:`~repro.search.retry.RetryPolicy` for tasks whose
        worker dies (requeue with exponential backoff, classify as
        ``worker_crash`` on exhaustion).
    lease_timeout:
        Seconds of worker silence (no result/heartbeat/lease) before its
        leases are requeued and the connection is declared lost.
        Workers heartbeat at a quarter of this, so only a dead — not
        merely busy — worker expires.

    Workers may connect at any time, including mid-search; a batch with
    no connected workers simply waits for the first one to join.
    """

    def __init__(
        self,
        workload,
        tree,
        bind: str = "127.0.0.1:0",
        optimize_checks: bool = False,
        telemetry=None,
        incremental: bool = True,
        store=None,
        store_workload: str = "",
        retry: RetryPolicy | None = None,
        lease_timeout: float = 30.0,
        lattice=None,
    ) -> None:
        self.lease_timeout = lease_timeout
        host = CoordinatorHost(
            _Coordinator(lease_timeout), bind, "repro-cluster"
        )
        try:
            super().__init__(
                host, workload, tree,
                optimize_checks=optimize_checks, telemetry=telemetry,
                incremental=incremental, store=store,
                store_workload=store_workload, retry=retry, lattice=lattice,
            )
        except BaseException:
            host.close()
            raise

    # -- coordinator stats ---------------------------------------------------

    @property
    def address(self) -> str:
        """The bound ``host:port`` workers should connect to."""
        return self._host.address

    @property
    def workers_connected(self) -> int:
        return len(self._coord.workers)

    @property
    def workers_seen(self) -> int:
        return self._coord.workers_seen

    @property
    def leases_granted(self) -> int:
        return self._coord.leases_granted

    @property
    def requeues(self) -> int:
        return self._coord.requeues

    @property
    def crashed_configs(self) -> int:
        return self._coord.crashed_tasks

    def close(self) -> None:
        if self._closed:
            return
        super().close()
        self._host.close()
