"""The network worker: a stateless evaluation client.

``repro worker HOST:PORT`` connects to a coordinator and loops: lease a
task, execute it through the shared :mod:`repro.search.execution`
kernel, report the outcome.  Every ``task`` frame names its
``workload``/``klass``/``workload_id``, so one worker serves a
standalone search and every concurrent campaign of a job service alike.
The worker rebuilds each workload *locally* (programs are compiled
deterministically, so the coordinator only ships a name) and caches it,
with its incremental VM state, per ``workload_id``; the
content-addressed id catches any version skew between the two hosts at
the first task that names it.  A skewed worker refuses the task and
leaves with ``bye``, which hands the lease back uncharged.  All search
state lives on the coordinator; a worker can be killed, restarted, or
added mid-search without changing the result.

The handshake carries :data:`~repro.cluster.protocol.PROTOCOL_VERSION`;
a coordinator of another version answers a structured ``unsupported``
frame instead of a silent disconnect.

A ``lease`` the coordinator cannot fill at once is parked there: the
worker simply blocks on its socket until a ``task`` arrives (or a
``wait`` keepalive, after which it leases again).  A task's forwarded
telemetry and its ``result``/``error`` leave in one write, so no frame
waits in the kernel for the previous one's ACK.

A heartbeat thread sends one-way ``heartbeat`` frames at a quarter of
the coordinator's lease timeout so a long-running evaluation does not
look like a dead worker.  Heartbeats are never answered — the main
loop's request/response pairing stays strict.

Fault injection: when the environment variable named by
:data:`EXIT_SENTINEL_VAR` points at an existing file, the worker unlinks
the file and ``os._exit(1)``-s right before executing its next task —
the crash-exactly-once idiom the differential and CI smoke tests use to
prove lost leases are requeued (the unlink happens first, so a respawned
or sibling worker does not crash again).
"""

from __future__ import annotations

import os
import socket
import threading
import time

from repro.cluster.protocol import (
    BYE,
    ERROR,
    EVENTS,
    HEARTBEAT,
    LEASE,
    OK,
    RESULT,
    ROLE_WORKER,
    TASK,
    WAIT,
    HandshakeRefused,
    ProtocolError,
    check_welcome,
    dial,
    hello_frame,
    outcome_to_wire,
    recv_frame,
    send_frame,
    send_frames,
)
from repro.config.generator import build_tree
from repro.config.model import Config, Policy
from repro.search.evaluator import IncrementalState
from repro.search.execution import execute_config
from repro.telemetry import ListSink, Telemetry
from repro.workloads import make_workload

#: environment variable holding a sentinel-file path; see module docstring.
EXIT_SENTINEL_VAR = "REPRO_WORKER_EXIT_SENTINEL"


class WorkerError(RuntimeError):
    """Handshake refusal or workload mismatch — not worth retrying."""


def _maybe_crash() -> None:
    sentinel = os.environ.get(EXIT_SENTINEL_VAR)
    if sentinel and os.path.exists(sentinel):
        try:
            os.unlink(sentinel)  # crash exactly once across restarts
        except OSError:
            pass
        os._exit(1)


def connect(
    address: str,
    connect_retries: int = 50,
    connect_backoff: float = 0.1,
) -> socket.socket:
    """Dial the coordinator, retrying while it is still coming up."""
    try:
        return dial(address, connect_retries, connect_backoff)
    except OSError as exc:
        raise WorkerError(
            f"cannot reach coordinator at {address}: {exc}"
        ) from None


class _WorkloadCache:
    """Per-``workload_id`` build of (workload, tree, incremental state).

    Each build is validated against the coordinator's content-addressed
    id, so version skew between hosts surfaces as a refusal rather than
    wrong results.
    """

    def __init__(self, telemetry) -> None:
        self.telemetry = telemetry
        self._built: dict[str, tuple] = {}

    def names(self) -> list[str]:
        """``name.class`` of every workload built, in build order."""
        return [workload.name for workload, _, _ in self._built.values()]

    def get(self, name: str, klass: str, expected_id: str,
            incremental: bool) -> tuple:
        entry = self._built.get(expected_id)
        if entry is not None:
            return entry
        from repro.store import workload_id

        workload = make_workload(name, klass or "W")
        local_id = workload_id(workload)
        if local_id != expected_id:
            raise WorkerError(
                f"workload {name!r} class {klass!r} builds to id "
                f"{local_id[:12]} here but the coordinator expects "
                f"{expected_id[:12]} — version skew between hosts"
            )
        tree = build_tree(workload.program)
        state = (
            IncrementalState(workload, telemetry=self.telemetry)
            if incremental
            else None
        )
        entry = (workload, tree, state)
        self._built[expected_id] = entry
        return entry


def _report(sock, send_lock, outcome: dict, events_sink) -> None:
    """Send a task's buffered telemetry and its outcome in one write.

    The one-way ``events`` frame goes *before* the result/error frame so
    the coordinator merges the evidence into its trace ahead of the
    outcome it explains; an empty buffer sends no ``events`` frame.
    """
    frames = []
    if events_sink.events:
        frames.append({
            "type": EVENTS,
            "task": outcome["task"],
            "events": list(events_sink.events),
        })
        events_sink.events.clear()
    frames.append(outcome)
    with send_lock:
        send_frames(sock, frames)


class _Heartbeat(threading.Thread):
    """One-way keepalives under the shared send lock."""

    def __init__(self, sock, lock: threading.Lock, interval: float) -> None:
        super().__init__(name="repro-worker-heartbeat", daemon=True)
        self.sock = sock
        self.lock = lock
        self.interval = interval
        self.stopping = threading.Event()

    def run(self) -> None:
        while not self.stopping.wait(self.interval):
            try:
                with self.lock:
                    send_frame(self.sock, {"type": HEARTBEAT})
            except OSError:
                return  # connection gone; main loop will notice too

    def stop(self) -> None:
        self.stopping.set()


def run_worker(
    address: str,
    max_tasks: int | None = None,
    connect_retries: int = 50,
    connect_backoff: float = 0.1,
) -> dict:
    """Serve one coordinator until it says ``bye`` (or *max_tasks* runs
    out); returns ``{"tasks": n, "workloads": ["name.class", ...]}`` run
    statistics, naming every workload this worker built."""
    sock = connect(address, connect_retries, connect_backoff)
    send_lock = threading.Lock()
    heartbeat = None
    tasks_done = 0
    # Local telemetry buffer: per-task events are flushed to the
    # coordinator as one-way `events` frames so the search's trace
    # covers worker-side activity too, cache counters included (as
    # metric.count events).
    events_sink = ListSink()
    wtel = Telemetry(sinks=[events_sink])
    builds = _WorkloadCache(wtel)
    try:
        send_frame(sock, hello_frame(ROLE_WORKER))
        try:
            welcome = check_welcome(recv_frame(sock))
        except HandshakeRefused as exc:
            raise WorkerError(f"coordinator refused: {exc}") from None
        interval = max(0.005, float(welcome.get("lease_timeout", 30.0)) / 4)
        heartbeat = _Heartbeat(sock, send_lock, interval)
        heartbeat.start()
        while max_tasks is None or tasks_done < max_tasks:
            with send_lock:
                send_frame(sock, {"type": LEASE})
            reply = recv_frame(sock)
            if reply is None or reply.get("type") == BYE:
                break
            kind = reply.get("type")
            if kind == WAIT:
                continue  # keepalive for a long-parked lease
            if kind != TASK:
                raise ProtocolError(f"expected task/wait/bye, got {kind!r}")
            _maybe_crash()
            workload, tree, state = builds.get(
                reply["workload"],
                reply.get("klass", ""),
                reply["workload_id"],
                bool(reply.get("incremental")),
            )
            optimize_checks = bool(reply.get("optimize_checks"))
            flags = {
                nid: Policy(policy) for nid, policy in reply["flags"].items()
            }
            config = Config(tree, flags)
            started = time.perf_counter()
            try:
                outcome, _ = execute_config(
                    workload, config, state, optimize_checks, telemetry=wtel
                )
            except Exception as exc:  # an evaluation bug, not a protocol one
                _report(sock, send_lock, {
                    "type": ERROR,
                    "task": reply["task"],
                    "message": f"{type(exc).__name__}: {exc}",
                }, events_sink)
            else:
                wtel.emit(
                    "eval.remote",
                    task=reply["task"],
                    passed=outcome.passed,
                    cycles=outcome.cycles,
                    trap=outcome.trap,
                    reason=outcome.reason,
                    wall_s=round(time.perf_counter() - started, 6),
                )
                _report(sock, send_lock, {
                    "type": RESULT,
                    "task": reply["task"],
                    "outcome": outcome_to_wire(outcome),
                }, events_sink)
                tasks_done += 1
            ack = recv_frame(sock)
            if ack is None:
                break
            if ack.get("type") != OK:
                raise ProtocolError(f"expected ok, got {ack.get('type')!r}")
    finally:
        if heartbeat is not None:
            heartbeat.stop()
        try:
            with send_lock:
                send_frame(sock, {"type": BYE})
        except OSError:
            pass
        sock.close()
    return {"tasks": tasks_done, "workloads": builds.names()}
