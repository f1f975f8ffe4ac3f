"""The coordinator/worker wire protocol: length-prefixed JSON frames.

One frame is a 4-byte big-endian length followed by that many bytes of
UTF-8 JSON encoding a single object with a ``type`` key.  The format is
deliberately boring: debuggable with ``nc`` + ``xxd``, versioned with a
single integer, and byte-order-explicit so heterogeneous hosts agree.

Message flow (worker-initiated request/response, except heartbeats)::

    worker                         coordinator
    ------                         -----------
    hello {version, versions,
           role, host, pid}     ->
                                <- welcome {version, workload, klass,
                                            workload_id, incremental,
                                            optimize_checks,
                                            lease_timeout}
                                   | unsupported {supported, message}
                                     (structured refusal + clean close;
                                      `versions` lists everything the
                                      worker speaks so both sides can
                                      settle on the highest shared
                                      version — a v2 worker still
                                      serves a single-job coordinator)
    lease {}                    ->    (parks until a task is leasable)
                                <- task {task, flags, digest}
                                   | wait {delay: 0}  (keepalive for a
                                                       lease parked long;
                                                       lease again)
                                   | bye {}         (search over)
    events {task, events}       ->    (one-way: never answered, written
                                       in the same sendall as the
                                       result/error it precedes — the
                                       worker's telemetry events for
                                       that task, merged by the
                                       coordinator into the unified
                                       trace tagged with the worker id)
    result {task, outcome,
            deltas}             ->
                                <- ok {}
    error {task, message}       ->
                                <- ok {}
    heartbeat {}                ->    (one-way: never answered, sent by
                                       the worker's heartbeat thread to
                                       keep its leases alive during long
                                       evaluations)
    bye {}                      ->    (clean disconnect)

Client flow (protocol v3, ``hello`` with ``role: "client"`` — spoken by
:mod:`repro.service` against a ``repro serve --service`` coordinator)::

    client                         service
    ------                         -------
    hello {version, versions,
           role: "client"}      ->
                                <- welcome {version, service: true}
                                   | unsupported {supported, message}
    submit {workload, klass,
            tenant, options}    ->
                                <- submitted {job}
                                   | rejected {code, message}
    status {job}                ->
                                <- job {job, state, ...}
                                   | rejected {code: "unknown_job"}
    result {job}                ->
                                <- job {job, state, row, config, ...}
    cancel {job}                ->
                                <- job {job, state}
    list {}                     ->
                                <- jobs {jobs: [...]}
    bye {}                      ->    (clean disconnect)

Worker and client frames share one framing layer and one handshake; the
``role`` field routes the connection after ``welcome``.  A worker ``result``
carries a ``task`` key, a client ``result`` carries a ``job`` key — they
never travel on the same connection.

A ``lease`` that finds no ready task is not answered at once: the
coordinator parks the worker and writes its ``task`` the moment one
becomes leasable (a batch arrives, a quota or a backoff frees one).  A
lease parked for a quarter of the liveness window (capped by
:data:`SOCKET_TIMEOUT`) is answered ``wait {delay: 0}`` so the worker's
blocking read never times out on a healthy coordinator.

Every client-side socket is opened by :func:`dial`, which sets
``TCP_NODELAY``: every exchange is a small request answered by a small
reply, the pattern Nagle's algorithm and delayed ACKs stall.

Every worker→coordinator message refreshes the worker's liveness
deadline; a worker silent for longer than the lease timeout — or whose
connection reaches EOF, the usual fate of a SIGKILLed process — is
declared lost and its leases are requeued.

Both a synchronous (blocking-socket, worker-side) and an asyncio
(coordinator-side) implementation of the framing live here so the two
endpoints cannot drift.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import time

#: bump on any incompatible message-shape change; hello/welcome carry it
#: and mismatches are refused at handshake time.
#: v2: one-way ``events`` frames forward worker telemetry to the
#: coordinator for merged-trace aggregation.
#: v3: version negotiation (hello ``versions`` list, ``unsupported``
#: refusals), connection roles (worker/client), client job frames
#: (submit/status/result/cancel/list), and per-task workload fields so
#: one worker serves many concurrent campaigns.
PROTOCOL_VERSION = 3

#: every version this endpoint can speak; the handshake settles on the
#: highest version both sides list (a peer that predates ``versions``
#: implicitly offers only its single ``version``).
SUPPORTED_VERSIONS = (2, 3)

#: frames above this are a protocol violation (a config flag map for a
#: huge program is ~100 KiB; 16 MiB is three orders of magnitude slack).
MAX_FRAME = 16 * 1024 * 1024

_HEADER = struct.Struct(">I")

#: timeout on every blocking client-side socket; the coordinator answers
#: a parked lease well inside it (see the module docstring).
SOCKET_TIMEOUT = 30.0

# message types
HELLO = "hello"
WELCOME = "welcome"
LEASE = "lease"
TASK = "task"
WAIT = "wait"
RESULT = "result"
ERROR = "error"
HEARTBEAT = "heartbeat"
EVENTS = "events"
OK = "ok"
BYE = "bye"
# handshake refusal (v3): structured "I don't speak your version"
UNSUPPORTED = "unsupported"
# client job frames (v3, role: "client")
SUBMIT = "submit"
SUBMITTED = "submitted"
STATUS = "status"
CANCEL = "cancel"
LIST = "list"
JOB = "job"
JOBS = "jobs"
REJECTED = "rejected"

# connection roles carried in hello (v3); absent = worker (v2 peers)
ROLE_WORKER = "worker"
ROLE_CLIENT = "client"


class ProtocolError(RuntimeError):
    """Malformed frame, oversized frame, or an unexpected message."""


def pack_frame(message: dict) -> bytes:
    """Serialize one message to its wire form (header + JSON payload)."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds MAX_FRAME")
    return _HEADER.pack(len(payload)) + payload


def _decode(payload: bytes) -> dict:
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from None
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError(f"frame is not a typed message: {message!r}")
    return message


def _check_length(length: int) -> None:
    if length > MAX_FRAME:
        raise ProtocolError(f"frame header claims {length} bytes (> MAX_FRAME)")


# -- synchronous (worker-side) endpoints ------------------------------------


def dial(address: str, retries: int = 50,
         backoff: float = 0.1) -> socket.socket:
    """Connect to ``HOST:PORT``, retrying while the peer is still coming
    up, and disable Nagle's algorithm on the connected socket.

    Raises the last :class:`OSError` once *retries* are spent.
    """
    host, port = parse_address(address)
    for attempt in range(retries + 1):
        try:
            sock = socket.create_connection((host, port),
                                            timeout=SOCKET_TIMEOUT)
            break
        except OSError:
            if attempt == retries:
                raise
            time.sleep(backoff * min(attempt + 1, 10))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def send_frame(sock: socket.socket, message: dict) -> None:
    sock.sendall(pack_frame(message))


def send_frames(sock: socket.socket, messages) -> None:
    """Send several frames with one ``sendall``, in order."""
    sock.sendall(b"".join(pack_frame(message) for message in messages))


def recv_frame(sock: socket.socket) -> dict | None:
    """Read one frame from a blocking socket; None on clean EOF at a
    frame boundary, :class:`ProtocolError` on EOF mid-frame."""
    header = _recv_exact(sock, _HEADER.size, eof_ok=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    _check_length(length)
    payload = _recv_exact(sock, length, eof_ok=False)
    return _decode(payload)


def _recv_exact(sock: socket.socket, n: int, eof_ok: bool) -> bytes | None:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if eof_ok and remaining == n:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# -- asyncio (coordinator-side) endpoints -----------------------------------


async def send_frame_async(writer: asyncio.StreamWriter, message: dict) -> None:
    writer.write(pack_frame(message))
    await writer.drain()


async def recv_frame_async(reader: asyncio.StreamReader) -> dict | None:
    """Asyncio twin of :func:`recv_frame` (None on clean EOF)."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-header") from None
    (length,) = _HEADER.unpack(header)
    _check_length(length)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError(
            f"connection closed mid-frame (wanted {length} bytes)"
        ) from None
    return _decode(payload)


# -- shared helpers ----------------------------------------------------------


def parse_address(address: str) -> tuple[str, int]:
    """Split ``HOST:PORT`` (port may be 0 = let the OS pick)."""
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address {address!r} is not HOST:PORT")
    return host, int(port)


def offered_versions(hello: dict) -> list[int]:
    """Every protocol version a ``hello`` frame offers.

    v3 peers send an explicit ``versions`` list; older peers only carry
    the single ``version`` integer, which counts as a one-element offer
    so negotiation covers them uniformly.
    """
    offered = hello.get("versions")
    if not isinstance(offered, (list, tuple)):
        offered = [hello.get("version")]
    return sorted({int(v) for v in offered if isinstance(v, int)})


def negotiate_version(hello: dict, supported=SUPPORTED_VERSIONS) -> int | None:
    """Pick the highest version both sides speak, or None if disjoint."""
    shared = set(offered_versions(hello)) & set(supported)
    return max(shared) if shared else None


def unsupported_frame(hello: dict, supported=SUPPORTED_VERSIONS) -> dict:
    """The structured refusal sent when negotiation finds no overlap."""
    offered = offered_versions(hello)
    return {
        "type": UNSUPPORTED,
        "supported": sorted(supported),
        "message": (
            f"peer offers protocol version(s) {offered or '?'}, "
            f"this coordinator speaks {sorted(supported)}"
        ),
    }


def outcome_to_wire(outcome) -> list:
    """EvalOutcome -> JSON-safe list (NamedTuples serialize as lists
    anyway; this pins the order as part of the protocol)."""
    return [bool(outcome.passed), int(outcome.cycles), outcome.trap, outcome.reason]


def outcome_from_wire(wire) -> tuple:
    from repro.search.results import EvalOutcome

    passed, cycles, trap, reason = wire
    return EvalOutcome(bool(passed), int(cycles), str(trap), str(reason))
