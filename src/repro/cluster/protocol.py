"""The coordinator/worker wire protocol: length-prefixed JSON frames.

One frame is a 4-byte big-endian length followed by that many bytes of
UTF-8 JSON encoding a single object with a ``type`` key.  The format is
deliberately boring: debuggable with ``nc`` + ``xxd``, versioned with a
single integer, and byte-order-explicit so heterogeneous hosts agree.

Message flow (worker-initiated request/response, except heartbeats)::

    worker                         coordinator
    ------                         -----------
    hello {version, role,
           host, pid}           ->
                                <- welcome {version, lease_timeout,
                                            service}
                                   | unsupported {supported, message}
                                     (structured refusal + clean close:
                                      `version` must equal the
                                      coordinator's PROTOCOL_VERSION)
    lease {}                    ->    (parks until a task is leasable)
                                <- task {task, job, flags, digest,
                                         workload, klass, workload_id,
                                         incremental, optimize_checks}
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
    result {task, outcome}      ->
                                <- ok {}
    error {task, message}       ->
                                <- ok {}
    heartbeat {}                ->    (one-way: never answered, sent by
                                       the worker's heartbeat thread to
                                       keep its leases alive during long
                                       evaluations)
    bye {}                      ->    (clean disconnect; leases it still
                                       holds are requeued uncharged)

Every ``task`` names its own workload, so one worker serves a
standalone search (one channel) and a job service (one channel per
job) alike, building and caching each workload it meets.

Client flow (``hello`` with ``role: "client"`` — spoken by
:mod:`repro.service` against a ``repro serve --service`` coordinator)::

    client                         service
    ------                         -------
    hello {version,
           role: "client"}      ->
                                <- welcome {version, lease_timeout,
                                            service: true}
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
import os
import socket
import struct
import time

#: bump on any incompatible message-shape change.  ``hello`` carries it
#: and the coordinator accepts only an equal version: workers, clients
#: and coordinator ship from the same tree, so there is nothing to
#: negotiate.  v4: ``welcome`` pins no workload (every ``task`` names
#: its own) and ``result`` carries no counter deltas.
PROTOCOL_VERSION = 4

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
# handshake refusal: structured "I don't speak your version"
UNSUPPORTED = "unsupported"
# client job frames (role: "client")
SUBMIT = "submit"
SUBMITTED = "submitted"
STATUS = "status"
CANCEL = "cancel"
LIST = "list"
JOB = "job"
JOBS = "jobs"
REJECTED = "rejected"

# connection roles carried in hello; absent = worker
ROLE_WORKER = "worker"
ROLE_CLIENT = "client"


class ProtocolError(RuntimeError):
    """Malformed frame, oversized frame, or an unexpected message."""


class HandshakeRefused(ProtocolError):
    """``hello`` was answered with something other than ``welcome``;
    ``code`` is ``"unsupported"`` for a protocol-version mismatch."""

    def __init__(self, message: str, code: str = "") -> None:
        super().__init__(message)
        self.code = code


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


def hello_frame(role: str) -> dict:
    """The frame that opens a connection as *role*."""
    return {
        "type": HELLO,
        "version": PROTOCOL_VERSION,
        "role": role,
        "host": socket.gethostname(),
        "pid": os.getpid(),
    }


def check_welcome(reply: dict | None) -> dict:
    """Return the reply to :func:`hello_frame` if it is a ``welcome``,
    else raise :class:`HandshakeRefused`."""
    if reply is None:
        raise HandshakeRefused("peer closed the connection during handshake")
    kind = reply.get("type")
    if kind == WELCOME:
        return reply
    if kind == UNSUPPORTED:
        raise HandshakeRefused(
            f"{reply.get('message', 'protocol version refused')} "
            f"(peer supports {reply.get('supported')})",
            code="unsupported",
        )
    if kind == ERROR:
        raise HandshakeRefused(reply.get("message", "handshake refused"))
    raise HandshakeRefused(f"expected welcome, got {kind!r}")


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


def unsupported_frame(hello: dict) -> dict:
    """The structured refusal for a ``hello`` of another version."""
    return {
        "type": UNSUPPORTED,
        "supported": [PROTOCOL_VERSION],
        "message": (
            f"peer speaks protocol version {hello.get('version')!r}, "
            f"this coordinator speaks {PROTOCOL_VERSION}"
        ),
    }


def outcome_to_wire(outcome) -> list:
    """EvalOutcome -> ``[passed, cycles, trap, reason]`` (the order is
    part of the protocol)."""
    return [bool(outcome.passed), int(outcome.cycles), str(outcome.trap),
            str(outcome.reason)]


def outcome_from_wire(wire) -> tuple:
    """Inverse of :func:`outcome_to_wire`; :class:`ProtocolError` unless
    *wire* is exactly ``[bool, int, str, str]``."""
    from repro.search.results import EvalOutcome

    if (
        not isinstance(wire, list)
        or len(wire) != 4
        or not isinstance(wire[0], bool)
        or not isinstance(wire[1], int) or isinstance(wire[1], bool)
        or not isinstance(wire[2], str)
        or not isinstance(wire[3], str)
    ):
        raise ProtocolError(f"malformed outcome {wire!r}")
    return EvalOutcome(*wire)
