"""The worker's side of the wire: what it writes, and in how many writes.

A recording socket stub stands in for the coordinator connection, so
the tests see every ``sendall`` the worker makes, frame by frame.
"""

import socket
import struct
import threading

import pytest

from repro.cluster import run_worker
from repro.cluster import worker as worker_mod
from repro.cluster.protocol import PROTOCOL_VERSION, _decode, pack_frame
from repro.cluster.worker import WorkerError, _report, connect
from repro.store import workload_id
from repro.telemetry import ListSink
from repro.workloads import make_workload


def _frames(data: bytes) -> list[dict]:
    frames = []
    while data:
        (length,) = struct.unpack(">I", data[:4])
        frames.append(_decode(data[4:4 + length]))
        data = data[4 + length:]
    return frames


class RecordingSocket:
    """Replays scripted coordinator frames; records each ``sendall``."""

    def __init__(self, replies: list[dict]):
        self.inbox = b"".join(pack_frame(reply) for reply in replies)
        self.writes: list[list[dict]] = []

    def sendall(self, data: bytes) -> None:
        self.writes.append(_frames(data))

    def recv(self, n: int) -> bytes:
        chunk, self.inbox = self.inbox[:n], self.inbox[n:]
        return chunk

    def close(self) -> None:
        pass


WELCOME = {
    "type": "welcome", "version": PROTOCOL_VERSION,
    "lease_timeout": 3600.0, "service": False,
}


def _task(wid: str) -> dict:
    return {
        "type": "task", "job": "", "flags": {}, "digest": "d",
        "workload": "cg", "klass": "T", "workload_id": wid,
        "incremental": True, "optimize_checks": False,
    }


class TestOneWritePerResult:
    def test_each_task_reports_in_one_write(self, monkeypatch):
        task = _task(workload_id(make_workload("cg", "T")))
        stub = RecordingSocket([
            WELCOME,
            dict(task, task=1), {"type": "ok"},
            dict(task, task=2), {"type": "ok"},
            {"type": "bye"},
        ])
        monkeypatch.setattr(worker_mod, "connect", lambda *args: stub)
        assert run_worker("stub:0") == {"tasks": 2, "workloads": ["cg.T"]}
        kinds = [[frame["type"] for frame in write] for write in stub.writes]
        assert kinds == [
            ["hello"],
            ["lease"], ["events", "result"],
            ["lease"], ["events", "result"],
            ["lease"],
            ["bye"],
        ]
        for task_id, write in ((1, stub.writes[2]), (2, stub.writes[4])):
            events, result = write
            assert events["task"] == result["task"] == task_id
            assert "eval.remote" in [e["kind"] for e in events["events"]]

    def test_empty_buffer_sends_no_events_frame(self):
        stub = RecordingSocket([])
        _report(stub, threading.Lock(),
                {"type": "error", "task": 4, "message": "x"}, ListSink())
        assert stub.writes == [[{"type": "error", "task": 4, "message": "x"}]]


class TestWorkloadSkew:
    def test_skewed_task_is_refused_with_bye(self, monkeypatch):
        # The skew check runs at the first task naming a workload: the
        # worker refuses it and leaves with a clean bye, which hands the
        # lease back to the coordinator uncharged.
        stub = RecordingSocket([WELCOME, dict(_task("cg.T@0"), task=1)])
        monkeypatch.setattr(worker_mod, "connect", lambda *args: stub)
        with pytest.raises(WorkerError, match="version skew"):
            run_worker("stub:0")
        kinds = [[frame["type"] for frame in write] for write in stub.writes]
        assert kinds == [["hello"], ["lease"], ["bye"]]


class TestDial:
    def test_worker_socket_disables_nagle(self):
        with socket.create_server(("127.0.0.1", 0)) as server:
            port = server.getsockname()[1]
            sock = connect(f"127.0.0.1:{port}")
            try:
                assert sock.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
            finally:
                sock.close()

    def test_unreachable_coordinator_is_a_worker_error(self):
        with socket.create_server(("127.0.0.1", 0)) as server:
            port = server.getsockname()[1]
        with pytest.raises(WorkerError, match="cannot reach coordinator"):
            connect(f"127.0.0.1:{port}", connect_retries=1,
                    connect_backoff=0.001)
