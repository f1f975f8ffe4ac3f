"""Shared fixtures for the cluster test suite.

Serial reference results are session-scoped: every differential test
compares against the same uninterrupted serial search, so the (cheap but
not free) references run once per session.  :class:`FakeWorker` speaks
the worker protocol frame by frame for the coordinator and service
tests.
"""

import contextlib
import socket
import threading
import time

import pytest

from repro.cluster import PROTOCOL_VERSION, run_worker
from repro.cluster.protocol import parse_address, recv_frame, send_frame
from repro.config.fileformat import dump_config
from repro.search import SearchEngine, SearchOptions
from repro.workloads import make_workload


@contextlib.contextmanager
def workers_running(address: str, count: int = 1, **kwargs):
    """Run *count* in-thread workers against *address* until the
    coordinator dismisses them (the engine closing its evaluator)."""
    threads = [
        threading.Thread(target=run_worker, args=(address,),
                         kwargs=kwargs, daemon=True)
        for _ in range(count)
    ]
    for thread in threads:
        thread.start()
    try:
        yield threads
    finally:
        for thread in threads:
            thread.join(timeout=30)
        assert not any(t.is_alive() for t in threads), "worker never dismissed"


def serial_reference(name: str, klass: str):
    result = SearchEngine(make_workload(name, klass), SearchOptions()).run()
    return result, dump_config(result.final_config)


@pytest.fixture(scope="session")
def serial_cg():
    return serial_reference("cg", "T")


@pytest.fixture(scope="session")
def serial_mg():
    return serial_reference("mg", "T")


class FakeWorker:
    """A raw-socket protocol client under full test control."""

    def __init__(self, address: str, version: int = PROTOCOL_VERSION):
        host, port = parse_address(address)
        self.sock = socket.create_connection((host, port), timeout=10)
        send_frame(self.sock, {
            "type": "hello", "version": version, "host": "fake", "pid": 1,
        })
        self.welcome = recv_frame(self.sock)

    def lease(self):
        send_frame(self.sock, {"type": "lease"})
        return recv_frame(self.sock)

    def lease_task(self, timeout: float = 10.0):
        """Lease until a task arrives: the lease parks on the
        coordinator, and a keepalive ``wait`` is answered by leasing
        again."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            reply = self.lease()
            if reply["type"] == "task":
                return reply
            assert reply == {"type": "wait", "delay": 0}
        raise AssertionError("no task leased within timeout")

    def result(self, task_id, passed=True, cycles=100, trap="", reason=""):
        send_frame(self.sock, {
            "type": "result", "task": task_id,
            "outcome": [passed, cycles, trap, reason],
        })
        ack = recv_frame(self.sock)
        assert ack["type"] == "ok"

    def error(self, task_id, message="boom"):
        send_frame(self.sock, {
            "type": "error", "task": task_id, "message": message,
        })
        ack = recv_frame(self.sock)
        assert ack["type"] == "ok"

    def heartbeat(self):
        send_frame(self.sock, {"type": "heartbeat"})

    def close(self):
        self.sock.close()
