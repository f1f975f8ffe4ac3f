"""Coordinator behavior against hand-driven fake workers.

Real workers are exercised by the differential tests; here a raw socket
speaks the protocol directly so the lease lifecycle (versioning,
requeue, retry exhaustion, duplicate results, malformed frames,
heartbeats, parked leases) can be pinned message by message.
"""

import threading
import time

import pytest

from repro.cluster import ClusterEvaluator, PROTOCOL_VERSION
from repro.cluster.protocol import recv_frame, send_frame
from repro.config.generator import build_tree
from repro.config.model import Config, Policy
from repro.search.results import REASON_WORKER_CRASH, EvalOutcome
from repro.search.retry import RetryPolicy
from repro.store import workload_id
from repro.telemetry import ListSink, Telemetry
from repro.workloads import make_workload

from tests.cluster.conftest import FakeWorker


@pytest.fixture(scope="module")
def workload():
    return make_workload("cg", "T")


@pytest.fixture(scope="module")
def tree(workload):
    return build_tree(workload.program)


@pytest.fixture
def evaluator(workload, tree):
    ev = ClusterEvaluator(
        workload, tree, retry=RetryPolicy(limit=2, backoff=0.001),
        lease_timeout=10.0,
    )
    yield ev
    ev.close()


def _batch_async(evaluator, configs):
    """Run evaluate_batch in a thread (it blocks on the fake worker)."""
    box = {}

    def run():
        box["outcomes"] = evaluator.evaluate_batch(configs)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, box


def _wait_for(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def _parked(evaluator) -> int:
    return len(evaluator._coord.idle)


def _configs(tree, count):
    """Distinct single-flag configurations (never semantic duplicates)."""
    nodes = [n for n in tree.by_id.values() if not n.children][: count]
    assert len(nodes) == count
    configs = []
    for node in nodes:
        config = Config.all_double(tree)
        config.flags[node.node_id] = Policy.SINGLE
        configs.append(config)
    return configs


class TestHandshake:
    def test_task_describes_the_search(self, evaluator, workload, tree):
        # The welcome pins no workload; every task names its own, so a
        # standalone search is a job service with one channel.
        thread, box = _batch_async(evaluator, _configs(tree, 1))
        worker = FakeWorker(evaluator.address)
        try:
            assert worker.welcome == {
                "type": "welcome", "version": PROTOCOL_VERSION,
                "lease_timeout": 10.0, "service": False,
            }
            task = worker.lease_task()
            assert task["workload"] == "cg"
            assert task["klass"] == "T"
            assert task["workload_id"] == workload_id(workload)
            assert task["incremental"] is True
            assert task["optimize_checks"] is False
            worker.result(task["task"])
        finally:
            worker.close()
        thread.join(timeout=10)
        assert box["outcomes"][0].passed
        assert evaluator.workers_seen == 1

    def test_version_mismatch_refused(self, evaluator):
        # Any other version, older or newer, gets a structured refusal
        # naming the one acceptable version, then a clean close.
        for version in (PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1):
            worker = FakeWorker(evaluator.address, version=version)
            try:
                assert worker.welcome["type"] == "unsupported"
                assert worker.welcome["supported"] == [PROTOCOL_VERSION]
                assert "version" in worker.welcome["message"]
                # clean close: EOF at a frame boundary, not a reset
                assert recv_frame(worker.sock) is None
            finally:
                worker.close()
        assert evaluator.workers_seen == 0


class TestParkedLeases:
    def test_parked_lease_answered_when_a_batch_arrives(self, evaluator,
                                                        tree):
        worker = FakeWorker(evaluator.address)
        try:
            send_frame(worker.sock, {"type": "lease"})
            _wait_for(lambda: _parked(evaluator) == 1)
            thread, box = _batch_async(evaluator, _configs(tree, 1))
            # No second lease frame: the parked one is answered.
            task = recv_frame(worker.sock)
            assert task["type"] == "task"
            worker.result(task["task"], passed=True, cycles=7)
        finally:
            worker.close()
        thread.join(timeout=10)
        assert box["outcomes"][0].cycles == 7

    def test_disconnected_parked_worker_is_dropped(self, evaluator, tree):
        gone = FakeWorker(evaluator.address)
        send_frame(gone.sock, {"type": "lease"})
        _wait_for(lambda: _parked(evaluator) == 1)
        gone.close()
        _wait_for(lambda: evaluator.workers_connected == 0)
        assert _parked(evaluator) == 0
        thread, box = _batch_async(evaluator, _configs(tree, 1))
        live = FakeWorker(evaluator.address)
        try:
            task = live.lease_task()
            live.result(task["task"], passed=True, cycles=3)
        finally:
            live.close()
        thread.join(timeout=10)
        assert box["outcomes"][0].cycles == 3
        assert evaluator.leases_granted == 1
        assert evaluator.requeues == 0

    def test_shutdown_answers_parked_lease_with_bye(self, workload, tree):
        ev = ClusterEvaluator(workload, tree, lease_timeout=10.0)
        worker = FakeWorker(ev.address)
        try:
            send_frame(worker.sock, {"type": "lease"})
            _wait_for(lambda: _parked(ev) == 1)
            ev.close()
            assert recv_frame(worker.sock) == {"type": "bye"}
            assert _parked(ev) == 0
        finally:
            worker.close()
            ev.close()

    def test_backoff_expiry_wakes_parked_worker(self, workload, tree):
        backoff = 0.3
        ev = ClusterEvaluator(
            workload, tree, retry=RetryPolicy(limit=2, backoff=backoff),
            lease_timeout=10.0,
        )
        failing = FakeWorker(ev.address)
        parked = FakeWorker(ev.address)
        try:
            thread, box = _batch_async(ev, _configs(tree, 1))
            task = failing.lease_task()
            send_frame(parked.sock, {"type": "lease"})
            _wait_for(lambda: _parked(ev) == 1)
            lost = time.monotonic()
            failing.error(task["task"])  # requeued with backoff
            retried = recv_frame(parked.sock)
            waited = time.monotonic() - lost
            assert retried["type"] == "task"
            assert retried["task"] == task["task"]
            assert waited >= backoff * 0.9
            parked.result(retried["task"], passed=True, cycles=11)
            thread.join(timeout=10)
            assert box["outcomes"][0].cycles == 11
            assert ev.requeues == 1
        finally:
            failing.close()
            parked.close()
            ev.close()

    def test_fractional_quantum_does_not_stall_parked_worker(self,
                                                             evaluator, tree):
        # A quantum below 0.5 earns less than one credit per two visits;
        # the picker must keep passing until the channel can afford a
        # lease instead of leaving the worker parked until a keepalive.
        park_limit = evaluator.lease_timeout / 4
        evaluator._coord.channels[""].quantum = 0.25
        worker = FakeWorker(evaluator.address)
        try:
            send_frame(worker.sock, {"type": "lease"})
            _wait_for(lambda: _parked(evaluator) == 1)
            start = time.monotonic()
            thread, box = _batch_async(evaluator, _configs(tree, 4))
            task = recv_frame(worker.sock)
            for step in range(4):
                assert task["type"] == "task"
                worker.result(task["task"], passed=True, cycles=step)
                if step < 3:
                    task = worker.lease()
            elapsed = time.monotonic() - start
        finally:
            worker.close()
        thread.join(timeout=10)
        assert [o.cycles for o in box["outcomes"]] == [0, 1, 2, 3]
        assert elapsed < park_limit / 2

    def test_long_parked_lease_gets_keepalive(self, workload, tree):
        # park_limit is lease_timeout / 4, so the keepalive comes long
        # before the heartbeat-less fake worker could be reaped.
        ev = ClusterEvaluator(workload, tree, lease_timeout=2.0)
        worker = FakeWorker(ev.address)
        try:
            reply = worker.lease()
            assert reply == {"type": "wait", "delay": 0}
            assert _parked(ev) == 0
            assert ev.workers_connected == 1  # answered, not reaped
        finally:
            worker.close()
            ev.close()


class TestLeaseLifecycle:
    def test_batch_outcomes_in_submission_order(self, evaluator, tree):
        configs = _configs(tree, 2)
        thread, box = _batch_async(evaluator, configs)
        worker = FakeWorker(evaluator.address)
        try:
            t1 = worker.lease_task()
            t2 = worker.lease_task()
            # Answer out of order; results must come back in input order.
            worker.result(t2["task"], passed=False, cycles=0, reason="verify")
            worker.result(t1["task"], passed=True, cycles=111)
        finally:
            worker.close()
        thread.join(timeout=10)
        outcomes = box["outcomes"]
        assert outcomes[0].passed and outcomes[0].cycles == 111
        assert not outcomes[1].passed and outcomes[1].reason == "verify"
        assert evaluator.evaluations == 2
        assert evaluator.executions == 2
        assert evaluator.leases_granted == 2

    def test_duplicate_result_is_ignored(self, evaluator, tree):
        configs = _configs(tree, 2)
        thread, box = _batch_async(evaluator, configs)
        worker = FakeWorker(evaluator.address)
        try:
            t1 = worker.lease_task()
            t2 = worker.lease_task()
            worker.result(t1["task"], passed=True, cycles=10)
            worker.result(t1["task"], passed=False, cycles=0)  # dup: first wins
            worker.result(t2["task"], passed=True, cycles=20)
        finally:
            worker.close()
        thread.join(timeout=10)
        assert box["outcomes"][0].passed
        assert box["outcomes"][0].cycles == 10
        assert evaluator.evaluations == 2

    def test_lost_worker_lease_requeued_to_survivor(self, evaluator, tree):
        thread, box = _batch_async(evaluator, _configs(tree, 1))
        first = FakeWorker(evaluator.address)
        task = first.lease_task()
        first.close()  # EOF with the lease outstanding
        second = FakeWorker(evaluator.address)
        try:
            requeued = second.lease_task()
            assert requeued["task"] == task["task"]
            assert requeued["flags"] == task["flags"]
            second.result(requeued["task"], passed=True, cycles=42)
        finally:
            second.close()
        thread.join(timeout=10)
        assert box["outcomes"][0].passed
        assert evaluator.requeues == 1
        assert evaluator.workers_seen == 2

    def test_retry_exhaustion_classified_worker_crash(self, workload, tree):
        ev = ClusterEvaluator(
            workload, tree, retry=RetryPolicy(limit=0), lease_timeout=10.0,
        )
        try:
            thread, box = _batch_async(ev, _configs(tree, 1))
            worker = FakeWorker(ev.address)
            worker.lease_task()
            worker.close()  # limit=0: first loss exhausts the budget
            thread.join(timeout=10)
            outcome = box["outcomes"][0]
            assert not outcome.passed
            assert outcome.reason == REASON_WORKER_CRASH
            assert "cluster worker died" in outcome.trap
            assert ev.crashed_configs == 1
            assert ev.requeues == 0
        finally:
            ev.close()

    @pytest.mark.parametrize("frame", [
        {"outcome": [True, 5]},
        {"outcome": ["yes", 5, "", ""]},
        {"outcome": [True, "5", "", ""]},
        {"outcome": [True, 5, None, ""]},
        {"outcome": None},
        {"task": [1], "outcome": [True, 5, "", ""]},
        {"task": "1", "outcome": [True, 5, "", ""]},
        {"task": None, "outcome": [True, 5, "", ""]},
        {"type": "error", "task": [1], "message": "boom"},
        {"type": "events", "task": "1", "events": []},
    ])
    def test_malformed_frame_reaps_worker_and_requeues(self, evaluator,
                                                       tree, frame):
        # Validation comes before any state changes: the bad frame
        # reaps its sender with the lease still held, so the lease is
        # requeued and a healthy worker completes the batch.
        thread, box = _batch_async(evaluator, _configs(tree, 1))
        bad = FakeWorker(evaluator.address)
        try:
            task = bad.lease_task()
            send_frame(bad.sock, {"type": "result", "task": task["task"],
                                  **frame})
            assert recv_frame(bad.sock) is None  # reaped
        finally:
            bad.close()
        good = FakeWorker(evaluator.address)
        try:
            requeued = good.lease_task()
            assert requeued["task"] == task["task"]
            good.result(requeued["task"], passed=True, cycles=42)
        finally:
            good.close()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert box["outcomes"] == [EvalOutcome(True, 42, "", "")]
        assert evaluator.requeues == 1

    def test_bye_returns_leases_without_charging_an_attempt(self, workload,
                                                            tree):
        # retry_limit=0: a charged loss would classify the config as
        # worker_crash.  A clean bye (a worker leaving, or refusing a
        # task it builds differently) must not.
        sink = ListSink()
        ev = ClusterEvaluator(
            workload, tree, retry=RetryPolicy(limit=0), lease_timeout=10.0,
            telemetry=Telemetry(sinks=[sink]),
        )
        try:
            thread, box = _batch_async(ev, _configs(tree, 1))
            leaving = FakeWorker(ev.address)
            task = leaving.lease_task()
            send_frame(leaving.sock, {"type": "bye"})
            leaving.close()
            good = FakeWorker(ev.address)
            try:
                requeued = good.lease_task()
                assert requeued["task"] == task["task"]
                good.result(requeued["task"], passed=True, cycles=6)
            finally:
                good.close()
            thread.join(timeout=10)
            assert box["outcomes"] == [EvalOutcome(True, 6, "", "")]
            assert ev.crashed_configs == 0
        finally:
            ev.close()
        kinds = [event["kind"] for event in sink.events]
        assert "eval.worker_crash" not in kinds
        requeues = [e for e in sink.events if e["kind"] == "cluster.requeue"]
        assert [(e["reason"], e["attempts"]) for e in requeues] == [("bye", 0)]

    def test_heartbeats_do_not_break_pairing(self, evaluator, tree):
        thread, box = _batch_async(evaluator, _configs(tree, 1))
        worker = FakeWorker(evaluator.address)
        try:
            worker.heartbeat()
            task = worker.lease_task()
            worker.heartbeat()
            worker.result(task["task"], passed=True, cycles=5)
        finally:
            worker.close()
        thread.join(timeout=10)
        assert box["outcomes"][0].passed

    def test_silent_worker_expires_and_lease_requeues(self, workload, tree):
        ev = ClusterEvaluator(
            workload, tree, retry=RetryPolicy(limit=2, backoff=0.001),
            lease_timeout=0.2,
        )
        try:
            thread, box = _batch_async(ev, _configs(tree, 1))
            silent = FakeWorker(ev.address)
            silent.lease_task()
            # Say nothing: no heartbeat, no result.  The sweeper must
            # declare the worker lost and hand the lease to a live one.
            live = FakeWorker(ev.address)
            task = live.lease_task(timeout=15.0)
            live.result(task["task"], passed=True, cycles=9)
            live.close()
            silent.close()
            thread.join(timeout=10)
            assert box["outcomes"][0].passed
            assert ev.requeues == 1
        finally:
            ev.close()
