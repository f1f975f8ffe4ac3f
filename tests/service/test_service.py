"""The service differentials: campaigns hosted on a shared pool must be
byte-identical to standalone serial searches — concurrency, cross-tenant
dedup, and even a cancelled neighbour must not perturb a job's
trajectory.
"""

import json
import os
import threading
import time

import pytest

from repro.cluster import WorkerError, run_worker
from repro.cluster import worker as worker_mod
from repro.service.jobs import CANCELLED, COMPLETE, FAILED, RUNNING
from repro.workloads import make_workload

from tests.service.conftest import service_running


class TestDifferential:
    def test_two_concurrent_jobs_match_serial(
        self, tmp_path, serial_cg, serial_mg
    ):
        cg_reference, cg_config = serial_cg
        mg_reference, mg_config = serial_mg
        with service_running(tmp_path, workers=2) as svc:
            cg_job = svc.submit("cg", "T", tenant="alice")
            mg_job = svc.submit("mg", "T", tenant="bob")
            assert svc.wait_all(timeout=300)
            assert cg_job.state == COMPLETE, cg_job.error
            assert mg_job.state == COMPLETE, mg_job.error
            assert cg_job.config_text == cg_config
            assert cg_job.tested == cg_reference.configs_tested
            assert mg_job.config_text == mg_config
            assert mg_job.tested == mg_reference.configs_tested

    def test_cross_tenant_dedup_second_job_executes_nothing(
        self, tmp_path, serial_cg
    ):
        reference, reference_config = serial_cg
        with service_running(tmp_path, workers=2) as svc:
            first = svc.submit("cg", "T", tenant="alice")
            assert svc.wait_all(timeout=300)
            second = svc.submit("cg", "T", tenant="bob")
            assert svc.wait_all(timeout=300)
            assert first.state == COMPLETE, first.error
            assert second.state == COMPLETE, second.error
            # Same policy, same store: every outcome replays from the
            # shared ResultStore, so the second tenant never leases a
            # single execution to the pool.
            assert second.executions == 0
            assert second.store_replays > 0
            assert second.config_text == first.config_text == reference_config
            assert second.tested == reference.configs_tested

    def test_cancel_leaves_the_other_job_untouched(
        self, tmp_path, serial_mg
    ):
        reference, reference_config = serial_mg
        with service_running(tmp_path, workers=2) as svc:
            victim = svc.submit("cg", "T", tenant="alice")
            survivor = svc.submit("mg", "T", tenant="bob")
            # wait until the victim is demonstrably mid-flight
            deadline = time.monotonic() + 60
            while victim.status()["executions"] == 0:
                assert time.monotonic() < deadline, "victim never started"
                assert victim.state not in (COMPLETE, FAILED)
                time.sleep(0.01)
            svc.cancel(victim.job_id)
            assert svc.wait_all(timeout=300)
            assert victim.state == CANCELLED
            assert survivor.state == COMPLETE, survivor.error
            assert survivor.config_text == reference_config
            assert survivor.tested == reference.configs_tested

    def test_cancel_is_idempotent_and_safe_on_terminal_jobs(self, tmp_path):
        with service_running(tmp_path, workers=1) as svc:
            job = svc.submit("mg", "T")
            assert svc.wait_all(timeout=300)
            assert job.state == COMPLETE, job.error
            assert svc.cancel(job.job_id) == COMPLETE
            assert svc.cancel("j99") is None
            assert job.state == COMPLETE

    def test_skewed_worker_spends_no_retry_budget(
        self, tmp_path, serial_mg, monkeypatch
    ):
        # retry_limit=0: one charged loss would classify a healthy
        # config as worker_crash and change the result.  A worker that
        # builds the task's workload differently refuses it with a
        # clean bye, which hands the lease back uncharged.
        reference, reference_config = serial_mg
        with service_running(tmp_path) as svc:
            job = svc.submit("mg", "T", options={"retry_limit": 0})
            with monkeypatch.context() as patch:
                patch.setattr(worker_mod, "make_workload",
                              lambda name, klass: make_workload("cg", klass))
                with pytest.raises(WorkerError, match="version skew"):
                    run_worker(svc.address)
            good = threading.Thread(target=run_worker, args=(svc.address,),
                                    daemon=True)
            good.start()
            assert svc.wait_all(timeout=300)
        good.join(timeout=30)
        assert job.state == COMPLETE, job.error
        assert job.config_text == reference_config
        assert job.tested == reference.configs_tested
        with open(os.path.join(job.path, "trace.jsonl")) as handle:
            kinds = [json.loads(line)["kind"] for line in handle]
        assert "eval.worker_crash" not in kinds
        assert "cluster.requeue" in kinds


class TestJobArtifacts:
    def test_job_directory_layout(self, tmp_path):
        with service_running(tmp_path, workers=1) as svc:
            job = svc.submit("mg", "T")
            assert svc.wait_all(timeout=300)
            assert job.state == COMPLETE, job.error
            for name in (
                "campaign.json", "journal.jsonl", "trace.jsonl",
                "config.txt", "result.json", "metrics.txt",
            ):
                assert os.path.exists(os.path.join(job.path, name)), name
            payload = json.loads(
                open(os.path.join(job.path, "result.json")).read()
            )
            assert payload["tested"] == job.tested
            assert payload["row"]["benchmark"] == "mg.T"
            meta = json.loads(
                open(os.path.join(svc.root, "service.json")).read()
            )
            assert meta["address"] == svc.address

    def test_unknown_workload_fails_cleanly(self, tmp_path):
        # Direct (in-process) submit skips the wire-level validation;
        # the job must land in "failed" with the error recorded, not
        # take the service down.
        with service_running(tmp_path) as svc:
            job = svc.submit("nosuch", "T")
            assert svc.wait_all(timeout=60)
            assert job.state == FAILED
            assert "nosuch" in job.error

    def test_cancel_without_workers_never_executes(self, tmp_path):
        # No workers: the job blocks on its first batch until cancelled.
        with service_running(tmp_path) as svc:
            job = svc.submit("cg", "T")
            deadline = time.monotonic() + 60
            while job.state != RUNNING:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            svc.cancel(job.job_id)
            assert svc.wait_all(timeout=60)
            assert job.state == CANCELLED
            assert job.executions == 0

    def test_cancel_between_open_check_and_batch_is_not_lost(
        self, tmp_path, monkeypatch
    ):
        # The race: the engine passes its open check, then the cancel
        # lands before the batch is registered, so the channel abort
        # finds no batch.  The abort must stick: the batch that follows
        # fails at once instead of waiting forever on a worker-less pool.
        from repro.cluster.coordinator import BaseLeaseEvaluator

        original = BaseLeaseEvaluator._check_open

        def check_then_cancel(evaluator):
            original(evaluator)
            svc.cancel(evaluator.job_id)

        monkeypatch.setattr(BaseLeaseEvaluator, "_check_open",
                            check_then_cancel)
        with service_running(tmp_path) as svc:
            job = svc.submit("cg", "T")
            assert svc.wait_all(timeout=60)
            assert job.state == CANCELLED
            assert job.executions == 0
