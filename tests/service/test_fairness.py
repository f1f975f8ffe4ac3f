"""Fair-share scheduling: leases interleave across concurrent campaigns
and per-tenant in-flight quotas are never exceeded — observed through
the coordinator's lease log, not timing.
"""

import time

from repro.cluster.protocol import recv_frame, send_frame
from repro.service.jobs import COMPLETE

from tests.cluster.conftest import FakeWorker
from tests.service.conftest import service_running


def test_leases_interleave_across_concurrent_jobs(tmp_path):
    with service_running(tmp_path, workers=2, lease_log=True) as svc:
        first = svc.submit("cg", "T", tenant="alice")
        second = svc.submit("cg", "T", tenant="bob")
        assert svc.wait_all(timeout=300)
        assert first.state == COMPLETE, first.error
        assert second.state == COMPLETE, second.error
        log = svc.lease_log()
    jobs = [entry[0] for entry in log]
    assert set(jobs) >= {first.job_id, second.job_id}
    # Deficit round-robin: neither campaign runs to completion before
    # the other gets a lease — each job's grants start before the other
    # job's grants end.
    last = {job: len(jobs) - 1 - jobs[::-1].index(job)
            for job in (first.job_id, second.job_id)}
    assert jobs.index(first.job_id) < last[second.job_id]
    assert jobs.index(second.job_id) < last[first.job_id]


def test_tenant_inflight_quota_is_a_ceiling(tmp_path):
    with service_running(
        tmp_path, workers=2, lease_log=True, max_inflight=1
    ) as svc:
        first = svc.submit("cg", "T", tenant="alice")
        second = svc.submit("mg", "T", tenant="alice")
        assert svc.wait_all(timeout=300)
        assert first.state == COMPLETE, first.error
        assert second.state == COMPLETE, second.error
        log = svc.lease_log()
    assert log, "quota run granted no leases"
    # every grant is logged with the tenant's in-flight count *after*
    # the grant — the quota means it can never exceed 1
    assert all(entry[1] == "alice" for entry in log)
    assert max(entry[2] for entry in log) == 1


def test_two_tenants_each_get_their_own_quota(tmp_path):
    with service_running(
        tmp_path, workers=4, lease_log=True, max_inflight=2
    ) as svc:
        first = svc.submit("cg", "T", tenant="alice")
        second = svc.submit("cg", "T", tenant="bob")
        assert svc.wait_all(timeout=300)
        assert first.state == COMPLETE, first.error
        assert second.state == COMPLETE, second.error
        log = svc.lease_log()
    by_tenant = {}
    for _job, tenant, inflight in log:
        by_tenant.setdefault(tenant, []).append(inflight)
    assert set(by_tenant) == {"alice", "bob"}
    for tenant, counts in by_tenant.items():
        assert max(counts) <= 2, f"{tenant} exceeded its in-flight quota"


def test_released_quota_goes_to_a_parked_worker(tmp_path):
    # One tenant at its in-flight quota of 1 with more tasks queued: the
    # second worker's lease parks, and the first result hands the next
    # task to it without a second lease frame.
    with service_running(
        tmp_path, lease_log=True, max_inflight=1
    ) as svc:
        first = FakeWorker(svc.address)
        second = FakeWorker(svc.address)
        try:
            svc.submit("cg", "T", tenant="alice", options={"workers": 4})
            task = first.lease_task(timeout=60)
            send_frame(second.sock, {"type": "lease"})
            coord = svc._coord
            deadline = time.monotonic() + 10
            while not (coord.idle and any(
                channel.pending for channel in coord.channels.values()
            )):
                assert time.monotonic() < deadline, "lease never parked"
                time.sleep(0.005)
            first.result(task["task"])
            handed = recv_frame(second.sock)
            assert handed["type"] == "task"
            assert handed["task"] != task["task"]
            log = svc.lease_log()
        finally:
            first.close()
            second.close()
    assert [entry[2] for entry in log[:2]] == [1, 1]
