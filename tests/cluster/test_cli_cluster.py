"""CLI surface of the cluster subsystem: `search --cluster`, the
`serve` alias, and the `worker` summary and failure modes."""

import re
import socket
import threading

import pytest

from repro.cli import main
from repro.cluster import run_worker
from repro.search import SearchEngine, SearchOptions
from repro.workloads import make_workload


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _worker_thread(address: str) -> threading.Thread:
    # Generous dial retries: the coordinator binds inside main() after
    # this thread starts.
    thread = threading.Thread(
        target=run_worker, args=(address,),
        kwargs={"connect_retries": 100, "connect_backoff": 0.05},
        daemon=True,
    )
    thread.start()
    return thread


class TestSearchCluster:
    def test_search_cluster_flag(self, capsys):
        address = f"127.0.0.1:{_free_port()}"
        worker = _worker_thread(address)
        assert main(["search", "mg", "T", "--cluster", address]) == 0
        worker.join(timeout=30)
        assert not worker.is_alive()
        captured = capsys.readouterr()
        assert "configurations tested" in captured.out
        assert f"serving mg.T on {address}" in captured.err
        assert f"repro worker {address}" in captured.err

    def test_serve_alias(self, capsys):
        address = f"127.0.0.1:{_free_port()}"
        worker = _worker_thread(address)
        assert main(["serve", address, "mg", "T"]) == 0
        worker.join(timeout=30)
        assert "configurations tested" in capsys.readouterr().out


class TestWorkerCommand:
    def test_summary_names_the_workloads_built(self, capsys):
        engine = SearchEngine(
            make_workload("mg", "T"), SearchOptions(cluster="127.0.0.1:0")
        )
        search = threading.Thread(target=engine.run, daemon=True)
        search.start()
        assert main(["worker", engine.evaluator.address]) == 0
        search.join(timeout=30)
        assert not search.is_alive()
        out = capsys.readouterr().out
        assert re.fullmatch(r"worker done: \d+ tasks \(mg\.T\)\n", out), out

    def test_unreachable_coordinator_exits_one(self, capsys):
        address = f"127.0.0.1:{_free_port()}"  # nothing listening
        assert main(["worker", address, "--connect-retries", "0"]) == 1
        assert "cannot reach coordinator" in capsys.readouterr().err

    def test_bad_address_rejected(self):
        with pytest.raises(ValueError, match="HOST:PORT"):
            main(["worker", "localhost"])
