"""Layer spans around the calls the benchmark makes into ``repro``.

:func:`install` replaces public functions of each layer with wrappers
that time the call and count its work.  Nothing inside ``src/`` changes;
the wrappers only observe.  A layer's *self* time is its span's duration
minus the time of the layer spans nested inside it, so the self times of
one thread add up to the wall time of its outermost span.

Spans nested inside a *folding* layer (build, baseline, profile, shadow
analysis, the engine's census run) are not split out: their VM runs are
part of that layer's cost, not of the per-config ``vm`` layer.

Each process keeps its own :class:`Tracer` in memory.  Forked pool
children and the service's worker processes dump theirs to a JSON file
after every task, and the benchmark merges all files when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict

FOLD = frozenset(
    {"workloads.build", "workloads.baseline", "profile", "analysis",
     "search.census"}
)

_TRACER: "Tracer | None" = None


class Tracer:
    """Per-process span and counter totals, keyed by ``(phase, name)``."""

    def __init__(self, role: str, phase: str = "setup") -> None:
        self.role = role
        self.phase = phase
        self.self_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(float)
        self.alive_from = time.time()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def folded(self) -> bool:
        stack = self._stack()
        return bool(stack) and stack[-1][0] in FOLD

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[(self.phase, name)] += n

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one span of *layer*."""
        stack = self._stack()
        if stack and stack[-1][0] in FOLD:
            return fn(*args, **kwargs)
        frame = [layer, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += duration
            with self._lock:
                key = (self.phase, layer)
                self.self_s[key] += duration - frame[1]
                self.calls[key] += 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "role": self.role,
                "alive_from": self.alive_from,
                "alive_to": time.time(),
                "self_s": _flat(self.self_s),
                "calls": _flat(self.calls),
                "counts": _flat(self.counts),
            }

    def dump(self, path: str) -> None:
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(tmp, path)


def _flat(table: dict) -> dict:
    return {f"{phase}|{name}": value for (phase, name), value in table.items()}


def tracer() -> Tracer | None:
    return _TRACER


def _patch(owner, name: str, make) -> None:
    original = getattr(owner, name)
    wrapper = make(original)
    functools.update_wrapper(wrapper, original)
    setattr(owner, name, wrapper)


def _span(layer: str):
    def make(original):
        def wrapper(*args, **kwargs):
            return _TRACER.call(layer, original, *args, **kwargs)
        return wrapper
    return make


def _cached_span(layer: str, attr: str):
    """Span a lazily cached Workload method only when it does real work."""
    def make(original):
        def wrapper(self, *args, **kwargs):
            if getattr(self, attr) is not None:
                return original(self, *args, **kwargs)
            return _TRACER.call(layer, original, self, *args, **kwargs)
        return wrapper
    return make


def _instrument(original):
    def wrapper(program, config, *args, **kwargs):
        t = _TRACER
        if t.folded():
            return original(program, config, *args, **kwargs)
        cache = kwargs.get("cache")
        h0, m0 = (cache.hits, cache.misses) if cache is not None else (0, 0)
        result = t.call(
            "instrument", original, program, config, *args, **kwargs
        )
        if cache is not None:
            t.count("instrument.block_hits", cache.hits - h0)
            t.count("instrument.block_misses", cache.misses - m0)
        t.count("instrument.bytes_out", len(result.program.text))
        return result
    return wrapper


def _vm_counters(vm) -> tuple:
    cache = vm._segment_cache
    hits, misses = (cache.hits, cache.misses) if cache is not None else (0, 0)
    return hits, misses, vm.fuse_hits, vm.fuse_misses


def _record_vm_deltas(t: Tracer, before: tuple, after: tuple) -> None:
    names = ("vm.compile_hits", "vm.compile_misses", "vm.fuse_hits",
             "vm.fuse_misses")
    for name, a, b in zip(names, after, before):
        if a != b:
            t.count(name, a - b)


def _vm_init(original):
    def wrapper(self, *args, **kwargs):
        t = _TRACER
        if t.folded():
            return original(self, *args, **kwargs)
        cache = kwargs.get("segment_cache")
        h0, m0 = (cache.hits, cache.misses) if cache is not None else (0, 0)
        t.call("vm.load", original, self, *args, **kwargs)
        _record_vm_deltas(t, (h0, m0, 0, 0), _vm_counters(self))
    return wrapper


def _vm_rebind(original):
    def wrapper(self, *args, **kwargs):
        t = _TRACER
        if t.folded():
            return original(self, *args, **kwargs)
        before = _vm_counters(self)
        t.call("vm.load", original, self, *args, **kwargs)
        _record_vm_deltas(t, before, _vm_counters(self))
    return wrapper


def _vm_run(original):
    from repro.vm.errors import VmTrap

    def wrapper(self):
        t = _TRACER
        if t.folded():
            return original(self)
        before = _vm_counters(self)
        try:
            result = t.call("vm.exec", original, self)
        except VmTrap:
            t.count("vm.traps")
            raise
        finally:
            t.count("vm.steps", self.steps)
            _record_vm_deltas(t, before, _vm_counters(self))
        return result
    return wrapper


def _search_run(original):
    def wrapper(self):
        t = _TRACER
        result = t.call("search", original, self)
        ev = self.evaluator
        t.count("search.configs", len(result.history))
        t.count("search.executions", getattr(ev, "executions", 0))
        t.count("analysis.pruned", result.analysis_pruned)
        t.count(
            "lattice.descent_configs",
            sum(1 for r in result.history if r.phase.startswith("lattice:")),
        )
        return result
    return wrapper


def _evaluate_ordered(original):
    def wrapper(self, *args, **kwargs):
        _TRACER.count("search.batches")
        return original(self, *args, **kwargs)
    return wrapper


def _store_get(original):
    def wrapper(self, *args, **kwargs):
        t = _TRACER
        result = t.call("store.get", original, self, *args, **kwargs)
        if result is not None:
            t.count("store.hits")
        return result
    return wrapper


def _pool_task(original, spans_dir: str):
    """Time one forked-pool evaluation and dump the child's totals."""
    def wrapper(*args, **kwargs):
        t = _TRACER
        if t.role != "pool":
            # First task in a freshly forked child: start its own tally.
            install_child("pool")
            t = _TRACER
        try:
            return t.call("pool.task", original, *args, **kwargs)
        finally:
            t.dump(os.path.join(spans_dir, f"pool-{os.getpid()}.json"))
    return wrapper


def install(role: str, spans_dir: str, phase: str = "setup") -> Tracer:
    """Wrap every layer's public entry points in this process."""
    global _TRACER
    _TRACER = Tracer(role, phase)

    import repro.analysis
    import repro.search.evaluator as evaluator_mod
    import repro.search.execution as execution_mod
    import repro.search.parallel as parallel_mod
    from repro.campaign import Campaign
    from repro.config.model import Config
    from repro.search.bfs import SearchEngine
    from repro.store import ResultStore
    from repro.vm.machine import VM
    from repro.workloads.base import Workload

    # ``import repro.instrument.engine`` fails: repro/__init__.py rebinds
    # the name ``repro.instrument`` from the subpackage to the function,
    # so no module under it resolves by dotted path.  The two modules
    # that call into the instrumenter hold their own reference to the
    # function, and those references are the ones wrapped here.
    _patch(evaluator_mod, "instrument", _instrument)
    _patch(execution_mod, "instrument", _instrument)

    _patch(Config, "instruction_policies", _span("config.policies"))
    _patch(VM, "__init__", _vm_init)
    _patch(VM, "rebind", _vm_rebind)
    _patch(VM, "run", _vm_run)
    _patch(Workload, "_build", _span("workloads.build"))
    _patch(Workload, "baseline",
           _cached_span("workloads.baseline", "_baseline"))
    _patch(Workload, "profile", _cached_span("profile", "_profile"))
    _patch(Workload, "verify", _span("workloads.verify"))
    _patch(repro.analysis, "analyze", _span("analysis"))
    _patch(SearchEngine, "run", _search_run)
    _patch(SearchEngine, "_evaluate_ordered", _evaluate_ordered)
    _patch(SearchEngine, "_lattice_descend", _span("lattice"))
    _patch(SearchEngine, "_baseline_census", _span("search.census"))
    _patch(parallel_mod.ParallelEvaluator, "_run_jobs", _span("pool.batch"))
    # Pickled by reference: the wrapper keeps the name and module of
    # ``_worker_eval``, so the forked children resolve it to itself.
    _patch(parallel_mod, "_worker_eval",
           lambda original: _pool_task(original, spans_dir))
    _patch(ResultStore, "get", _store_get)
    _patch(ResultStore, "put", _span("store.put"))
    _patch(Campaign, "checkpoint", _span("campaign.checkpoint"))
    return _TRACER


def install_child(role: str) -> None:
    """Start a fresh tally in a forked child (the wrappers are inherited)."""
    global _TRACER
    _TRACER = Tracer(role, phase="timed")


def install_service() -> None:
    """Wrap the service side: job threads, lease waits and client RPCs."""
    from repro.cluster.coordinator import BaseLeaseEvaluator
    from repro.service.client import ServiceClient
    from repro.service.server import PrecisionService

    _patch(PrecisionService, "_run_job", _span("service.job"))
    _patch(BaseLeaseEvaluator, "evaluate_batch", _span("cluster.batch"))
    _patch(ServiceClient, "_rpc", _span("service.rpc"))


def install_worker(spans_dir: str) -> str:
    """Wrap a service worker process; returns its span file path."""
    import repro.cluster.protocol as protocol
    import repro.cluster.worker as worker_mod

    install("worker", spans_dir, phase="timed")
    path = os.path.join(spans_dir, f"worker-{os.getpid()}.json")

    def execute(original):
        def wrapper(*args, **kwargs):
            t = _TRACER
            try:
                return t.call("cluster.task", original, *args, **kwargs)
            finally:
                t.dump(path)
        return wrapper

    def pack(original):
        def wrapper(message):
            frame = original(message)
            _TRACER.count("cluster.frames")
            _TRACER.count("cluster.bytes", len(frame))
            return frame
        return wrapper

    def recv(original):
        def wrapper(sock):
            message = original(sock)
            if message is not None:
                _TRACER.count("cluster.frames")
            return message
        return wrapper

    def recv_exact(original):
        def wrapper(sock, n, eof_ok):
            data = original(sock, n, eof_ok)
            if data:
                _TRACER.count("cluster.bytes", len(data))
            return data
        return wrapper

    _patch(worker_mod, "execute_config", execute)
    _patch(protocol, "pack_frame", pack)
    _patch(worker_mod, "recv_frame", recv)
    _patch(protocol, "_recv_exact", recv_exact)
    return path
