"""Span tracing from outside the program, for the per-layer metrics.

:class:`Tracer` wraps public functions of each layer where their caller
looks them up (``repro.core.model.simulate_1f1b``, not
``repro.parallel.pipeline.simulate_1f1b``) and records one span per call:
name, start, end, parent span and request id, in memory.  Nothing is
patched outside :meth:`Tracer.installed`, so untraced runs execute the
program unmodified.

Parent links cross threads: a span opened on a thread with no open span
of its own (a daemon handler thread serving the client, a peer daemon
serving the front) is parented to the most recently opened span still
open anywhere.  With one closed-loop client that is exactly the caller
blocked on it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

#: (span name, module, class or ``None`` for a module-level name, attribute)
LAYER_FUNCTIONS: tuple[tuple[str, str, str | None, str], ...] = (
    ("serving.handle", "repro.serving.app", "ServingApp", "handle"),
    ("serving.encode", "repro.serving.app", "Response", "body_bytes"),
    ("serving.stats", "repro.serving.app", "ServingApp", "_handle_stats"),
    ("serving.put_verify", "repro.serving.app", "ServingApp", "_verify_entry_put"),
    ("serving.run_cached", "repro.serving.app", None, "run_cached"),
    ("store.digest", "repro.scenarios.store", "ResultStore", "digest"),
    ("store.get", "repro.scenarios.store", "ResultStore", "get"),
    ("store.get", "repro.scenarios.store", "ResultStore", "read_digest"),
    ("store.put", "repro.scenarios.store", "ResultStore", "put"),
    ("store.gc", "repro.scenarios.store", "ResultStore", "gc"),
    ("backends.memory.read", "repro.scenarios.backends.memory", "InMemoryBackend", "read"),
    ("backends.localfs.read", "repro.scenarios.backends.localfs", "LocalFSBackend", "read"),
    ("backends.localfs.write", "repro.scenarios.backends.localfs", "LocalFSBackend", "write"),
    ("backends.http.read", "repro.scenarios.backends.http", "HTTPPeerBackend", "read"),
    ("backends.hashring.write", "repro.scenarios.backends.hashring", "HashRingBackend", "write"),
    ("scenarios.runner.run_scenario", "repro.scenarios.store", None, "run_scenario"),
    ("arch.system_build", "repro.arch.config", "SystemConfig", "build"),
    ("analysis.sweep.run_sweep", "repro.scenarios.runner", None, "run_sweep"),
    ("parallel.mapper.map", "repro.parallel.mapper", "MappingCache", "map_training"),
    ("parallel.mapper.map", "repro.parallel.mapper", "MappingCache", "map_inference"),
    ("core.model.evaluate", "repro.core.model", "Optimus", "evaluate_training"),
    ("core.model.evaluate", "repro.core.model", "Optimus", "evaluate_inference"),
    ("parallel.pipeline.simulate_1f1b", "repro.core.model", None, "simulate_1f1b"),
    ("scenarios.runner.render", "repro.scenarios.store", None, "artifact_payload"),
    ("scenarios.runner.render", "repro.scenarios.runner", "ScenarioResult", "to_raw"),
    ("scenarios.runner.render", "repro.scenarios.runner", "ScenarioResult", "render"),
)

#: The root span of each op, recorded by the client loop.
CLIENT = "client"

NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        #: ``[name, start_ns, end_ns, parent index or -1, request id]``
        self.spans: list[list[Any]] = []
        #: The op the client is running; spans opened meanwhile carry it.
        self.request = -1
        self._open: list[int] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording ----------------------------------------------------------
    def start(self, name: str) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        now = time.perf_counter_ns()
        with self._lock:
            if stack:
                parent = stack[-1]
            else:
                parent = self._open[-1] if self._open else -1
            index = len(self.spans)
            self.spans.append([name, now, 0, parent, self.request])
            self._open.append(index)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        now = time.perf_counter_ns()
        self._local.stack.pop()
        with self._lock:
            self.spans[index][END] = now
            self._open.remove(index)

    def wrap(self, name: str, function: Callable) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = self.start(name)
            try:
                return function(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every layer function for the duration of the block."""
        undo: list[tuple[Any, str, Any]] = []
        try:
            for name, module_name, owner_name, attribute in LAYER_FUNCTIONS:
                owner: Any = importlib.import_module(module_name)
                if owner_name is not None:
                    owner = getattr(owner, owner_name)
                undo.append((owner, attribute, vars(owner)[attribute]))
                setattr(owner, attribute, self.wrap(name, getattr(owner, attribute)))
            yield self
        finally:
            for owner, attribute, original in reversed(undo):
                setattr(owner, attribute, original)

    def dump(self, path: Path) -> None:
        """Write the spans out: one JSON array per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


# -- derivation ---------------------------------------------------------------
def _covered_ns(start: int, end: int, children: Iterable[tuple[int, int]]) -> int:
    """Length of the union of child intervals, clipped to [start, end]."""
    covered = 0
    cursor = start
    for child_start, child_end in sorted(children):
        child_start = max(child_start, cursor)
        child_end = min(child_end, end)
        if child_end > child_start:
            covered += child_end - child_start
            cursor = child_end
    return covered


def summarize(spans: list[list[Any]], factor_at: Callable[[int], float]) -> dict[str, Any]:
    """Per-name totals and self times (speed-normalized ns, see
    :mod:`calibration`), plus the structural sums the serving metrics
    need."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    total: dict[str, float] = defaultdict(float)
    self_ns: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    front_total: dict[str, float] = defaultdict(float)
    front_self: dict[str, float] = defaultdict(float)
    render_outer = 0.0
    compute_wait = 0.0
    for index, span in enumerate(spans):
        name, start, end, parent = span[NAME], span[START], span[END], span[PARENT]
        factor = factor_at(start)
        duration = (end - start) * factor
        own = duration - _covered_ns(start, end, children.get(index, ())) * factor
        total[name] += duration
        self_ns[name] += own
        calls[name] += 1
        if parent >= 0 and spans[parent][NAME] == CLIENT:
            # Called straight from the client's request: the front daemon.
            front_total[name] += duration
            front_self[name] += own
        if name == "scenarios.runner.render" and (
            parent < 0 or spans[parent][NAME] != name
        ):
            render_outer += duration
        if name == "scenarios.runner.run_scenario":
            handle = _front_ancestor(spans, index)
            if handle is not None:
                compute_wait += (start - spans[handle][START]) * factor
    return {
        "total": total,
        "self": self_ns,
        "calls": calls,
        "front_total": front_total,
        "front_self": front_self,
        "render_outer": render_outer,
        "compute_wait": compute_wait,
    }


def _front_ancestor(spans: list[list[Any]], index: int) -> int | None:
    """The front daemon's ``serving.handle`` span above ``index``."""
    parent = spans[index][PARENT]
    while parent >= 0:
        span = spans[parent]
        grand = span[PARENT]
        if span[NAME] == "serving.handle" and (
            grand >= 0 and spans[grand][NAME] == CLIENT
        ):
            return parent
        parent = grand
    return None


#: Span-derived per-layer metrics: name → (unit, span name, field, scale).
#: Time metrics are layer time per traced op, so they add up against the
#: client latency ``trace.client_us``.
SPAN_METRICS: tuple[tuple[str, str, str, str, float], ...] = (
    ("serving.handle_self_us", "us", "serving.handle", "front_self", 1e3),
    ("serving.encode_us", "us", "serving.encode", "front_total", 1e3),
    ("serving.stats_ms", "ms", "serving.stats", "total", 1e6),
    ("serving.put_verify_us", "us", "serving.put_verify", "total", 1e3),
    ("store.digest_us", "us", "store.digest", "total", 1e3),
    ("store.get_self_us", "us", "store.get", "self", 1e3),
    ("store.put_self_us", "us", "store.put", "self", 1e3),
    ("store.gc_ms", "ms", "store.gc", "total", 1e6),
    ("backends.memory.read_us", "us", "backends.memory.read", "total", 1e3),
    ("backends.localfs.read_us", "us", "backends.localfs.read", "total", 1e3),
    ("backends.localfs.write_us", "us", "backends.localfs.write", "total", 1e3),
    ("backends.http.read_us", "us", "backends.http.read", "total", 1e3),
    ("backends.hashring.write_ms", "ms", "backends.hashring.write", "total", 1e6),
    ("scenarios.runner.run_scenario_ms", "ms", "scenarios.runner.run_scenario", "total", 1e6),
    ("arch.system_build_us", "us", "arch.system_build", "total", 1e3),
    ("analysis.sweep.run_sweep_self_us", "us", "analysis.sweep.run_sweep", "self", 1e3),
    ("parallel.mapper.map_self_ms", "ms", "parallel.mapper.map", "self", 1e6),
    ("core.model.evaluate_self_ms", "ms", "core.model.evaluate", "self", 1e6),
    ("parallel.pipeline.simulate_1f1b_ms", "ms", "parallel.pipeline.simulate_1f1b", "total", 1e6),
)


def span_metrics(summary: dict[str, Any], n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced phase of ``n_ops`` ops."""
    out: dict[str, tuple[float, str]] = {}
    for metric, unit, name, field, scale in SPAN_METRICS:
        out[metric] = (summary[field].get(name, 0) / n_ops / scale, unit)
    client = summary["total"].get(CLIENT, 0)
    handle = summary["front_total"].get("serving.handle", 0)
    encode = summary["front_total"].get("serving.encode", 0)
    out["serving.http_us"] = ((client - handle - encode) / n_ops / 1e3, "us")
    out["serving.compute_wait_ms"] = (summary["compute_wait"] / n_ops / 1e6, "ms")
    out["scenarios.runner.render_us"] = (summary["render_outer"] / n_ops / 1e3, "us")
    out["store.gc_calls"] = (summary["calls"].get("store.gc", 0), "count")
    out["trace.client_us"] = (client / n_ops / 1e3, "us")
    model = summary["total"].get("scenarios.runner.run_scenario", 0)
    gc_stats = summary["total"].get("store.gc", 0) + summary["total"].get(
        "serving.stats", 0
    )
    out["trace.model_share"] = (model / client if client else 0.0, "ratio")
    out["trace.gc_stats_share"] = (gc_stats / client if client else 0.0, "ratio")
    return out
