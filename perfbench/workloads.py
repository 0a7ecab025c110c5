"""The three closed-loop workloads: inputs, daemons, checks.

Each workload is one client in one process on one keep-alive connection,
against daemons started in-process with
:func:`repro.serving.testing.launch_daemon`.  A workload

* generates its whole op stream from the seed (:meth:`Workload.generate`),
* starts its daemons and fills their stores (:meth:`Workload.start`),
* runs an untimed warm-up prefix (:attr:`Workload.warmup`),
* and checks the program's outputs after the timed phases
  (:meth:`Workload.verify`).

Why each workload exists, and its shape, is in ``perfbench/README.md``.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import random
import threading
from pathlib import Path
from typing import Any

from repro.core.timing_cache import default_timing_cache
from repro.parallel.mapper import default_mapping_cache
from repro.scenarios.backends.http import ENTRY_CONTENT_TYPE
from repro.scenarios.registry import REGISTRY
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import Scenario
from repro.scenarios.store import ResultStore, artifact_payload
from repro.serving.testing import LiveDaemon, launch_daemon

import specs as S
from calibration import SpeedClock


class Env:
    """The daemons of one set-up; closing stops them all."""

    def __init__(self) -> None:
        self._stack = contextlib.ExitStack()
        self.daemons: list[LiveDaemon] = []
        self.front: LiveDaemon | None = None
        self.peers: list[LiveDaemon] = []

    def launch(self, **server_kwargs: Any) -> LiveDaemon:
        daemon = self._stack.enter_context(launch_daemon(**server_kwargs))
        self.daemons.append(daemon)
        return daemon

    def close(self) -> None:
        # shutdown() waits out serve_forever's poll interval; do it for all
        # daemons at once, then let launch_daemon's own teardown finish.
        threads = [
            threading.Thread(target=daemon.server.shutdown)
            for daemon in self.daemons
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        self._stack.close()


class Client:
    """One keep-alive HTTP/1.1 connection to the front daemon."""

    def __init__(self, daemon: LiveDaemon, timeout_s: float = 60.0) -> None:
        self.conn = http.client.HTTPConnection(
            daemon.host, daemon.port, timeout=timeout_s
        )

    def send(self, op: S.Op) -> tuple[int, bytes]:
        """``(status, body)``; status 0 when the exchange itself failed."""
        try:
            self.conn.request(op.method, op.path, body=op.body, headers=op.headers)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            return 0, b""

    def close(self) -> None:
        self.conn.close()


def run_untimed(
    client: Client, ops: list[S.Op], speed: SpeedClock
) -> tuple[list[tuple[int, bytes]], list[str]]:
    replies = []
    for op in ops:
        speed.tick()
        replies.append(client.send(op))
    errors = [
        f"{op.method} {op.path}: HTTP {status}, expected {op.expect}"
        for op, (status, _) in zip(ops, replies)
        if status != op.expect
    ]
    return replies, errors


class Workload:
    name = ""
    #: Timed ops per second at the reference speed (see calibration.py);
    #: the op count of a run is this times ``--seconds``.
    nominal_rate: float
    #: Seeded sample of timed-op indices whose replies are kept for checks.
    n_kept = 24

    def __init__(
        self, seed: int, phase_sizes: list[int], root: Path, speed: SpeedClock
    ) -> None:
        self.rng = random.Random(seed)
        self.root = root
        #: Set-up loops tick it so their time can be speed-normalized.
        self.speed = speed
        self.phases: list[list[S.Op]] = []
        self.warmup: list[S.Op] = []
        self.generate(phase_sizes)
        self.kept = set(self.rng.sample(range(phase_sizes[0]), self.n_kept))

    def generate(self, phase_sizes: list[int]) -> None:
        raise NotImplementedError

    def start(self, tag: str) -> Env:
        raise NotImplementedError

    def before_timed(self, env: Env) -> None:
        """Snapshot whatever :meth:`verify` compares against."""

    def verify(
        self, env: Env, warmup_replies: list[tuple[int, bytes]], kept: dict[int, tuple[int, bytes]]
    ) -> tuple[list[str], list[str]]:
        """``(errors, notes)`` after the timed phases."""
        return [], []


def _json(body: bytes) -> Any:
    return json.loads(body.decode("utf-8"))


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True)


# ---------------------------------------------------------------------------
# cold_sweep
# ---------------------------------------------------------------------------
GOLDEN_PATH = Path(__file__).resolve().parent.parent / "tests" / "data" / "seed_figures_golden.json"
GOLDEN_REL = 1e-9

#: (scenario, series or "axis:<name>", golden block, golden key, first only)
GOLDEN_SERIES = (
    ("fig5", "axis:system.dram_bandwidth_tbps", "fig5", "bandwidths", False),
    ("fig5", "achieved_pflops_per_pu", "fig5", "achieved_pflops_per_spu", False),
    ("fig5", "gemm_time_per_layer", "fig5", "gemm_time_per_layer", False),
    ("fig5", "gemm_memory_bound_time", "fig5", "gemm_memory_bound_time", False),
    ("fig5", "gemm_compute_bound_time", "fig5", "gemm_compute_bound_time", False),
    ("fig6", "axis:workload.model", "fig6", "models", False),
    ("fig6", "time_per_batch", "fig6", "spu_time_per_batch", False),
    ("fig6", "ref_time_per_batch", "fig6", "gpu_time_per_batch", False),
    ("fig6", "speedup", "fig6", "speedups", False),
    ("fig7-bandwidth", "latency", "fig7", "latencies", False),
    ("fig7-dram-latency", "achieved_pflops_per_pu", "fig7", "latency_sweep_pflops_per_spu", False),
    ("fig7-batch", "latency", "fig7", "batch_latencies", False),
    ("fig7-batch", "achieved_pflops_per_pu", "fig7", "batch_pflops_per_spu", False),
    ("fig7-gpu", "latency", "fig7", "gpu_latency", True),
    ("fig7-gpu", "achieved_pflops_per_pu", "fig7", "gpu_pflops_per_pu", True),
    ("fig8-models", "axis:workload.model", "fig8", "model_names", False),
    ("fig8-models", "speedup", "fig8", "model_speedups", False),
    ("fig8-batch", "speedup", "fig8", "batch_speedups", False),
    ("fig8-batch", "kv_cache_bytes", "fig8", "kv_cache_bytes", False),
)


def golden_errors(raws: dict[str, dict]) -> tuple[list[str], float]:
    """Compare served registry series with the seed golden fixture."""
    golden = json.loads(GOLDEN_PATH.read_text())
    errors: list[str] = []
    worst = 0.0
    for scenario, series, block, key, first_only in GOLDEN_SERIES:
        raw = raws[scenario]
        if series.startswith("axis:"):
            axis = series[len("axis:"):]
            actual = [point["params"][axis] for point in raw["points"]]
        else:
            actual = raw["series"][series]
        expected = golden[block][key]
        if first_only:
            actual, expected = actual[:1], [expected]
        if len(actual) != len(expected):
            errors.append(f"{scenario}/{series}: {len(actual)} points, golden has {len(expected)}")
            continue
        for got, want in zip(actual, expected):
            if isinstance(want, str):
                if got != want:
                    errors.append(f"{scenario}/{series}: {got!r} != {want!r}")
                continue
            rel = abs(got - want) / max(abs(want), 1e-300)
            worst = max(worst, rel)
            if rel > GOLDEN_REL:
                errors.append(f"{scenario}/{series}: {got!r} vs golden {want!r} (rel {rel:.2e})")
    return errors, worst


class ColdSweep(Workload):
    name = "cold_sweep"
    nominal_rate = 135.0
    n_kept = 12
    warmup_cold = 20
    read_share = 0.10

    def generate(self, phase_sizes: list[int]) -> None:
        seen = {S.as_spec(REGISTRY[name]).digest for name in S.GOLDEN_SCENARIOS}
        total = self.warmup_cold + sum(phase_sizes)
        self.cold = S.distinct_specs(lambda: S.cold_spec(self.rng), total, seen, self.speed)
        self.warmup = [
            S.Op("golden", "POST", "/run?wait=1", json.dumps({"scenario": name}).encode(),
                 {"Content-Type": "application/json"})
            for name in S.GOLDEN_SCENARIOS
        ]
        self.warmup += [
            S.run_op("cold", spec, i, wait=True)
            for i, spec in enumerate(self.cold[: self.warmup_cold])
        ]
        next_cold = self.warmup_cold
        for size in phase_sizes:
            ops = []
            for _ in range(size):
                if self.rng.random() < self.read_share:
                    key = self.rng.randrange(next_cold)
                    ops.append(S.result_op("read_back", self.cold[key].digest, key))
                else:
                    ops.append(S.run_op("cold", self.cold[next_cold], next_cold, wait=True))
                    next_cold += 1
            self.phases.append(ops)

    def start(self, tag: str) -> Env:
        env = Env()
        env.front = env.launch(cache=f"file://{self.root / tag / 'cold'}")
        return env

    def verify(self, env, warmup_replies, kept):
        raws = {
            name: _json(body)["artifacts"]["raw"]
            for name, (status, body) in zip(S.GOLDEN_SCENARIOS, warmup_replies)
            if status == 200
        }
        errors, worst = golden_errors(raws)
        notes = [f"golden Fig. 5-8 series: max relative error {worst:.3e} (limit {GOLDEN_REL:g})"]
        checked = 0
        for index in sorted(kept):
            op = self.phases[0][index]
            status, body = kept[index]
            if op.kind != "cold" or status != 200:
                continue
            reply = _json(body)
            if reply.get("from_cache"):
                errors.append(f"cold op {index} was served from the store")
            spec = self.cold[op.key]
            expected = artifact_payload(run_scenario(Scenario.from_dict(spec.spec)))
            if reply.get("digest") != spec.digest or _canonical(reply["artifacts"]) != _canonical(expected):
                errors.append(f"cold op {index}: artifacts differ from in-process run_scenario")
            checked += 1
        notes.append(f"{checked} sampled cold replies byte-identical to in-process artifacts")
        return errors, notes


# ---------------------------------------------------------------------------
# warm_read
# ---------------------------------------------------------------------------
class WarmRead(Workload):
    name = "warm_read"
    nominal_rate = 1300.0
    n_points = 300
    n_warmup = 200
    #: (op kind, share)
    MIX = (("run_name", 0.20), ("run_inline", 0.20), ("result", 0.25), ("revalidate", 0.15), ("text", 0.20))

    def generate(self, phase_sizes: list[int]) -> None:
        names = list(REGISTRY)
        seen = set()
        self.keys = [S.as_spec(REGISTRY[name]) for name in names]
        seen.update(spec.digest for spec in self.keys)
        self.keys += S.distinct_specs(lambda: S.cold_spec(self.rng), self.n_points, seen, self.speed)
        self.name_bodies = [json.dumps({"scenario": name}).encode() for name in names]
        # Popularity rank is key order (registry scenarios first), the same
        # for every seed, so seeds vary the draws but not which entries are
        # hot.
        key_zipf, name_zipf = S.Zipf(len(self.keys)), S.Zipf(len(names))
        cum = []
        acc = 0.0
        for kind, share in self.MIX:
            acc += share
            cum.append((acc, kind))

        def op() -> S.Op:
            draw = self.rng.random()
            kind = next((k for bound, k in cum if draw < bound), cum[-1][1])
            if kind == "run_name":
                key = name_zipf.draw(self.rng)
                return S.Op(kind, "POST", "/run", self.name_bodies[key],
                            {"Content-Type": "application/json"}, key=key)
            key = key_zipf.draw(self.rng)
            spec = self.keys[key]
            if kind == "run_inline":
                return S.run_op(kind, spec, key, wait=False)
            if kind == "result":
                return S.result_op(kind, spec.digest, key)
            if kind == "text":
                return S.result_op(kind, spec.digest, key, "/text")
            return S.Op(kind, "GET", f"/results/{spec.digest}",
                        headers={"If-None-Match": f'"{spec.digest}"'}, expect=304, key=key)

        prefill = [S.run_op("prefill", spec, i, wait=True) for i, spec in enumerate(self.keys)]
        self.warmup = prefill + [op() for _ in range(self.n_warmup)]
        self.phases = [[op() for _ in range(size)] for size in phase_sizes]

    def start(self, tag: str) -> Env:
        env = Env()
        env.front = env.launch(cache=f"mem://,file://{self.root / tag / 'warm'}?write=all")
        return env

    def before_timed(self, env: Env) -> None:
        timing, mapping = default_timing_cache(), default_mapping_cache()
        self.counters_before = (timing.hits, timing.misses, mapping.hits, mapping.misses)

    def verify(self, env, warmup_replies, kept):
        errors: list[str] = []
        timing, mapping = default_timing_cache(), default_mapping_cache()
        after = (timing.hits, timing.misses, mapping.hits, mapping.misses)
        if after != self.counters_before:
            errors.append(f"model caches moved during the timed phase: {self.counters_before} -> {after}")
        artifacts = {}
        for i, (status, body) in enumerate(warmup_replies[: len(self.keys)]):
            if status == 200:
                artifacts[i] = _json(body)["artifacts"]
        for index in sorted(kept):
            op = self.phases[0][index]
            status, body = kept[index]
            if status != op.expect or op.kind == "revalidate":
                continue
            # Registry names come first in self.keys, so a name's index is
            # its key index too.
            key = op.key
            expected = artifacts.get(key)
            if op.kind == "text":
                ok = expected is not None and body == (expected["text"] + "\n").encode()
            else:
                reply = _json(body)
                ok = expected is not None and reply.get("digest") == self.keys[key].digest and (
                    _canonical(reply["artifacts"]) == _canonical(expected)
                )
            if not ok:
                errors.append(f"{op.kind} op {index}: reply differs from the stored result")
        notes = [
            f"timing cache hits/misses unchanged over the timed phase: {after[:2]}",
            f"{len(kept)} sampled replies match the pre-filled results",
        ]
        return errors, notes


# ---------------------------------------------------------------------------
# ring_churn
# ---------------------------------------------------------------------------
class RingChurn(Workload):
    name = "ring_churn"
    nominal_rate = 90.0
    n_prefill = 1000
    n_warmup = 40
    #: Small enough that the read median lies inside the peer-wire mode
    #: (about a fifth of reads hit mem); at 64 entries it sat between the
    #: mem-hit and wire modes and moved ±10% between runs.
    mem_entries = 16
    write_share = 0.13
    stats_every = 50

    def generate(self, phase_sizes: list[int]) -> None:
        self.entries = [S.as_spec(S.cheap_spec(self.rng, i)) for i in range(self.n_prefill)]
        zipf = S.Zipf(self.n_prefill)
        self.written: list[S.Spec] = []

        def stream(size: int) -> list[S.Op]:
            ops = []
            for i in range(size):
                if i % self.stats_every == self.stats_every - 1:
                    ops.append(S.Op("stats", "GET", "/stats"))
                elif self.rng.random() < self.write_share:
                    spec = S.as_spec(S.cheap_spec(self.rng, self.n_prefill + len(self.written)))
                    ops.append(S.run_op("write", spec, len(self.written), wait=True))
                    self.written.append(spec)
                else:
                    key = zipf.draw(self.rng)
                    ops.append(S.result_op("read", self.entries[key].digest, key))
            return ops

        self.warmup = stream(self.n_warmup)
        self.phases = [stream(size) for size in phase_sizes]
        self.cap = self.n_prefill + len(self.written) + 100

    def start(self, tag: str) -> Env:
        env = Env()
        base = self.root / tag
        seed_store = ResultStore(f"file://{base / 'A'}")
        mirror = ResultStore(f"file://{base / 'B'}")
        for spec in self.entries:
            self.speed.tick()
            scenario = Scenario.from_dict(spec.spec)
            seed_store.put(scenario, artifact_payload(run_scenario(scenario)))
            mirror.backend.write(spec.digest, seed_store.backend.peek(spec.digest))
        env.peers = [
            env.launch(cache=f"file://{base / peer}?max_entries={self.cap}")
            for peer in ("A", "B")
        ]
        nodes = ";".join(f"{peer.host}:{peer.port}" for peer in env.peers)
        env.front = env.launch(
            cache=f"mem://?max_entries={self.mem_entries},ring://{nodes}?replicas=2&write=all"
        )
        return env

    def verify(self, env, warmup_replies, kept):
        errors = []
        for spec in self.written:
            for peer in env.peers:
                reply = peer.request(
                    "GET", f"/results/{spec.digest}", headers={"Accept": ENTRY_CONTENT_TYPE}
                )
                if reply.status != 200:
                    errors.append(f"written {spec.digest[:12]} missing on {peer.url} (HTTP {reply.status})")
        for index in sorted(kept):
            op = self.phases[0][index]
            status, body = kept[index]
            if op.kind in ("read", "write") and status == 200:
                if _json(body).get("digest") != (
                    self.entries[op.key].digest if op.kind == "read" else self.written[op.key].digest
                ):
                    errors.append(f"{op.kind} op {index}: wrong digest in reply")
        notes = [f"{len(self.written)} written digests readable from both owners"]
        return errors, notes


WORKLOADS = {cls.name: cls for cls in (ColdSweep, WarmRead, RingChurn)}
