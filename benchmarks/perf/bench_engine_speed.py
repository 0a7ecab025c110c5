"""Perf trajectory benchmark: op-program engine vs the seed's flat timing.

Times a reference Fig. 5 + Fig. 7 sweep twice on the same machine in the
same process:

* **engine** — the production path: run-length-encoded op programs with the
  shared memoized kernel-timing cache;
* **flat**   — the seed's behavior, reproduced via
  ``Optimus(use_programs=False, cache=NullTimingCache())``: every kernel of
  every layer replica timed one by one, nothing memoized.

Asserts the two produce identical series (1e-9 relative) and that the
engine is ≥5× faster, then writes the measurements to ``BENCH_engine.json``
at the repo root — the repo's recorded perf trajectory.  Also times the
batch runner serving the same scenarios out of a warm result store
(``serve_warm_seconds`` — a pure file-read replay, asserted compute-free)
and the HTTP daemon serving the same set warm over real sockets
(``serve_http_warm_seconds`` — one ``POST /run`` per scenario against a
live daemon, asserted compute-free), *hot* through a mem-over-file tiered
store (``serve_http_hot_seconds`` — the daemon's production stack: after
first promotion every request is answered from the in-process LRU tier,
asserted to perform zero file reads via per-tier stats), and *federated*
(``serve_http_peer_seconds`` — the warm set replayed through an
``http://`` store backend whose peer is a live daemon: raw entry GETs
with ETag revalidation and gzip on the wire), plus the async job engine
end to end
(``serve_http_cold_concurrent_seconds`` — N distinct cold specs POSTed
concurrently, each answered ``202`` and polled through ``/jobs/<digest>``
to its ``303`` redirect, asserted to compute each digest exactly once),
and gates all six numbers against the committed ``BENCH_baseline.json``:
a >2× regression of any fails the default pytest run.  All daemons run
on the shared :func:`repro.serving.testing.launch_daemon` harness.
The engine pass runs the registry's Fig. 5/7 scenario builders on the
grids below.  ``src_loc`` (total lines of ``src/**/*.py``) is recorded
ungated beside the timings so source shrinkage is tracked too.
Collected in the default pytest run via ``benchmarks/conftest.py``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.analysis.figures import (
    DEFAULT_SPU_BANDWIDTH,
    TRAINING_PARALLEL,
    scd_system,
)
from repro.arch.gpu import build_gpu_system
from repro.core.model import Optimus
from repro.core.timing_cache import NullTimingCache, default_timing_cache
from repro.parallel.mapper import map_inference, map_training
from repro.scenarios.registry import (
    fig5_scenario,
    fig7_bandwidth_scenario,
    fig7_batch_scenario,
    fig7_gpu_scenario,
    fig7_latency_scenario,
)
from repro.scenarios.runner import run_scenario
from repro.units import NS, TBPS
from repro.workloads.llm import GPT3_76B, LLAMA_405B

REPO_ROOT = Path(__file__).resolve().parents[2]
RESULT_PATH = REPO_ROOT / "BENCH_engine.json"
BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_baseline.json"

#: Committed-baseline regression tolerance (wall-clock is machine-noisy;
#: a genuine engine regression shows up as far more than 2×).
GATE_FACTOR = 2.0

FIG5_BANDWIDTHS = (0.5, 1, 2, 4, 8, 16, 32, 64)
FIG7_BANDWIDTHS = (0.5, 1, 2, 4, 8, 16, 32)
FIG7_LATENCIES_NS = (10, 30, 50, 100, 150, 200)
FIG7_BATCHES = (4, 8, 16, 32, 64, 128)

#: The scenarios the batch-serving measurement re-serves from a warm store.
SERVE_SCENARIOS = (
    "fig5",
    "fig7-bandwidth",
    "fig7-dram-latency",
    "fig7-batch",
    "fig7-gpu",
)

#: Distinct cold digests for the async-serving measurement: enough to
#: exercise queueing behind the worker pool without turning a perf probe
#: into a load test.
N_COLD_JOBS = 6

#: Job-engine worker threads for the async-serving measurement.
COLD_JOB_WORKERS = 4


def _seed_optimus(system) -> Optimus:
    """An evaluator that reproduces the seed's flat, uncached timing walk."""
    return Optimus(system, cache=NullTimingCache(), use_programs=False)


def _flat_fig5() -> list[float]:
    series = []
    for bw in FIG5_BANDWIDTHS:
        system = scd_system(bw * TBPS)
        mapped = map_training(GPT3_76B, system, TRAINING_PARALLEL, 128)
        report = _seed_optimus(system).evaluate_training(mapped)
        series.append(report.achieved_flops_per_pu / 1e15)
    return series


def _flat_fig7() -> dict[str, list[float]]:
    def infer(system, batch):
        return _seed_optimus(system).evaluate_inference(
            map_inference(system=system, model=LLAMA_405B, batch=batch,
                          input_tokens=200, output_tokens=200)
        )

    latencies = [
        infer(scd_system(bw * TBPS), 8).latency for bw in FIG7_BANDWIDTHS
    ]
    base = scd_system(DEFAULT_SPU_BANDWIDTH)
    latency_sweep = [
        infer(base.with_dram_latency(ns * NS), 8).achieved_flops_per_pu / 1e15
        for ns in FIG7_LATENCIES_NS
    ]
    batch_latencies = [infer(base, b).latency for b in FIG7_BATCHES]
    gpu_latency = infer(build_gpu_system(base.n_accelerators), 8).latency
    return {
        "latencies": latencies,
        "latency_sweep_pflops_per_spu": latency_sweep,
        "batch_latencies": batch_latencies,
        "gpu_latency": [gpu_latency],
    }


def _src_loc() -> int:
    """Total line count of ``src/**/*.py``, recorded (ungated) so source
    shrinkage shows up in the trajectory next to the timings."""
    return sum(
        len(path.read_bytes().splitlines())
        for path in (REPO_ROOT / "src").rglob("*.py")
    )


def _max_rel_err(a, b) -> float:
    return max(
        abs(x - y) / max(abs(y), 1e-300) for x, y in zip(a, b, strict=True)
    )


def test_engine_speed_vs_seed_flat_timing():
    # Cold-start the shared cache so the engine pass is not pre-warmed by
    # earlier tests in the same process.
    default_timing_cache().clear()

    t0 = time.perf_counter()
    fig5 = run_scenario(fig5_scenario(FIG5_BANDWIDTHS))
    fig7_bandwidth = run_scenario(fig7_bandwidth_scenario(FIG7_BANDWIDTHS))
    fig7_latency = run_scenario(fig7_latency_scenario(FIG7_LATENCIES_NS))
    fig7_batch = run_scenario(fig7_batch_scenario(FIG7_BATCHES))
    fig7_gpu = run_scenario(fig7_gpu_scenario())
    engine_seconds = time.perf_counter() - t0
    cache = default_timing_cache()
    cache_stats = {
        "hits": cache.hits,
        "misses": cache.misses,
        "hit_rate": round(cache.hit_rate, 4),
    }

    t0 = time.perf_counter()
    flat5 = _flat_fig5()
    flat7 = _flat_fig7()
    flat_seconds = time.perf_counter() - t0

    # Equivalence: the engine must reproduce the seed numbers exactly.
    errors = {
        "fig5.achieved_pflops_per_spu": _max_rel_err(
            fig5.series("achieved_pflops_per_pu"), flat5
        ),
        "fig7.latencies": _max_rel_err(
            fig7_bandwidth.series("latency"), flat7["latencies"]
        ),
        "fig7.latency_sweep_pflops_per_spu": _max_rel_err(
            fig7_latency.series("achieved_pflops_per_pu"),
            flat7["latency_sweep_pflops_per_spu"],
        ),
        "fig7.batch_latencies": _max_rel_err(
            fig7_batch.series("latency"), flat7["batch_latencies"]
        ),
        "fig7.gpu_latency": _max_rel_err(
            fig7_gpu.series("latency"), flat7["gpu_latency"]
        ),
    }
    max_rel_err = max(errors.values())
    speedup = flat_seconds / engine_seconds

    serve = _measure_warm_serving()
    cold_async = _measure_cold_async_serving()

    result = {
        "benchmark": "fig5 + fig7 reference sweep",
        "engine_seconds": round(engine_seconds, 6),
        "flat_seed_seconds": round(flat_seconds, 6),
        "speedup": round(speedup, 2),
        "max_rel_err": max_rel_err,
        "series_rel_err": {k: float(v) for k, v in errors.items()},
        "timing_cache": cache_stats,
        "serve_scenarios": list(SERVE_SCENARIOS),
        "serve_cold_seconds": serve["cold_seconds"],
        "serve_warm_seconds": serve["warm_seconds"],
        "serve_http_warm_seconds": serve["http_warm_seconds"],
        "serve_http_hot_seconds": serve["http_hot_seconds"],
        "serve_http_peer_seconds": serve["http_peer_seconds"],
        "serve_http_cold_concurrent_seconds": cold_async[
            "http_cold_concurrent_seconds"
        ],
        "serve_cold_jobs": N_COLD_JOBS,
        "src_loc": _src_loc(),
        "note": (
            "flat_seed_seconds reproduces the pre-engine seed path "
            "(per-replica op walk, no memoization) in the same process; "
            "serve_warm_seconds replays the scenarios from a warm result "
            "store (pure file reads); serve_http_warm_seconds serves the "
            "same warm set over real sockets through the HTTP daemon; "
            "serve_http_hot_seconds serves it through a mem-over-file "
            "tiered store with zero file reads after promotion; "
            "serve_http_peer_seconds replays the warm set through an "
            "http:// store backend against a peer daemon (the federation "
            "wire: raw entry GETs with ETag revalidation and gzip); "
            "serve_http_cold_concurrent_seconds submits N distinct cold "
            "specs concurrently (202 each), polls /jobs/<digest> to the "
            "303 redirect and reads every result — the async job engine "
            "end to end over real sockets"
        ),
    }
    RESULT_PATH.write_text(json.dumps(result, indent=1) + "\n")

    print(
        f"\nengine {engine_seconds * 1e3:.1f} ms vs flat seed "
        f"{flat_seconds * 1e3:.1f} ms -> {speedup:.1f}x "
        f"(cache hit rate {cache_stats['hit_rate']:.2%}), "
        f"max series rel err {max_rel_err:.2e}; warm batch serving "
        f"{serve['warm_seconds'] * 1e3:.1f} ms for "
        f"{len(SERVE_SCENARIOS)} scenarios "
        f"({serve['http_warm_seconds'] * 1e3:.1f} ms over HTTP, "
        f"{serve['http_hot_seconds'] * 1e3:.1f} ms hot via mem tier, "
        f"{serve['http_peer_seconds'] * 1e3:.1f} ms through an http:// "
        "peer backend); "
        f"{N_COLD_JOBS} concurrent cold jobs in "
        f"{cold_async['http_cold_concurrent_seconds'] * 1e3:.1f} ms "
        "async end to end"
    )

    assert max_rel_err < 1e-9, errors
    assert speedup >= 5.0, (
        f"engine only {speedup:.1f}x faster than the seed flat path "
        f"({engine_seconds:.3f}s vs {flat_seconds:.3f}s)"
    )
    _gate_against_baseline(result)


def _measure_warm_serving() -> dict:
    """Time the batch runner cold (compute + store), warm (pure reads),
    the HTTP daemon serving the same warm set over real sockets, and the
    federation read path (an ``http://`` store backend over a peer
    daemon).

    Every warm pass must be compute-free — the kernel-timing counters are
    asserted not to move while every artifact is replayed.
    """
    import http.client
    import tempfile

    from repro.scenarios.backends import HTTPPeerBackend
    from repro.scenarios.batch import run_many
    from repro.scenarios.store import ResultStore
    from repro.serving.testing import launch_daemon

    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
        store = ResultStore(tmp)
        t0 = time.perf_counter()
        cold = run_many(SERVE_SCENARIOS, store=store)
        cold_seconds = time.perf_counter() - t0
        assert all(not entry.from_cache for entry in cold.entries)

        cache = default_timing_cache()
        counters = (cache.hits, cache.misses)
        t0 = time.perf_counter()
        warm = run_many(SERVE_SCENARIOS, store=store)
        warm_seconds = time.perf_counter() - t0
        assert all(entry.from_cache for entry in warm.entries)
        assert (cache.hits, cache.misses) == counters, (
            "warm batch serving performed kernel timings"
        )

        # Warm HTTP serving: one POST /run per scenario on a keep-alive
        # connection against the live threaded daemon.
        with launch_daemon(store=store) as daemon:
            connection = http.client.HTTPConnection(
                daemon.host, daemon.port, timeout=60
            )
            counters = (cache.hits, cache.misses)
            t0 = time.perf_counter()
            for name in SERVE_SCENARIOS:
                connection.request(
                    "POST", "/run", json.dumps({"scenario": name})
                )
                response = connection.getresponse()
                body = json.loads(response.read())
                assert response.status == 200 and body["from_cache"], name
            http_warm_seconds = time.perf_counter() - t0
            connection.close()
            assert (cache.hits, cache.misses) == counters, (
                "warm HTTP serving performed kernel timings"
            )

        # Hot HTTP serving: the daemon's production stack — a mem:// tier
        # over the same cache dir.  A priming pass promotes every digest;
        # the timed pass is answered from the in-process LRU with zero
        # file reads (asserted via the file tier's per-tier stats).
        tiered = ResultStore(f"mem://,file://{tmp}")
        file_tier = tiered.backend.tiers[1]
        with launch_daemon(store=tiered) as daemon:
            connection = http.client.HTTPConnection(
                daemon.host, daemon.port, timeout=60
            )

            def post_all() -> None:
                for name in SERVE_SCENARIOS:
                    connection.request(
                        "POST", "/run", json.dumps({"scenario": name})
                    )
                    response = connection.getresponse()
                    body = json.loads(response.read())
                    assert (
                        response.status == 200 and body["from_cache"]
                    ), name

            post_all()  # promote every digest into the mem tier
            file_reads = file_tier.counters.reads
            counters = (cache.hits, cache.misses)
            t0 = time.perf_counter()
            post_all()
            http_hot_seconds = time.perf_counter() - t0
            connection.close()
            assert (cache.hits, cache.misses) == counters, (
                "hot HTTP serving performed kernel timings"
            )
            assert file_tier.counters.reads == file_reads, (
                "hot HTTP serving touched the file tier"
            )

        # Peer-federation serving: the same warm set replayed through an
        # ``http://`` store backend — the batch runner's store *is* a
        # remote daemon, so every read exercises the federation wire
        # (raw entry GET, ETag revalidation, gzip) instead of the local
        # filesystem.  Still compute-free.
        with launch_daemon(store=ResultStore(tmp)) as peer:
            peer_store = ResultStore(backend=HTTPPeerBackend(peer.url))
            counters = (cache.hits, cache.misses)
            t0 = time.perf_counter()
            federated = run_many(SERVE_SCENARIOS, store=peer_store)
            http_peer_seconds = time.perf_counter() - t0
            assert all(entry.from_cache for entry in federated.entries)
            assert (cache.hits, cache.misses) == counters, (
                "federated peer serving performed kernel timings"
            )
            assert peer_store.backend.counters.hits == len(
                SERVE_SCENARIOS
            ), "every scenario must be read over the peer wire"
    return {
        "cold_seconds": round(cold_seconds, 6),
        "warm_seconds": round(warm_seconds, 6),
        "http_warm_seconds": round(http_warm_seconds, 6),
        "http_hot_seconds": round(http_hot_seconds, 6),
        "http_peer_seconds": round(http_peer_seconds, 6),
    }


def _measure_cold_async_serving() -> dict:
    """Time the async job engine end to end over real sockets.

    ``N_COLD_JOBS`` distinct cold specs (the cheap blade-spec table,
    renamed per job so every digest is unique) are POSTed concurrently:
    each must be answered ``202`` immediately, then its thread polls
    ``GET /jobs/<digest>`` until the ``303`` redirect and reads the
    stored result.  The measured wall time covers submission → queueing
    behind the worker pool → compute → status poll → result read, for
    the whole concurrent batch.
    """
    import http.client
    import tempfile
    import threading

    from repro.scenarios import get
    from repro.scenarios.store import ResultStore
    from repro.serving.testing import launch_daemon

    base = get("fig3c-blade-spec").to_dict()
    specs = [dict(base, name=f"bench-cold-{i}") for i in range(N_COLD_JOBS)]

    with tempfile.TemporaryDirectory(prefix="repro-bench-jobs-") as tmp:
        store = ResultStore(tmp)
        with launch_daemon(
            store=store, job_workers=COLD_JOB_WORKERS
        ) as daemon:
            host, port = daemon.host, daemon.port
            failures: list[str] = []

            def submit_and_poll(spec: dict) -> None:
                connection = http.client.HTTPConnection(
                    host, port, timeout=60
                )
                try:
                    connection.request(
                        "POST", "/run", json.dumps({"scenario": spec})
                    )
                    response = connection.getresponse()
                    body = json.loads(response.read())
                    if response.status != 202:
                        failures.append(f"{spec['name']}: {body}")
                        return
                    digest = body["digest"]
                    while True:
                        connection.request("GET", f"/jobs/{digest}")
                        status = connection.getresponse()
                        payload = json.loads(status.read())
                        if status.status == 303:
                            break
                        if status.status != 200 or payload["status"] not in (
                            "queued",
                            "running",
                        ):
                            failures.append(f"{spec['name']}: {payload}")
                            return
                        time.sleep(0.002)
                    connection.request("GET", f"/results/{digest}")
                    result = connection.getresponse()
                    result.read()
                    if result.status != 200:
                        failures.append(f"{spec['name']}: result missing")
                finally:
                    connection.close()

            threads = [
                threading.Thread(target=submit_and_poll, args=(spec,))
                for spec in specs
            ]
            t0 = time.perf_counter()
            for worker in threads:
                worker.start()
            for worker in threads:
                worker.join(timeout=120)
            cold_concurrent_seconds = time.perf_counter() - t0

            assert not failures, failures
            jobs = daemon.app.jobs.stats()
            assert jobs["done"] == N_COLD_JOBS and jobs["failed"] == 0, jobs
            assert store.stats.puts == N_COLD_JOBS, (
                "coalescing/caching broke: each unique digest must be "
                f"computed exactly once, got {store.stats.puts} puts"
            )
    return {
        "http_cold_concurrent_seconds": round(cold_concurrent_seconds, 6)
    }


def _gate_against_baseline(result: dict) -> None:
    """The tier-1 perf gate: fail on a >2× regression vs the committed
    baseline (``benchmarks/perf/BENCH_baseline.json``).

    Wall-clock is machine-dependent, so the allowance is scaled by a
    host-speed factor measured *in this very process*: the seed flat-timing
    pass exercises the same Python/model code with no caching, so
    ``measured flat / baseline flat`` says how much slower this host is
    than the machine that committed the baseline.  A slower host relaxes
    the gate proportionally; a faster host never tightens it below the
    committed absolute numbers.
    """
    assert BASELINE_PATH.is_file(), (
        f"missing committed perf baseline {BASELINE_PATH}; regenerate it "
        "from a trusted run's BENCH_engine.json"
    )
    baseline = json.loads(BASELINE_PATH.read_text())
    host_factor = max(
        1.0, result["flat_seed_seconds"] / baseline["flat_seed_seconds"]
    )
    for metric in (
        "engine_seconds",
        "serve_warm_seconds",
        "serve_http_warm_seconds",
        "serve_http_hot_seconds",
        "serve_http_peer_seconds",
        "serve_http_cold_concurrent_seconds",
    ):
        measured = result[metric]
        allowed = baseline[metric] * GATE_FACTOR * host_factor
        assert measured <= allowed, (
            f"perf gate: {metric} regressed to {measured:.4f}s "
            f"(baseline {baseline[metric]:.4f}s x {GATE_FACTOR} gate x "
            f"{host_factor:.2f} host factor = allowed {allowed:.4f}s). "
            "If the slowdown is intentional, update "
            "benchmarks/perf/BENCH_baseline.json in the same commit."
        )


if __name__ == "__main__":
    pytest.main([__file__, "-s"])
