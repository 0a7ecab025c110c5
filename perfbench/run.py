"""System benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload warm_read --seed 1 --seconds 20 --trace 0

Runs from the repository root against the sources in ``src/``.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it runs
half the ops untraced and half with every layer function wrapped
(:mod:`tracing`), and prints the per-layer metrics.  The last stdout line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
exit code is non-zero when any op or output check fails.  Workload shapes
and metric definitions are in ``perfbench/README.md``.
"""

import time

PROCESS_START = time.perf_counter_ns()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from datetime import datetime, timezone  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import SpeedClock  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: p99 needs ten samples beyond it.
MIN_TIMED_OPS = 1000
#: The timed phases stop here even if ops remain (keeps a run under the
#: 180 s limit if the program regresses badly); a cut run is not correct.
PHASE_DEADLINE_S = 140.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


@dataclass
class Phase:
    """What one timed phase observed (raw ``perf_counter_ns`` stamps)."""

    ops: list
    sent: list[int] = field(default_factory=list)
    received: list[int] = field(default_factory=list)
    statuses: list[int] = field(default_factory=list)
    replies: dict = field(default_factory=dict)
    begin: int = 0
    end: int = 0

    @property
    def attempted(self) -> int:
        return len(self.sent)

    @property
    def failed(self) -> int:
        return sum(status != op.expect for op, status in zip(self.ops, self.statuses))


def run_phase(client, ops, kept, speed, deadline_ns, tracer=None) -> Phase:
    """Send ``ops`` in order, one at a time; calibration slices run between
    ops, never inside one."""
    from tracing import CLIENT

    phase = Phase(ops)
    speed.sample()
    phase.begin = time.perf_counter_ns()
    for index, op in enumerate(ops):
        speed.tick()
        if time.perf_counter_ns() > deadline_ns:
            break
        if tracer is not None:
            tracer.request = index
            root = tracer.start(CLIENT)
        sent = time.perf_counter_ns()
        status, body = client.send(op)
        received = time.perf_counter_ns()
        if tracer is not None:
            tracer.end(root)
        phase.sent.append(sent)
        phase.received.append(received)
        phase.statuses.append(status)
        if index in kept:
            phase.replies[index] = (status, body)
    phase.end = time.perf_counter_ns()
    speed.sample()
    return phase


def end_to_end(phase, speed, setup_s, rss_mb, normalize=True):
    """The end-to-end metrics; ``normalize=False`` gives raw wall times."""
    if normalize:
        ms = [speed.normalized_ns(a, b) / 1e6 for a, b in zip(phase.sent, phase.received)]
        busy_s = speed.normalized_ns(phase.begin, phase.end) / 1e9
    else:
        ms = [(b - a) / 1e6 for a, b in zip(phase.sent, phase.received)]
        busy_s = (phase.end - phase.begin) / 1e9
    by_class = {"read": [], "write": []}
    for op, value in zip(phase.ops, ms):
        by_class.get(op.op_class, []).append(value)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ms) / busy_s, "1/s"),
        "p50_ms": (statistics.median(ms), "ms"),
        "p99_ms": (statistics.quantiles(ms, n=100)[98], "ms"),
        "read_p50_ms": (statistics.median(by_class["read"]), "ms"),
        "write_p50_ms": (statistics.median(by_class["write"]), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def counter_snapshot(front) -> dict[str, int]:
    """Model-cache and front-store backend counters (summed per class)."""
    from repro.core.timing_cache import default_timing_cache
    from repro.parallel.mapper import default_mapping_cache

    timing, mapping = default_timing_cache(), default_mapping_cache()
    out = {
        "timing.hits": timing.hits,
        "timing.misses": timing.misses,
        "mapping.hits": mapping.hits,
        "mapping.misses": mapping.misses,
    }
    pending = [front.store.backend]
    while pending:
        backend = pending.pop()
        pending.extend(getattr(backend, "tiers", ()))
        pending.extend(getattr(backend, "peers", {}).values())
        counters = getattr(backend, "counters", None)
        if counters is None:
            continue
        kind = type(backend).__name__
        for name in ("hits", "misses", "revalidations", "remote_errors", "promotions"):
            key = f"{kind}.{name}"
            out[key] = out.get(key, 0) + getattr(counters, name)
    return out


def counter_metrics(before, after, n_ops):
    delta = {key: after[key] - before.get(key, 0) for key in after}

    def ratio(hits, misses):
        lookups = delta.get(hits, 0) + delta.get(misses, 0)
        return delta.get(hits, 0) / lookups if lookups else 0.0

    return {
        "backends.memory.hit_ratio": (ratio("InMemoryBackend.hits", "InMemoryBackend.misses"), "ratio"),
        "backends.http.revalidations": (delta.get("HTTPPeerBackend.revalidations", 0), "count"),
        "backends.http.remote_errors": (delta.get("HTTPPeerBackend.remote_errors", 0), "count"),
        "backends.hashring.promotions": (delta.get("HashRingBackend.promotions", 0), "count"),
        "parallel.mapper.hit_ratio": (ratio("mapping.hits", "mapping.misses"), "ratio"),
        "core.timing_cache.hit_ratio": (ratio("timing.hits", "timing.misses"), "ratio"),
        "core.timing_cache.misses_per_op": (delta["timing.misses"] / n_ops, "count"),
    }


def main(argv=None) -> int:
    speed = SpeedClock()
    speed.sample()
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from repro.core.timing_cache import default_timing_cache
    from repro.parallel.mapper import default_mapping_cache

    import to_csv
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    n_ops = max(MIN_TIMED_OPS, round(cls.nominal_rate * args.seconds))
    phase_sizes = [n_ops // 2, n_ops // 2] if args.trace else [n_ops]
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S.%f")
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}"
    tmp = OUT / "tmp" / run_id
    env = None
    try:
        speed.sample()
        workload = cls(args.seed, phase_sizes, tmp, speed)
        fixed_end = time.perf_counter_ns()
        speed.sample()
        fixed_ns = speed.normalized_ns(PROCESS_START, fixed_end)

        # Set up several times from cold process caches; the last set-up's
        # daemons serve the timed phase.  Teardown is never timed.
        setup_ns, raw_setup_ns = [], []
        for repeat in range(SETUP_REPEATS):
            if env is not None:
                client.close()
                env.close()
            default_timing_cache().clear()
            default_mapping_cache().clear()
            gc.collect()
            speed.sample()
            began = time.perf_counter_ns()
            env = workload.start(f"setup{repeat}")
            client = workloads.Client(env.front)
            warmup_replies, warmup_errors = workloads.run_untimed(client, workload.warmup, speed)
            ended = time.perf_counter_ns()
            speed.sample()
            setup_ns.append(speed.normalized_ns(began, ended))
            raw_setup_ns.append(ended - began)
        setup_s = (fixed_ns + statistics.median(setup_ns)) / 1e9
        raw_setup_s = (fixed_end - PROCESS_START + statistics.median(raw_setup_ns)) / 1e9

        workload.before_timed(env)
        gc.collect()
        deadline_ns = PROCESS_START + int(PHASE_DEADLINE_S * 1e9)
        phase = run_phase(client, workload.phases[0], workload.kept, speed, deadline_ns)
        phases = [phase]
        if args.trace:
            tracer = tracing.Tracer()
            before = counter_snapshot(env.front)
            with tracer.installed():
                traced = run_phase(client, workload.phases[1], set(), speed, deadline_ns, tracer)
            after = counter_snapshot(env.front)
            phases.append(traced)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        errors, notes = workload.verify(env, warmup_replies, phase.replies)
        errors = warmup_errors + errors
        client.close()
        env.close()
        env = None
    finally:
        if env is not None:
            env.close()
        shutil.rmtree(tmp, ignore_errors=True)

    raw_metrics = end_to_end(phase, speed, raw_setup_s, rss_mb, normalize=False)
    if args.trace:
        n_traced = traced.attempted
        metrics = tracing.span_metrics(
            tracing.summarize(tracer.spans, speed.factor_at), n_traced
        )
        metrics.update(counter_metrics(before, after, n_traced))
        untraced_rate = phase.attempted / speed.normalized_ns(phase.begin, phase.end)
        traced_rate = n_traced / speed.normalized_ns(traced.begin, traced.end)
        metrics["trace.overhead_ratio"] = (untraced_rate / traced_rate, "ratio")
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT / f"{run_id}-spans.jsonl")
    else:
        metrics = end_to_end(phase, speed, setup_s, rss_mb)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    if attempted != sum(phase_sizes):
        errors.append(f"deadline hit: ran {attempted} of {sum(phase_sizes)} ops")
    correct = not errors and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    to_csv.write_raw({
        "run": run_id,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "phase_sizes": phase_sizes,
        "setup_s_each": [ns / 1e9 for ns in setup_ns],
        "raw_wall_metrics": {name: value for name, (value, _) in raw_metrics.items()},
        "calibration_factor_median": statistics.median(
            speed.factor_at(t) for t in speed.starts
        ),
        "errors": errors,
        "notes": notes,
        "result": result,
    })
    to_csv.write_csv()

    for note in notes:
        print(f"# {note}")
    for error in errors:
        print(f"# ERROR {error}")
    print(f"# {args.workload} seed={args.seed}: {attempted} ops attempted, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"#   {name:40s} {value:14.6g} {unit}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
