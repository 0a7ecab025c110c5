"""Seeded request inputs: scenario specs, Zipf key draws, op streams.

Everything here runs before any timed region.  The same seed always gives
the same specs, keys and op order; the daemon only ever sees the request
bytes built from them.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Any

from repro.scenarios import registry
from repro.scenarios.spec import Scenario
from repro.scenarios.store import scenario_digest
from repro.workloads.llm import MODEL_ZOO

#: Training models the paper's TP=8/PP=8 decomposition maps.
TRAINING_MODELS = ("GPT3-18.4B", "GPT3-76.1B", "GPT3-175B")
#: Inference models whose head count divides the blade's default TP=64.
INFERENCE_MODELS = tuple(
    name for name, cfg in MODEL_ZOO.items() if cfg.n_heads % 64 == 0
)
BANDWIDTHS_TBPS = (0.5, 0.75, 1, 1.5, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)
DRAM_LATENCIES_NS = (10, 20, 30, 50, 75, 100, 150, 200)
TRAINING_BATCHES = (16, 32, 64, 128, 256)
INFERENCE_BATCHES = (1, 2, 4, 8, 16, 32, 64)
#: (input, output) token pairs; with the models and batches above they give
#: more distinct inference mappings than the mapping cache's 128 entries.
IO_TOKENS = ((50, 50), (100, 100), (200, 200), (200, 50), (64, 128), (128, 64))
#: Registry scenarios whose series the seed golden fixture pins.
GOLDEN_SCENARIOS = (
    "fig5",
    "fig6",
    "fig7-bandwidth",
    "fig7-dram-latency",
    "fig7-batch",
    "fig7-gpu",
    "fig8-models",
    "fig8-batch",
)
#: The table builders that compute in well under a millisecond.
CHEAP_TABLES = ("technology", "datalink", "blade_spec")


def _subset(rng: random.Random, values: tuple, most: int) -> tuple:
    return tuple(sorted(rng.sample(values, rng.randint(1, most))))


def _model(name: str):
    return MODEL_ZOO[name]


def cold_spec(rng: random.Random) -> Scenario:
    """One training/inference point or small grid from the Fig. 5-8
    families, varying model, DRAM bandwidth and latency, batch and I/O
    tokens."""
    family = rng.randrange(6)
    io = rng.choice(IO_TOKENS)
    if family == 0:
        scenario = registry.fig5_scenario(
            bandwidths_tbps=_subset(rng, BANDWIDTHS_TBPS, 3),
            batch=rng.choice(TRAINING_BATCHES),
            model=_model(rng.choice(TRAINING_MODELS)),
        )
    elif family == 1:
        scenario = registry.fig6_scenario(
            batch=rng.choice(TRAINING_BATCHES),
            dram_bandwidth_tbps=rng.choice(BANDWIDTHS_TBPS),
            models=tuple(
                _model(m) for m in _subset(rng, TRAINING_MODELS, 2)
            ),
        )
    elif family == 2:
        scenario = registry.fig7_bandwidth_scenario(
            bandwidths_tbps=_subset(rng, BANDWIDTHS_TBPS, 3),
            batch=rng.choice(INFERENCE_BATCHES),
            io_tokens=io,
            model=_model(rng.choice(INFERENCE_MODELS)),
        ).with_system(dram_latency_ns=rng.choice(DRAM_LATENCIES_NS))
    elif family == 3:
        scenario = registry.fig7_latency_scenario(
            dram_latencies_ns=_subset(rng, DRAM_LATENCIES_NS, 3),
            batch=rng.choice(INFERENCE_BATCHES),
            io_tokens=io,
            model=_model(rng.choice(INFERENCE_MODELS)),
            dram_bandwidth_tbps=rng.choice(BANDWIDTHS_TBPS),
        )
    elif family == 4:
        scenario = registry.fig7_batch_scenario(
            batches=_subset(rng, INFERENCE_BATCHES, 3),
            io_tokens=io,
            model=_model(rng.choice(INFERENCE_MODELS)),
            dram_bandwidth_tbps=rng.choice(BANDWIDTHS_TBPS),
        )
    else:
        scenario = registry.fig8_models_scenario(
            models=tuple(
                _model(m) for m in _subset(rng, INFERENCE_MODELS, 2)
            ),
            batch=rng.choice(INFERENCE_BATCHES),
            io_tokens=io,
            dram_bandwidth_tbps=rng.choice(BANDWIDTHS_TBPS),
        )
    return scenario


def cheap_spec(rng: random.Random, index: int) -> Scenario:
    """A table scenario under a unique name: a real, sub-millisecond
    compute whose entry is a few KiB."""
    table = rng.choice(CHEAP_TABLES)
    return (
        Scenario.builder(f"churn-{index:06d}", f"churn entry {index} ({table})")
        .table(table)
        .build()
    )


@dataclass(frozen=True)
class Spec:
    """A generated scenario as the client sends it."""

    spec: dict[str, Any]
    digest: str
    #: ``{"scenario": spec}`` as request bytes.
    run_body: bytes


def as_spec(scenario: Scenario) -> Spec:
    spec = scenario.to_dict()
    return Spec(
        spec=spec,
        digest=scenario_digest(scenario),
        run_body=json.dumps({"scenario": spec}).encode(),
    )


def distinct_specs(make, count: int, seen: set[str], speed) -> list[Spec]:
    """``count`` specs from ``make()`` whose digests are not in ``seen``
    (which is updated), so every one of them is cold in a fresh store."""
    out: list[Spec] = []
    while len(out) < count:
        speed.tick()
        spec = as_spec(make())
        if spec.digest in seen:
            continue
        seen.add(spec.digest)
        out.append(spec)
    return out


class Zipf:
    """Zipf(s) draws over ``n`` ranks from precomputed cumulative weights:
    one ``random()`` and one bisect per draw."""

    def __init__(self, n: int, s: float = 1.0) -> None:
        self.cum = list(
            itertools.accumulate(1.0 / (rank**s) for rank in range(1, n + 1))
        )

    def draw(self, rng: random.Random) -> int:
        return bisect.bisect_left(self.cum, rng.random() * self.cum[-1])


@dataclass
class Op:
    """One request of a closed-loop stream."""

    kind: str
    method: str
    path: str
    body: bytes | None = None
    headers: dict[str, str] = field(default_factory=dict)
    #: The only status that counts as success.
    expect: int = 200
    #: Index into the workload's key table (``-1``: no key).
    key: int = -1

    @property
    def op_class(self) -> str:
        """``write`` for ``POST /run``, ``read`` for result reads, else
        ``other`` (operator calls)."""
        if self.method == "POST":
            return "write"
        if self.path.startswith("/results/"):
            return "read"
        return "other"


def run_op(kind: str, spec: Spec, key: int, *, wait: bool) -> Op:
    return Op(
        kind,
        "POST",
        "/run?wait=1" if wait else "/run",
        spec.run_body,
        {"Content-Type": "application/json"},
        key=key,
    )


def result_op(kind: str, digest: str, key: int, suffix: str = "") -> Op:
    return Op(kind, "GET", f"/results/{digest}{suffix}", key=key)
