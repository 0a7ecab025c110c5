"""Figure-level seed equivalence: the timing engine must be invisible.

``tests/data/seed_figures_golden.json`` holds every Fig. 5–8 series as
produced by the seed's flat, uncached timing path (captured before the
op-program engine landed).  The engine rewrite is a pure performance
change, so regenerating the figures must reproduce those numbers within
1e-9 relative tolerance.

These tests build each figure from the registry's ``fig*_scenario``
builders at their default arguments and run it with ``run_scenario``;
``tests/scenarios/test_registry.py`` checks the registered scenarios.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.scenarios.registry import (
    fig5_scenario,
    fig6_scenario,
    fig7_bandwidth_scenario,
    fig7_batch_scenario,
    fig7_gpu_scenario,
    fig7_latency_scenario,
    fig8_batch_scenario,
    fig8_models_scenario,
)
from repro.scenarios.runner import run_scenario

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "seed_figures_golden.json"

REL = 1e-9


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def assert_series(actual, expected):
    assert len(actual) == len(expected)
    assert tuple(actual) == pytest.approx(tuple(expected), rel=REL)


class TestSeedEquivalence:
    def test_fig5_series_match_seed(self, golden):
        fig5 = run_scenario(fig5_scenario())
        g = golden["fig5"]
        assert_series(fig5.axis("system.dram_bandwidth_tbps"), g["bandwidths"])
        assert_series(
            fig5.series("achieved_pflops_per_pu"), g["achieved_pflops_per_spu"]
        )
        assert_series(fig5.series("gemm_time_per_layer"), g["gemm_time_per_layer"])
        assert_series(
            fig5.series("gemm_memory_bound_time"), g["gemm_memory_bound_time"]
        )
        assert_series(
            fig5.series("gemm_compute_bound_time"), g["gemm_compute_bound_time"]
        )

    def test_fig6_series_match_seed(self, golden):
        fig6 = run_scenario(fig6_scenario())
        g = golden["fig6"]
        assert list(fig6.axis("workload.model")) == g["models"]
        assert_series(
            [o.report.time_per_batch for o in fig6.outcomes()],
            g["spu_time_per_batch"],
        )
        assert_series(
            [o.ref_report.time_per_batch for o in fig6.outcomes()],
            g["gpu_time_per_batch"],
        )
        assert_series(fig6.series("speedup"), g["speedups"])

    def test_fig7_series_match_seed(self, golden):
        g = golden["fig7"]
        assert_series(
            run_scenario(fig7_bandwidth_scenario()).series("latency"),
            g["latencies"],
        )
        assert_series(
            run_scenario(fig7_latency_scenario()).series("achieved_pflops_per_pu"),
            g["latency_sweep_pflops_per_spu"],
        )
        batch = run_scenario(fig7_batch_scenario())
        assert_series(batch.series("latency"), g["batch_latencies"])
        assert_series(
            batch.series("achieved_pflops_per_pu"), g["batch_pflops_per_spu"]
        )
        gpu = run_scenario(fig7_gpu_scenario())
        assert gpu.series("latency")[0] == pytest.approx(g["gpu_latency"], rel=REL)
        assert gpu.series("achieved_pflops_per_pu")[0] == pytest.approx(
            g["gpu_pflops_per_pu"], rel=REL
        )

    def test_fig8_series_match_seed(self, golden):
        g = golden["fig8"]
        models = run_scenario(fig8_models_scenario())
        assert list(models.axis("workload.model")) == g["model_names"]
        assert_series(models.series("speedup"), g["model_speedups"])
        batch = run_scenario(fig8_batch_scenario())
        assert_series(batch.series("speedup"), g["batch_speedups"])
        assert_series(batch.series("kv_cache_bytes"), g["kv_cache_bytes"])
