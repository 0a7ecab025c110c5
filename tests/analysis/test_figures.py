"""Figure tests on reduced, non-default grids (full claims live in benchmarks/).

Figs. 5–8 run through the registry's ``fig*_scenario`` builders; the
remaining ``repro.analysis.figures`` helpers are covered at the bottom.
"""

from __future__ import annotations

import pytest

from repro import scenarios
from repro.analysis.figures import l2_kv_cache_study, scd_system
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
from repro.units import TBPS
from repro.workloads.llm import GPT3_18B, LLAMA_70B


class TestFig5:
    def test_reduced_sweep(self):
        fig5 = run_scenario(fig5_scenario((0.5, 16), batch=32, model=GPT3_18B))
        achieved = fig5.series("achieved_pflops_per_pu")
        gemm_time = fig5.series("gemm_time_per_layer")
        assert len(achieved) == 2
        assert achieved[1] > achieved[0]
        assert gemm_time[0] > gemm_time[1]

    def test_reports_attached(self):
        fig5 = run_scenario(fig5_scenario((8,), batch=32))
        assert fig5.reports()[0].model_name == "GPT3-76.1B"


class TestFig6:
    def test_single_model(self):
        fig6 = run_scenario(fig6_scenario(batch=32, models=(GPT3_18B,)))
        (outcome,) = fig6.outcomes()
        (speedup,) = fig6.series("speedup")
        assert speedup > 2.0
        assert outcome.report.system_name == "SCD blade"
        assert outcome.ref_report.system_name == "64x H100"


class TestFig7:
    def test_reduced(self):
        io_tokens = (50, 20)
        latencies = run_scenario(
            fig7_bandwidth_scenario((1, 16), io_tokens=io_tokens, model=LLAMA_70B)
        ).series("latency")
        latency_sweep = run_scenario(
            fig7_latency_scenario((10, 100), io_tokens=io_tokens, model=LLAMA_70B)
        ).series("achieved_pflops_per_pu")
        batch_latencies = run_scenario(
            fig7_batch_scenario((4, 16), io_tokens=io_tokens, model=LLAMA_70B)
        ).series("latency")
        (gpu_latency,) = run_scenario(
            fig7_gpu_scenario(io_tokens=io_tokens, model=LLAMA_70B)
        ).series("latency")
        assert latencies[0] > latencies[1]
        assert latency_sweep[0] > latency_sweep[1]
        assert batch_latencies[1] > batch_latencies[0]
        assert gpu_latency > batch_latencies[0]


class TestFig8:
    def test_reduced(self):
        models = run_scenario(
            fig8_models_scenario((LLAMA_70B,), io_tokens=(50, 20))
        )
        kv = run_scenario(
            fig8_batch_scenario((4, 8), io_tokens=(50, 20))
        ).series("kv_cache_bytes")
        assert models.axis("workload.model") == ("Llama-70B",)
        assert models.series("speedup")[0] > 4.0
        assert kv[1] == pytest.approx(2 * kv[0])
        gpu_capacity = (
            scenarios.get("fig8-batch").ref_system.build().total_memory_capacity
        )
        assert gpu_capacity == pytest.approx(5.12e12)


class TestL2Study:
    def test_entries(self):
        study = l2_kv_cache_study()
        names = [e.model_name for e in study.entries]
        assert names == ["Llama2-7B", "Llama2-13B", "Llama2-70B"]
        assert study.l2_capacity_bytes == pytest.approx(4.19e9)


class TestHelpers:
    def test_scd_system_bandwidth_override(self):
        system = scd_system(16 * TBPS)
        assert system.accelerator.hierarchy["DRAM"].bandwidth == 16 * TBPS
