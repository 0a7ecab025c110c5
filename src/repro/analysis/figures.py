"""Shared figure setup and the paper's two memory-residency studies.

Figs. 5–8 are registry scenarios (``fig5``, ``fig6``, ``fig7-*``,
``fig8-*``): run them with ``repro.scenarios.get(name).run()``, or build a
non-default variant with a ``repro.scenarios.registry.fig*_scenario(...)``
builder and :func:`repro.scenarios.runner.run_scenario`, then read the
series off the result with ``.series()`` / ``.axis()`` and the reports with
``.outcomes()`` / ``.reports()``.

What stays here is the paper's fixed training decomposition, the default
SPU bandwidth, the baseline-blade helper, and two studies whose accounting
differs from the ``l2-kv-cache`` / ``jsram-residency`` scenarios: the
Sec. VI L2 KV-cache study (K/V kernels only, with and without dispatch
overhead) and the Sec. VII JSRAM main-memory outlook (a point whose
weights + KV do not fit the pool keeps its DRAM latency).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.blade import build_blade
from repro.arch.system import SystemSpec
from repro.parallel.mapper import map_inference
from repro.parallel.strategy import ParallelConfig
from repro.units import GB, TBPS
from repro.workloads.llm import (
    LLAMA2_13B,
    LLAMA2_70B,
    LLAMA2_7B,
    LLMConfig,
)

#: The paper's fixed model-parallel setup for training (TP=8, PP=8, DP=1).
TRAINING_PARALLEL = ParallelConfig(
    tensor_parallel=8, pipeline_parallel=8, data_parallel=1
)

#: Default effective bandwidth per SPU used by Figs. 6–8 (16 TBps).
DEFAULT_SPU_BANDWIDTH = 16 * TBPS


def scd_system(dram_bandwidth_per_spu: float | None = None) -> SystemSpec:
    """The baseline 64-SPU blade, optionally with a swept DRAM bandwidth."""
    system = build_blade().system()
    if dram_bandwidth_per_spu is not None:
        system = system.with_dram_bandwidth(dram_bandwidth_per_spu)
    return system


# ---------------------------------------------------------------------------
# Sec. VI closing study — KV cache in the blade L2
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class L2StudyEntry:
    """One model of the Sec. VI L2 study.

    The paper bounds the K/V GEMM/GEMV gain as "~2–4× depending on the
    software overhead of launching the kernels"; the two speed-up numbers
    bracket exactly that — with the baseline per-kernel dispatch overhead and
    with it removed.
    """

    model_name: str
    kv_cache_bytes: float
    fits_l2: bool
    kv_kernel_time_dram: float
    kv_kernel_time_l2: float
    kv_kernel_time_dram_no_overhead: float
    kv_kernel_time_l2_no_overhead: float

    @property
    def kv_gemm_speedup_with_overhead(self) -> float:
        """K/V-kernel speed-up at the baseline dispatch overhead."""
        if not self.fits_l2 or self.kv_kernel_time_l2 == 0:
            return 1.0
        return self.kv_kernel_time_dram / self.kv_kernel_time_l2

    @property
    def kv_gemm_speedup(self) -> float:
        """K/V-kernel speed-up with dispatch overhead removed (the paper's
        optimistic end of the 2–4× band)."""
        if not self.fits_l2 or self.kv_kernel_time_l2_no_overhead == 0:
            return 1.0
        return (
            self.kv_kernel_time_dram_no_overhead
            / self.kv_kernel_time_l2_no_overhead
        )


@dataclass(frozen=True)
class L2StudyResult:
    """Sec. VI L2 KV-cache study across the llama2 family."""

    l2_capacity_bytes: float
    entries: tuple[L2StudyEntry, ...]


def _kv_kernel_time(system: SystemSpec, model: LLMConfig, batch: int) -> float:
    """Decode-phase K/V GEMV time (score + context kernels) per request."""
    from repro.core.roofline import time_compute_kernel
    from repro.workloads.operators import ComputeKernel, KernelKind

    # Small llama2 models have fewer heads than the blade has SPUs; use the
    # largest tensor-parallel degree the head count allows.
    tp = min(model.n_heads, system.n_accelerators)
    system = system.with_n(tp)
    mapped = map_inference(
        system=system,
        model=model,
        parallel=ParallelConfig(tensor_parallel=tp),
        batch=batch,
    )
    total = 0.0
    for context in (mapped.input_tokens, mapped.input_tokens + mapped.output_tokens):
        step_time = 0.0
        for op in mapped.decode_ops_at(context):
            if isinstance(op, ComputeKernel) and op.kind in (
                KernelKind.ATTN_SCORE,
                KernelKind.ATTN_CONTEXT,
            ):
                step_time += time_compute_kernel(op, system.accelerator).time
        total += step_time
    return total / 2.0 * mapped.output_tokens


def l2_kv_cache_study(
    models: tuple[LLMConfig, ...] = (LLAMA2_7B, LLAMA2_13B, LLAMA2_70B),
    batch: int = 1,
    l2_capacity: float = 4.19 * GB,
    dram_bandwidth_per_spu: float = DEFAULT_SPU_BANDWIDTH,
) -> L2StudyResult:
    """Reproduce the Sec. VI closing analysis.

    The paper: llama2-7B (2 GB) and llama2-13B (3 GB) KV caches fit the
    ~4.19 GB blade L2, llama2-70B (10 GB) does not; serving the K/V
    GEMMs/GEMVs from L2 instead of DRAM buys ~2–4×.
    """
    from dataclasses import replace as _replace

    dram_blade = build_blade(l2_total_bytes=l2_capacity, l2_policy="dram")
    l2_blade = build_blade(l2_total_bytes=l2_capacity, l2_policy="l2_kv_cache")
    dram_system = dram_blade.system().with_dram_bandwidth(dram_bandwidth_per_spu)
    l2_system = l2_blade.system().with_dram_bandwidth(dram_bandwidth_per_spu)

    def zero_overhead(system: SystemSpec) -> SystemSpec:
        return _replace(
            system, accelerator=_replace(system.accelerator, kernel_overhead=0.0)
        )

    entries = []
    for model in models:
        kv = model.kv_cache_bytes(batch)
        fits = kv <= l2_capacity
        entries.append(
            L2StudyEntry(
                model_name=model.name,
                kv_cache_bytes=kv,
                fits_l2=fits,
                kv_kernel_time_dram=_kv_kernel_time(dram_system, model, batch),
                kv_kernel_time_l2=_kv_kernel_time(l2_system, model, batch),
                kv_kernel_time_dram_no_overhead=_kv_kernel_time(
                    zero_overhead(dram_system), model, batch
                ),
                kv_kernel_time_l2_no_overhead=_kv_kernel_time(
                    zero_overhead(l2_system), model, batch
                ),
            )
        )
    return L2StudyResult(l2_capacity_bytes=l2_capacity, entries=tuple(entries))


# ---------------------------------------------------------------------------
# Future-work study — LLM inference out of a large JSRAM pool
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class JSRAMStudyEntry:
    """One (model, JSRAM capacity) point of the future-work study."""

    model_name: str
    jsram_capacity_bytes: float
    footprint_bytes: float
    fits: bool
    latency_dram: float
    latency_jsram: float

    @property
    def speedup(self) -> float:
        """End-to-end inference gain from JSRAM residency."""
        if not self.fits:
            return 1.0
        return self.latency_dram / self.latency_jsram


@dataclass(frozen=True)
class JSRAMStudyResult:
    """The Sec. VII outlook quantified: "the impact of huge JSRAM capacity
    on LLM inference exploiting its massive bandwidth and negligible
    latency"."""

    entries: tuple[JSRAMStudyEntry, ...]


def jsram_main_memory_study(
    models: tuple[LLMConfig, ...] = (LLAMA2_7B, LLAMA2_13B),
    capacities: tuple[float, ...] = (4.19 * GB, 32 * GB, 64 * GB),
    batch: int = 8,
    io_tokens: tuple[int, int] = (200, 200),
    dram_bandwidth_per_spu: float = DEFAULT_SPU_BANDWIDTH,
) -> JSRAMStudyResult:
    """Sweep the blade JSRAM (shared L2) capacity and serve *weights + KV*
    from it whenever the whole footprint fits — the paper's closing outlook
    on "unusual SRAM capacity" leading to "new ways of mapping and memory
    management"."""
    from repro.core.model import Optimus

    dram_system = (
        build_blade(l2_policy="dram").system().with_dram_bandwidth(
            dram_bandwidth_per_spu
        )
    )
    entries: list[JSRAMStudyEntry] = []
    for capacity in capacities:
        jsram_system = (
            build_blade(l2_total_bytes=capacity, l2_policy="l2_kv_cache")
            .system()
            .with_dram_bandwidth(dram_bandwidth_per_spu)
        )
        for model in models:
            tp = min(model.n_heads, dram_system.n_accelerators)
            parallel = ParallelConfig(tensor_parallel=tp)

            def run(system: SystemSpec) -> float:
                mapped = map_inference(
                    model,
                    system.with_n(tp),
                    parallel=parallel,
                    batch=batch,
                    input_tokens=io_tokens[0],
                    output_tokens=io_tokens[1],
                )
                return Optimus(system.with_n(tp)).evaluate_inference(mapped).latency

            footprint = model.weight_bytes() + model.kv_cache_bytes(batch)
            fits = footprint <= capacity
            entries.append(
                JSRAMStudyEntry(
                    model_name=model.name,
                    jsram_capacity_bytes=capacity,
                    footprint_bytes=footprint,
                    fits=fits,
                    latency_dram=run(dram_system),
                    latency_jsram=run(jsram_system) if fits else run(dram_system),
                )
            )
    return JSRAMStudyResult(entries=tuple(entries))


__all__ = [
    "TRAINING_PARALLEL",
    "DEFAULT_SPU_BANDWIDTH",
    "scd_system",
    "L2StudyEntry",
    "L2StudyResult",
    "l2_kv_cache_study",
    "JSRAMStudyEntry",
    "JSRAMStudyResult",
    "jsram_main_memory_study",
]
