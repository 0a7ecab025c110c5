"""Optimus: end-to-end performance evaluation (the paper's contribution).

``Optimus(system)`` times mapped workloads:

* :meth:`evaluate_training` — per-stage kernel timing → 1F1B pipeline
  schedule → data-parallel gradient all-reduce → optimizer step, reported
  with the Fig. 6 compute/communication/others decomposition;
* :meth:`evaluate_inference` — prefill pass + token-by-token decode (KV cache
  growing per step), reported with the Fig. 7/8 latency and throughput
  metrics.

Decode steps are timed exactly at ``decode_samples`` quantile context lengths
and integrated — kernel times are piecewise-linear in context length, so a
modest sample count reproduces the exact sum to float precision.  Only the
attention score/softmax/context kernels depend on the context: the rest of
the decode step (embedding, projections, MLP, collectives, LM head) is timed
once per evaluation and added to each sample's attention timing.

Timing is driven by run-length-encoded op programs
(:class:`~repro.workloads.operators.OpProgram`): each unique segment is
timed once and scaled by its repeat count, and the per-kernel timings are
memoized in a :class:`~repro.core.timing_cache.KernelTimingCache` shared
across stages, decode samples and sweep points.  Cost is O(unique ops), not
O(layers × ops), while the resulting numbers match the seed's flat per-op
walk to float precision.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.system import SystemSpec
from repro.core.report import GEMMBreakdown, InferenceReport, TrainingReport
from repro.core.roofline import Boundedness
from repro.core.timing_cache import KernelTimingCache, default_timing_cache
from repro.errors import require_positive
from repro.parallel.mapper import MappedInference, MappedTraining
from repro.parallel.pipeline import simulate_1f1b
from repro.workloads.operators import ComputeKernel, Op, OpProgram


@dataclass(frozen=True)
class _OpListTiming:
    """Aggregate timing of one op list on one accelerator."""

    total: float
    compute_kernel_time: float
    comm_exposed_time: float
    memory_bound_time: float
    compute_bound_time: float
    gemm_memory_bound_time: float
    gemm_compute_bound_time: float
    flops: float

    def __add__(self, other: "_OpListTiming") -> "_OpListTiming":
        """Field-wise sum: the timing of two op lists run back to back."""
        return _OpListTiming(
            total=self.total + other.total,
            compute_kernel_time=self.compute_kernel_time + other.compute_kernel_time,
            comm_exposed_time=self.comm_exposed_time + other.comm_exposed_time,
            memory_bound_time=self.memory_bound_time + other.memory_bound_time,
            compute_bound_time=self.compute_bound_time + other.compute_bound_time,
            gemm_memory_bound_time=self.gemm_memory_bound_time
            + other.gemm_memory_bound_time,
            gemm_compute_bound_time=self.gemm_compute_bound_time
            + other.gemm_compute_bound_time,
            flops=self.flops + other.flops,
        )


class _TimingAccumulator:
    """Mutable accumulator behind :class:`_OpListTiming` construction."""

    __slots__ = (
        "timer",
        "total",
        "compute_kernel_time",
        "comm_exposed_time",
        "memory_bound_time",
        "compute_bound_time",
        "gemm_memory_bound_time",
        "gemm_compute_bound_time",
        "flops",
    )

    def __init__(self, timer) -> None:
        self.timer = timer
        self.total = 0.0
        self.compute_kernel_time = 0.0
        self.comm_exposed_time = 0.0
        self.memory_bound_time = 0.0
        self.compute_bound_time = 0.0
        self.gemm_memory_bound_time = 0.0
        self.gemm_compute_bound_time = 0.0
        self.flops = 0.0

    def add(self, op: Op, weight: float = 1.0) -> None:
        """Account ``op`` executed ``weight`` times."""
        if isinstance(op, ComputeKernel):
            timing = self.timer.time_compute(op)
            elapsed = timing.time * weight
            self.total += elapsed
            self.compute_kernel_time += elapsed
            self.flops += op.flops * weight
            if timing.bound is Boundedness.MEMORY:
                self.memory_bound_time += elapsed
                if op.is_gemm:
                    self.gemm_memory_bound_time += elapsed
            else:
                self.compute_bound_time += elapsed
                if op.is_gemm:
                    self.gemm_compute_bound_time += elapsed
        else:
            timing = self.timer.time_comm(op)
            exposed = timing.exposed_time * weight
            self.total += exposed
            self.comm_exposed_time += exposed

    def freeze(self) -> _OpListTiming:
        return _OpListTiming(
            total=self.total,
            compute_kernel_time=self.compute_kernel_time,
            comm_exposed_time=self.comm_exposed_time,
            memory_bound_time=self.memory_bound_time,
            compute_bound_time=self.compute_bound_time,
            gemm_memory_bound_time=self.gemm_memory_bound_time,
            gemm_compute_bound_time=self.gemm_compute_bound_time,
            flops=self.flops,
        )


class Optimus:
    """The analytical performance model bound to a system.

    Parameters
    ----------
    system:
        The system under evaluation.
    decode_samples:
        Quantile context lengths at which decode steps are timed exactly.
    cache:
        Kernel-timing memo to use; defaults to the process-wide shared
        cache.  Pass :class:`~repro.core.timing_cache.NullTimingCache` to
        recompute every kernel timing (the seed's behavior).
    use_programs:
        When ``True`` (default), time run-length-encoded segments once and
        scale by repeat count; when ``False``, walk the flattened op lists
        kernel by kernel exactly as the seed did.  Both paths produce the
        same numbers to float precision — the flag exists for equivalence
        testing and benchmarking.
    """

    def __init__(
        self,
        system: SystemSpec,
        decode_samples: int = 9,
        cache: KernelTimingCache | None = None,
        use_programs: bool = True,
    ) -> None:
        require_positive("decode_samples", decode_samples)
        self.system = system
        self.accelerator = system.accelerator
        self.decode_samples = decode_samples
        self.cache = cache if cache is not None else default_timing_cache()
        self.use_programs = use_programs
        self._timer = self.cache.bind(self.accelerator)

    # ------------------------------------------------------------------ utils
    def time_ops(self, ops: tuple[Op, ...] | list[Op]) -> _OpListTiming:
        """Time an op list executed serially on one accelerator."""
        acc = _TimingAccumulator(self._timer)
        for op in ops:
            acc.add(op)
        return acc.freeze()

    def time_program(self, program: OpProgram) -> _OpListTiming:
        """Time an op program: each segment once, scaled by its repeat."""
        acc = _TimingAccumulator(self._timer)
        for segment in program.segments:
            weight = float(segment.repeat)
            for op in segment.ops:
                acc.add(op, weight)
        return acc.freeze()

    def _time(self, program: OpProgram) -> _OpListTiming:
        """Program timing honoring the ``use_programs`` equivalence switch."""
        if self.use_programs:
            return self.time_program(program)
        return self.time_ops(program.flatten())

    # ------------------------------------------------------------- training
    def evaluate_training(self, mapped: MappedTraining) -> TrainingReport:
        """Time one training step (one global batch)."""
        stage_fwd = [self._time(p) for p in mapped.stage_fwd_programs]
        stage_bwd = [self._time(p) for p in mapped.stage_bwd_programs]

        p2p_time = 0.0
        if mapped.parallel.pipeline_parallel > 1:
            from repro.workloads.operators import point_to_point

            p2p_kernel = point_to_point("pp_boundary", mapped.p2p_bytes)
            p2p_time = self._timer.time_comm(p2p_kernel).time

        pipeline = simulate_1f1b(
            [t.total for t in stage_fwd],
            [t.total for t in stage_bwd],
            mapped.n_microbatches,
            p2p_time,
        )

        dp_time = 0.0
        if mapped.dp_allreduce is not None:
            dp_time = self._timer.time_comm(mapped.dp_allreduce).exposed_time

        update = self.time_ops(mapped.update_ops)
        time_per_batch = pipeline.total_time + dp_time + update.total

        m = mapped.n_microbatches
        p = len(stage_fwd)
        # Per-device averages over the pipeline group (so the stacked
        # decomposition sums to the total batch time).
        avg_kernel = (
            sum(t.compute_kernel_time for t in stage_fwd + stage_bwd) * m / p
        )
        avg_comm = (
            sum(t.comm_exposed_time for t in stage_fwd + stage_bwd) * m / p
            + dp_time
            + (2 * (p - 1) * p2p_time / p if p > 1 else 0.0)
        )
        bubble = time_per_batch - avg_kernel - avg_comm - update.total

        mem_bound = sum(t.memory_bound_time for t in stage_fwd + stage_bwd) * m / p
        comp_bound = (
            sum(t.compute_bound_time for t in stage_fwd + stage_bwd) * m / p
        )

        # Fig. 5 inset: forward GEMM time of one layer, one microbatch, split
        # by boundedness (uses an interior stage: pure transformer layers).
        interior = stage_fwd[min(1, p - 1)]
        layers_interior = mapped.parallel.layers_per_stage(mapped.model.n_layers)[
            min(1, p - 1)
        ]
        gemm_breakdown = GEMMBreakdown(
            memory_bound_time=interior.gemm_memory_bound_time / max(1, layers_interior),
            compute_bound_time=interior.gemm_compute_bound_time
            / max(1, layers_interior),
        )

        return TrainingReport(
            system_name=self.system.name,
            model_name=mapped.model.name,
            time_per_batch=time_per_batch,
            compute_time=avg_kernel,
            comm_time=avg_comm,
            bubble_time=max(0.0, bubble),
            update_time=update.total,
            flops_per_batch=mapped.flops_per_batch,
            n_accelerators=self.system.n_accelerators,
            fw_gemm_breakdown=gemm_breakdown,
            memory_bound_kernel_time=mem_bound,
            compute_bound_kernel_time=comp_bound,
            fits_memory=mapped.fits_memory,
            tokens_processed=float(mapped.batch * mapped.seq_len),
        )

    # ------------------------------------------------------------- inference
    def evaluate_inference(self, mapped: MappedInference) -> InferenceReport:
        """Time one inference request: prefill + ``output_tokens`` decode steps."""
        prefill = self._time(mapped.prefill_program)

        n_steps = mapped.n_decode_steps
        k = min(self.decode_samples, n_steps)
        sample_idx = sorted({round(i * (n_steps - 1) / max(1, k - 1)) for i in range(k)})
        contexts = [mapped.decode_context_at(idx) for idx in sample_idx]
        samples = dict(zip(sample_idx, self._time_decode_steps(mapped, contexts)))

        # Piecewise-linear integration between sampled steps.
        decode_time = 0.0
        decode_comm = 0.0
        decode_flops = 0.0
        decode_mem_bound = 0.0
        decode_comp_bound = 0.0
        for left, right in zip(sample_idx, sample_idx[1:] + [None]):
            if right is None:
                break
            span = right - left
            t_l, t_r = samples[left], samples[right]
            decode_time += (t_l.total + t_r.total) / 2 * span
            decode_comm += (t_l.comm_exposed_time + t_r.comm_exposed_time) / 2 * span
            decode_flops += (t_l.flops + t_r.flops) / 2 * span
            decode_mem_bound += (
                (t_l.memory_bound_time + t_r.memory_bound_time) / 2 * span
            )
            decode_comp_bound += (
                (t_l.compute_bound_time + t_r.compute_bound_time) / 2 * span
            )
        # The trapezoid covers n_steps-1 intervals; add the final step once.
        last = samples[sample_idx[-1]]
        decode_time += last.total
        decode_comm += last.comm_exposed_time
        decode_flops += last.flops
        decode_mem_bound += last.memory_bound_time
        decode_comp_bound += last.compute_bound_time

        latency = prefill.total + decode_time
        tp = mapped.parallel.tensor_parallel
        total_flops = (prefill.flops + decode_flops) * tp

        return InferenceReport(
            system_name=self.system.name,
            model_name=mapped.model.name,
            latency=latency,
            prefill_time=prefill.total,
            decode_time=decode_time,
            comm_time=prefill.comm_exposed_time + decode_comm,
            flops_total=total_flops,
            n_accelerators=self.system.n_accelerators,
            batch=mapped.batch,
            input_tokens=mapped.input_tokens,
            output_tokens=mapped.output_tokens,
            kv_cache_bytes=mapped.kv_cache_bytes,
            fits_memory=mapped.fits_memory,
            memory_bound_kernel_time=prefill.memory_bound_time + decode_mem_bound,
            compute_bound_kernel_time=prefill.compute_bound_time + decode_comp_bound,
        )

    def _time_decode_steps(
        self, mapped: MappedInference, contexts: list[int]
    ) -> list[_OpListTiming]:
        """Decode-step timings at ``contexts``: the context-invariant
        program once, plus the attention kernels per context."""
        if not self.use_programs:
            return [self.time_ops(mapped.decode_ops_at(c)) for c in contexts]
        invariant = self.time_program(mapped.decode_invariant_program)
        return [
            invariant + self.time_program(mapped.decode_attention_at(c))
            for c in contexts
        ]


__all__ = ["Optimus"]
