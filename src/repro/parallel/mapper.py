"""The distributed mapper: place an LLM workload onto a system (Sec. V).

"For a given system architecture and workload, we assess the most optimal
mapping, reducing communication overhead."  The mapper applies a
:class:`~repro.parallel.strategy.ParallelConfig` to a model and emits the
per-device kernel lists the Optimus evaluator times:

* **training** — per-pipeline-stage forward/backward op lists per microbatch
  (tensor-parallel collectives embedded), stage-boundary point-to-point
  sizes, the data-parallel gradient all-reduce, and the optimizer step;
* **inference** — prefill op list plus a decode-step op-list builder
  parameterized by context length (the KV cache grows as tokens generate),
  and the same step split into its context-invariant kernels and the
  attention kernels that follow the context.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
from dataclasses import dataclass, field
from typing import Callable

from repro.arch.system import SystemSpec
from repro.errors import MappingError, require_positive
from repro.parallel.strategy import ParallelConfig
from repro.workloads.llm import LLMConfig
from repro.workloads.operators import (
    CommKernel,
    CommPattern,
    ComputeKernel,
    Op,
    OpProgram,
    Phase,
    Segment,
    all_reduce,
    optimizer_step,
)
from repro.workloads.transformer import (
    LayerShape,
    attention_kv_ops,
    backward_ops,
    embedding_ops,
    kv_invariant_layer_ops,
    layer_forward_ops,
    lm_head_ops,
)

#: Bytes of optimizer state per parameter (bf16 weights + grads, fp32 Adam
#: moments and master copy ≈ 18 B — the usual mixed-precision recipe).
OPTIMIZER_BYTES_PER_PARAM = 18.0

from repro.workloads.operators import KernelKind


def _attach_residency(
    ops: list[Op], weight_resident: float, kv_resident: float = 0.0
) -> list[Op]:
    """Annotate kernels with the persistent footprint they touch.

    Weight-streaming kernels (and embedding gathers) can only be served by a
    level that holds the device's *entire* weight shard; attention
    score/context kernels by a level holding the KV cache.  This is what
    makes the hierarchical roofline "hierarchical": per-kernel bytes may be
    small, but the data they page through is the full resident set.
    """
    annotated: list[Op] = []
    for op in ops:
        if isinstance(op, ComputeKernel):
            if op.weight_bytes > 0 or op.kind is KernelKind.EMBEDDING:
                op = op.with_residency(weight_resident)
            elif kv_resident > 0 and op.kind in (
                KernelKind.ATTN_SCORE,
                KernelKind.ATTN_CONTEXT,
            ):
                op = op.with_residency(kv_resident)
        annotated.append(op)
    return annotated


@dataclass(frozen=True)
class MappedTraining:
    """A training step mapped onto a system.

    Stage op streams are carried as run-length-encoded
    :class:`~repro.workloads.operators.OpProgram` objects (one layer's op
    list with a multiplicity, not N replicas); the ``stage_fwd_ops`` /
    ``stage_bwd_ops`` properties flatten them back to the seed
    representation for consumers that want plain lists.
    """

    model: LLMConfig
    system: SystemSpec
    parallel: ParallelConfig
    batch: int
    seq_len: int
    precision_bytes: float
    stage_fwd_programs: tuple[OpProgram, ...]
    stage_bwd_programs: tuple[OpProgram, ...]
    p2p_bytes: float
    n_microbatches: int
    dp_allreduce: CommKernel | None
    update_ops: tuple[Op, ...]

    @property
    def stage_fwd_ops(self) -> tuple[tuple[Op, ...], ...]:
        """Flattened per-stage forward op lists (seed representation)."""
        return tuple(program.flatten() for program in self.stage_fwd_programs)

    @property
    def stage_bwd_ops(self) -> tuple[tuple[Op, ...], ...]:
        """Flattened per-stage backward op lists (seed representation)."""
        return tuple(program.flatten() for program in self.stage_bwd_programs)

    @property
    def flops_per_batch(self) -> float:
        """Useful FLOPs per global batch across the whole system (fwd+bwd).

        Derived from program segment counts — O(unique ops), not
        O(layers × ops)."""
        per_microbatch = sum(
            program.compute_flops()
            for program in self.stage_fwd_programs + self.stage_bwd_programs
        )
        replicas = self.parallel.data_parallel
        tp = self.parallel.tensor_parallel
        return per_microbatch * self.n_microbatches * replicas * tp

    @property
    def memory_per_device(self) -> float:
        """Weights + optimizer state per device, bytes (activations excluded)."""
        shards = self.parallel.tensor_parallel * self.parallel.pipeline_parallel
        return self.model.n_params / shards * OPTIMIZER_BYTES_PER_PARAM

    @property
    def fits_memory(self) -> bool:
        """Whether the static state fits each device's main memory."""
        return (
            self.memory_per_device
            <= self.system.accelerator.memory_capacity_bytes
        )


@dataclass(frozen=True)
class MappedInference:
    """An inference request (prefill + decode) mapped onto a system.

    Prefill and decode-step kernel streams are run-length-encoded
    :class:`~repro.workloads.operators.OpProgram` objects; ``prefill_ops``
    and ``decode_ops_at`` flatten them back to the seed representation.

    The decode step at context ``c`` also comes split in two:
    ``decode_invariant_program`` holds every kernel the KV cache does not
    change (built once per mapping), ``decode_attention_at(c)`` the
    score/softmax/context kernels.  Together they are a permutation of
    ``decode_program_at(c)``'s flattened ops.
    """

    model: LLMConfig
    system: SystemSpec
    parallel: ParallelConfig
    batch: int
    input_tokens: int
    output_tokens: int
    precision_bytes: float
    prefill_program: OpProgram
    decode_program_at: Callable[[int], OpProgram] = field(repr=False)
    decode_invariant_program: OpProgram = field(repr=False)
    decode_attention_at: Callable[[int], OpProgram] = field(repr=False)

    @property
    def prefill_ops(self) -> tuple[Op, ...]:
        """Flattened prefill op list (seed representation)."""
        return self.prefill_program.flatten()

    def decode_ops_at(self, context: int) -> tuple[Op, ...]:
        """Flattened decode-step op list at ``context`` (seed representation)."""
        return self.decode_program_at(context).flatten()

    @property
    def kv_cache_bytes(self) -> float:
        """KV-cache allocation for the batch (at the model's context window,
        the paper's capacity accounting)."""
        return self.model.kv_cache_bytes(self.batch, bytes_per_element=self.precision_bytes)

    @property
    def weights_bytes(self) -> float:
        """Total model weights at working precision."""
        return self.model.weight_bytes(self.precision_bytes)

    @property
    def memory_required(self) -> float:
        """System-wide memory for weights + KV cache."""
        return self.weights_bytes + self.kv_cache_bytes

    @property
    def fits_memory(self) -> bool:
        """Whether weights + KV fit the system's total main memory (the GPU
        ceiling of Fig. 8b)."""
        return self.memory_required <= self.system.total_memory_capacity

    @property
    def n_decode_steps(self) -> int:
        """Number of decode steps (one per generated token)."""
        return self.output_tokens

    def decode_context_at(self, step: int) -> int:
        """Context length at decode step ``step`` — O(1) arithmetic."""
        if not 0 <= step < self.output_tokens:
            raise IndexError(
                f"decode step {step} out of range [0, {self.output_tokens})"
            )
        return self.input_tokens + step

    def decode_contexts(self) -> range:
        """The context length at each decode step (an O(1) lazy range, not
        an ``output_tokens``-length list)."""
        return range(self.input_tokens, self.input_tokens + self.output_tokens)


def map_training(
    model: LLMConfig,
    system: SystemSpec,
    parallel: ParallelConfig,
    batch: int,
    seq_len: int | None = None,
    precision_bytes: float = 2.0,
    tp_overlap: float = 0.0,
) -> MappedTraining:
    """Map one training step (fwd + bwd + update) onto ``system``."""
    require_positive("batch", batch)
    seq = model.max_seq_len if seq_len is None else seq_len
    require_positive("seq_len", seq)
    parallel.validate(model, system.n_accelerators, batch)

    tp = parallel.tensor_parallel
    shape = LayerShape(
        n_tokens=parallel.microbatch_size * seq,
        batch_seqs=parallel.microbatch_size,
        kv_len=seq,
        tp=tp,
        bytes_per_element=precision_bytes,
        tp_overlap=tp_overlap,
    )
    weight_resident = (
        model.n_params / (tp * parallel.pipeline_parallel) * precision_bytes
    )
    layer_fwd = _attach_residency(layer_forward_ops(model, shape), weight_resident)
    layer_bwd = _attach_residency(backward_ops(layer_fwd), weight_resident)

    stage_fwd: list[OpProgram] = []
    stage_bwd: list[OpProgram] = []
    layer_counts = parallel.layers_per_stage(model.n_layers)
    for stage, n_layers in enumerate(layer_counts):
        fwd_segments: list[Segment] = []
        bwd_segments: list[Segment] = []
        if stage == 0:
            emb = _attach_residency(
                embedding_ops(model, shape.n_tokens, precision_bytes),
                weight_resident,
            )
            fwd_segments.append(Segment(tuple(emb)))
            bwd_segments.append(Segment(tuple(backward_ops(emb))))
        if n_layers > 0:
            fwd_segments.append(Segment(tuple(layer_fwd), repeat=n_layers))
            bwd_segments.append(Segment(tuple(layer_bwd), repeat=n_layers))
        if stage == len(layer_counts) - 1:
            head = _attach_residency(
                lm_head_ops(model, shape.n_tokens, tp, precision_bytes),
                weight_resident,
            )
            fwd_segments.append(Segment(tuple(head)))
            bwd_segments.append(Segment(tuple(backward_ops(head))))
        stage_fwd.append(OpProgram(tuple(fwd_segments)))
        stage_bwd.append(OpProgram(tuple(bwd_segments)))

    n_micro = parallel.n_microbatches(batch)
    p2p_bytes = shape.n_tokens * model.hidden * precision_bytes

    dp_comm: CommKernel | None = None
    if parallel.data_parallel > 1:
        grad_bytes = (
            model.n_params
            / (tp * parallel.pipeline_parallel)
            * precision_bytes
        )
        # DP ranks are the outermost mapping dimension — they sit in
        # different nodes/blades, so the gradient all-reduce crosses the
        # inter-group fabric.
        dp_comm = all_reduce(
            "dp_grad_allreduce",
            grad_bytes,
            parallel.data_parallel,
            Phase.BACKWARD,
            spans_groups=True,
        )

    params_per_device = model.n_params / (tp * parallel.pipeline_parallel)
    update = (optimizer_step("adam_update", params_per_device),)

    return MappedTraining(
        model=model,
        system=system,
        parallel=parallel,
        batch=batch,
        seq_len=seq,
        precision_bytes=precision_bytes,
        stage_fwd_programs=tuple(stage_fwd),
        stage_bwd_programs=tuple(stage_bwd),
        p2p_bytes=p2p_bytes,
        n_microbatches=n_micro,
        dp_allreduce=dp_comm,
        update_ops=update,
    )


def map_inference(
    model: LLMConfig,
    system: SystemSpec,
    parallel: ParallelConfig | None = None,
    batch: int = 8,
    input_tokens: int = 200,
    output_tokens: int = 200,
    precision_bytes: float = 2.0,
) -> MappedInference:
    """Map an inference request onto ``system``.

    The paper's inference setup uses pure tensor parallelism ("the number of
    SPUs is the same as the TP degree"), which is the default when
    ``parallel`` is omitted.
    """
    require_positive("batch", batch)
    require_positive("input_tokens", input_tokens)
    require_positive("output_tokens", output_tokens)
    if parallel is None:
        parallel = ParallelConfig(tensor_parallel=system.n_accelerators)
    parallel.validate(model, system.n_accelerators, batch)
    if parallel.pipeline_parallel != 1 or parallel.data_parallel != 1:
        raise MappingError(
            "inference mapping supports tensor parallelism only "
            "(the paper's configuration)"
        )
    tp = parallel.tensor_parallel

    # Persistent footprints are annotated at their *total* size: the only
    # level above DRAM that could hold them is the blade-shared L2/JSRAM
    # pool (Sec. VI study and the JSRAM future-work study), and a shared
    # level must hold every device's shard at once.
    weight_resident = model.n_params * precision_bytes
    kv_resident = model.kv_cache_bytes(batch, bytes_per_element=precision_bytes)

    def attached(ops: list[Op]) -> tuple[Op, ...]:
        return tuple(_attach_residency(ops, weight_resident, kv_resident))

    def phase_program(layer_ops: list[Op], n_tokens: int, phase: Phase) -> OpProgram:
        """Embedding + RLE layer span + LM head, with residency attached."""
        return OpProgram(
            (
                Segment(attached(embedding_ops(model, n_tokens, precision_bytes, phase))),
                Segment(attached(layer_ops), repeat=model.n_layers),
                Segment(attached(lm_head_ops(model, batch, tp, precision_bytes, phase))),
            )
        )

    prefill_shape = LayerShape(
        n_tokens=batch * input_tokens,
        batch_seqs=batch,
        kv_len=input_tokens,
        tp=tp,
        bytes_per_element=precision_bytes,
    )
    prefill_program = phase_program(
        layer_forward_ops(model, prefill_shape, Phase.PREFILL),
        prefill_shape.n_tokens,
        Phase.PREFILL,
    )

    def decode_shape(context: int) -> LayerShape:
        return LayerShape(
            n_tokens=batch,
            batch_seqs=batch,
            kv_len=max(1, context),
            tp=tp,
            bytes_per_element=precision_bytes,
        )

    def decode_program_at(context: int) -> OpProgram:
        return phase_program(
            layer_forward_ops(model, decode_shape(context), Phase.DECODE),
            batch,
            Phase.DECODE,
        )

    # The same decode step split by what the KV cache changes: everything
    # but the score/softmax/context kernels is built once per mapping, and
    # those per context, memoized so sweep points sharing this mapping
    # (through MappingCache) reuse the decode samples' kernels.
    decode_invariant_program = phase_program(
        kv_invariant_layer_ops(model, decode_shape(1), Phase.DECODE),
        batch,
        Phase.DECODE,
    )

    @functools.lru_cache(maxsize=16)
    def decode_attention_at(context: int) -> OpProgram:
        kv_ops = attention_kv_ops(model, decode_shape(context), Phase.DECODE)
        return OpProgram((Segment(attached(kv_ops), repeat=model.n_layers),))

    return MappedInference(
        model=model,
        system=system,
        parallel=parallel,
        batch=batch,
        input_tokens=input_tokens,
        output_tokens=output_tokens,
        precision_bytes=precision_bytes,
        prefill_program=prefill_program,
        decode_program_at=decode_program_at,
        decode_invariant_program=decode_invariant_program,
        decode_attention_at=decode_attention_at,
    )


class MappingCache:
    """Batch-level mapping dedup for sweeps.

    The op programs a mapping produces depend on the *workload* side only —
    model, parallel decomposition, batch, sequence/token counts, precision —
    plus the system's accelerator **count** (strategy validation and the
    default inference TP degree).  They do not depend on bandwidths,
    latencies, capacities or any other accelerator parameter.  A sweep whose
    points differ only in system parameters (the Fig. 5/7 bandwidth grids)
    can therefore map once and re-time per system: the cache memoizes the
    mapped workload and rebinds the ``system`` field per lookup, so derived
    capacity checks (``fits_memory``) still see the live system.

    Hit/miss counters expose the dedup for tests and diagnostics.  The cache
    is bounded LRU (``max_entries`` distinct mapping keys) and thread-safe;
    a mapping is built outside its lock.
    """

    def __init__(self, max_entries: int = 128) -> None:
        require_positive("max_entries", max_entries)
        from collections import OrderedDict

        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple, MappedTraining | MappedInference]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def _lookup(self, key: tuple, build: Callable[[], "MappedTraining | MappedInference"]):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry
        entry = build()
        with self._lock:
            self._entries[key] = entry
            self.misses += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        return entry

    def map_training(
        self,
        model: LLMConfig,
        system: SystemSpec,
        parallel: ParallelConfig,
        batch: int,
        seq_len: int | None = None,
        precision_bytes: float = 2.0,
        tp_overlap: float = 0.0,
    ) -> MappedTraining:
        """Memoized :func:`map_training`, rebound to ``system``."""
        key = (
            "training",
            model,
            parallel,
            batch,
            seq_len,
            precision_bytes,
            tp_overlap,
            system.n_accelerators,
        )
        mapped = self._lookup(
            key,
            lambda: map_training(
                model, system, parallel, batch, seq_len, precision_bytes, tp_overlap
            ),
        )
        if mapped.system is system:
            return mapped
        return dataclasses.replace(mapped, system=system)

    def map_inference(
        self,
        model: LLMConfig,
        system: SystemSpec,
        parallel: ParallelConfig | None = None,
        batch: int = 8,
        input_tokens: int = 200,
        output_tokens: int = 200,
        precision_bytes: float = 2.0,
    ) -> MappedInference:
        """Memoized :func:`map_inference`, rebound to ``system``."""
        key = (
            "inference",
            model,
            parallel,
            batch,
            input_tokens,
            output_tokens,
            precision_bytes,
            system.n_accelerators,
        )
        mapped = self._lookup(
            key,
            lambda: map_inference(
                model,
                system,
                parallel,
                batch,
                input_tokens,
                output_tokens,
                precision_bytes,
            ),
        )
        if mapped.system is system:
            return mapped
        return dataclasses.replace(mapped, system=system)

    # -- introspection -----------------------------------------------------
    @property
    def n_entries(self) -> int:
        """Distinct mappings currently cached."""
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the memo."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def clear(self) -> None:
        """Drop all cached mappings and reset counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0


#: Process-wide default shared by the scenario runner (and thus every sweep
#: point evaluated in this process).
_DEFAULT_MAPPING_CACHE = MappingCache()


def default_mapping_cache() -> MappingCache:
    """The process-wide shared mapping cache."""
    return _DEFAULT_MAPPING_CACHE


__all__ = [
    "OPTIMIZER_BYTES_PER_PARAM",
    "MappedTraining",
    "MappedInference",
    "MappingCache",
    "default_mapping_cache",
    "map_training",
    "map_inference",
]
