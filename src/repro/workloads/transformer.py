"""Per-layer kernel builders for dense and MoE transformer blocks.

Builds the exact kernel sequence of a Megatron-style tensor-parallel
transformer layer — the decomposition the paper's task graphs use:

* column-parallel QKV projection, head-parallel attention (score GEMM,
  softmax, context GEMM), row-parallel output projection + **all-reduce**;
* column-parallel MLP up / row-parallel MLP down + **all-reduce**
  (or router + all-to-all + expert GEMMs for MoE blocks);
* layer norms, residual adds and activations as explicit memory-bound
  kernels (the paper's "remaining memory-bound operations ... softmax,
  layer-norm etc.").

All shapes are per *device*: tensor-parallel sharding divides weights and
attention heads by ``tp``.  Backward kernels are derived from the forward
list (dgrad + wgrad per GEMM, ~2× bytes for element-wise ops).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError, require_positive
from repro.workloads.llm import LLMConfig
from repro.workloads.operators import (
    CommKernel,
    ComputeKernel,
    KernelKind,
    Op,
    Phase,
    all_reduce,
    all_to_all,
    elementwise,
    embedding_lookup,
    gemm,
    layernorm,
    softmax,
)


@dataclass(frozen=True)
class LayerShape:
    """Runtime shape of one layer invocation (per pipeline microbatch).

    Attributes
    ----------
    n_tokens:
        Query tokens processed on this device group (= batch_seqs × seq_q).
    batch_seqs:
        Number of sequences.
    kv_len:
        Key/value context length each query attends to.
    tp:
        Tensor-parallel degree.
    bytes_per_element:
        Working precision (2 for bf16).
    tp_overlap:
        Fraction of tensor-parallel all-reduce hidden under compute.
    fuse_elementwise:
        Fuse activation functions, residual adds and bias epilogues into the
        producing GEMMs (standard practice; their traffic rides the GEMM
        output).  Softmax and layer norms stay explicit — they are the
        paper's "remaining memory-bound operations".
    """

    n_tokens: int
    batch_seqs: int
    kv_len: int
    tp: int = 1
    bytes_per_element: float = 2.0
    tp_overlap: float = 0.0
    fuse_elementwise: bool = True

    def __post_init__(self) -> None:
        require_positive("n_tokens", self.n_tokens)
        require_positive("batch_seqs", self.batch_seqs)
        require_positive("kv_len", self.kv_len)
        require_positive("tp", self.tp)
        require_positive("bytes_per_element", self.bytes_per_element)
        if self.n_tokens % self.batch_seqs:
            raise ConfigError(
                f"n_tokens {self.n_tokens} not divisible by "
                f"batch_seqs {self.batch_seqs}"
            )

    @property
    def seq_q(self) -> int:
        """Query tokens per sequence."""
        return self.n_tokens // self.batch_seqs


def attention_kv_ops(
    cfg: LLMConfig, shape: LayerShape, phase: Phase = Phase.FORWARD
) -> list[Op]:
    """The attention kernels that read ``shape.kv_len`` (per device).

    Score GEMM, softmax and context GEMM are the only kernels of a layer
    whose size follows the key/value context, so they are the only ones a
    growing KV cache changes from one decode step to the next.
    """
    if cfg.n_heads % shape.tp:
        raise ConfigError(
            f"{cfg.name}: {cfg.n_heads} heads not divisible by tp={shape.tp}"
        )
    b = shape.bytes_per_element
    heads = shape.batch_seqs * (cfg.n_heads // shape.tp)
    d = cfg.head_dim
    return [
        # Score GEMM: one (seq_q × kv_len) product per local head per sequence.
        gemm(
            "attn_score",
            shape.seq_q,
            shape.kv_len,
            d,
            b,
            batch=heads,
            phase=phase,
            kind=KernelKind.ATTN_SCORE,
            weight_operand=False,
        ),
        softmax("attn_softmax", heads * shape.seq_q * shape.kv_len, b, phase),
        # Context GEMM: probabilities × V.
        gemm(
            "attn_context",
            shape.seq_q,
            d,
            shape.kv_len,
            b,
            batch=heads,
            phase=phase,
            kind=KernelKind.ATTN_CONTEXT,
            weight_operand=False,
        ),
    ]


def _attention_ops(
    cfg: LLMConfig, shape: LayerShape, phase: Phase
) -> list[Op]:
    """Attention block kernels for one layer (per device)."""
    b = shape.bytes_per_element
    m = shape.n_tokens
    ops: list[Op] = []

    ops.append(layernorm("ln_attn", m * cfg.hidden, b, phase))
    # Column-parallel fused QKV projection.
    qkv_cols = (cfg.hidden + 2 * cfg.kv_dim) // shape.tp
    ops.append(gemm("qkv_proj", m, qkv_cols, cfg.hidden, b, phase=phase))
    ops.extend(attention_kv_ops(cfg, shape, phase))
    # Row-parallel output projection, then the Megatron all-reduce.
    ops.append(gemm("attn_out_proj", m, cfg.hidden, cfg.hidden // shape.tp, b, phase=phase))
    if shape.tp > 1:
        ops.append(
            all_reduce(
                "attn_allreduce",
                m * cfg.hidden * b,
                shape.tp,
                phase,
                overlap_fraction=shape.tp_overlap,
            )
        )
    if not shape.fuse_elementwise:
        ops.append(elementwise("attn_residual", m * cfg.hidden, 1.0, 2, b, phase))
    return ops


def _dense_mlp_ops(cfg: LLMConfig, shape: LayerShape, phase: Phase) -> list[Op]:
    """Dense (non-MoE) MLP kernels for one layer (per device)."""
    b = shape.bytes_per_element
    m = shape.n_tokens
    ffn_local = cfg.ffn_hidden // shape.tp
    ops: list[Op] = []
    ops.append(layernorm("ln_mlp", m * cfg.hidden, b, phase))
    if cfg.ffn_multiplier == 3:
        ops.append(gemm("mlp_gate", m, ffn_local, cfg.hidden, b, phase=phase))
        ops.append(gemm("mlp_up", m, ffn_local, cfg.hidden, b, phase=phase))
        if not shape.fuse_elementwise:
            ops.append(elementwise("mlp_swiglu", m * ffn_local, 4.0, 2, b, phase))
    else:
        ops.append(gemm("mlp_up", m, ffn_local, cfg.hidden, b, phase=phase))
        if not shape.fuse_elementwise:
            ops.append(elementwise("mlp_gelu", m * ffn_local, 8.0, 1, b, phase))
    ops.append(gemm("mlp_down", m, cfg.hidden, ffn_local, b, phase=phase))
    if shape.tp > 1:
        ops.append(
            all_reduce(
                "mlp_allreduce",
                m * cfg.hidden * b,
                shape.tp,
                phase,
                overlap_fraction=shape.tp_overlap,
            )
        )
    if not shape.fuse_elementwise:
        ops.append(elementwise("mlp_residual", m * cfg.hidden, 1.0, 2, b, phase))
    return ops


def _moe_mlp_ops(cfg: LLMConfig, shape: LayerShape, phase: Phase) -> list[Op]:
    """Mixture-of-experts MLP kernels for one layer (per device).

    Experts are sharded across the tensor-parallel group (expert
    parallelism): tokens are dispatched to their top-k experts with an
    all-to-all, processed by the local experts, and combined with a second
    all-to-all.  Only ``active_experts`` of ``n_experts`` do work per token —
    the paper's reason the MoE model communicates relatively less.
    """
    moe = cfg.moe
    assert moe is not None
    b = shape.bytes_per_element
    m = shape.n_tokens
    ops: list[Op] = []
    ops.append(layernorm("ln_mlp", m * cfg.hidden, b, phase))
    ops.append(
        gemm(
            "moe_router",
            m,
            moe.n_experts,
            cfg.hidden,
            b,
            phase=phase,
            kind=KernelKind.ROUTER,
        )
    )
    # Dispatch: each device redistributes its local tokens × k activations.
    dispatch_bytes = m * moe.active_experts * cfg.hidden * b / shape.tp
    if shape.tp > 1:
        ops.append(all_to_all("moe_dispatch", dispatch_bytes, shape.tp, phase))
    # Expert GEMMs.  Weight traffic follows the *touched* experts: each token
    # activates ``active_experts`` of ``n_experts``, so at small batch only a
    # subset of expert matrices stream from memory, while at training batch
    # sizes effectively all of them do.
    expert_tokens = max(1, round(m * moe.active_experts / shape.tp))
    touched = expected_touched_experts(moe.n_experts, moe.active_experts, m)
    per_matrix_weights = (
        touched * cfg.hidden * moe.expert_ffn * b / shape.tp
    )

    def expert_gemm(name: str, rows: int, cols: int, inner: int) -> ComputeKernel:
        return ComputeKernel(
            name=name,
            kind=KernelKind.GEMM,
            flops=2.0 * rows * cols * inner,
            bytes_read=rows * inner * b + per_matrix_weights,
            bytes_written=rows * cols * b,
            weight_bytes=per_matrix_weights,
            phase=phase,
        )

    ops.append(expert_gemm("moe_expert_up", expert_tokens, moe.expert_ffn, cfg.hidden))
    if cfg.ffn_multiplier == 3:
        ops.append(expert_gemm("moe_expert_gate", expert_tokens, moe.expert_ffn, cfg.hidden))
        if not shape.fuse_elementwise:
            ops.append(elementwise("moe_swiglu", expert_tokens * moe.expert_ffn, 4.0, 2, b, phase))
    elif not shape.fuse_elementwise:
        ops.append(elementwise("moe_gelu", expert_tokens * moe.expert_ffn, 8.0, 1, b, phase))
    ops.append(expert_gemm("moe_expert_down", expert_tokens, cfg.hidden, moe.expert_ffn))
    if shape.tp > 1:
        ops.append(all_to_all("moe_combine", dispatch_bytes, shape.tp, phase))
    ops.append(elementwise("moe_weighted_sum", m * cfg.hidden, 2.0 * moe.active_experts, moe.active_experts, b, phase))
    if not shape.fuse_elementwise:
        ops.append(elementwise("mlp_residual", m * cfg.hidden, 1.0, 2, b, phase))
    return ops


def expected_touched_experts(n_experts: int, active: int, n_tokens: int) -> float:
    """Expected number of distinct experts activated by ``n_tokens`` tokens.

    Each token picks ``active`` distinct experts uniformly; an expert stays
    cold with probability ``((E - k)/E)^n``.  At inference batch sizes a
    subset streams; at training batch sizes the expression saturates at
    ``n_experts``.
    """
    require_positive("n_experts", n_experts)
    require_positive("active", active)
    require_positive("n_tokens", n_tokens)
    cold = ((n_experts - active) / n_experts) ** n_tokens
    return n_experts * (1.0 - cold)


def layer_forward_ops(cfg: LLMConfig, shape: LayerShape, phase: Phase = Phase.FORWARD) -> list[Op]:
    """All kernels of one transformer layer's forward pass (per device)."""
    ops = _attention_ops(cfg, shape, phase)
    if cfg.is_moe:
        ops.extend(_moe_mlp_ops(cfg, shape, phase))
    else:
        ops.extend(_dense_mlp_ops(cfg, shape, phase))
    return ops


def kv_invariant_layer_ops(
    cfg: LLMConfig, shape: LayerShape, phase: Phase = Phase.FORWARD
) -> list[Op]:
    """:func:`layer_forward_ops` without :func:`attention_kv_ops`: the
    layer's kernels that do not depend on ``shape.kv_len``, in layer order."""
    kv_ops = attention_kv_ops(cfg, shape, phase)
    return [op for op in layer_forward_ops(cfg, shape, phase) if op not in kv_ops]


def backward_ops(forward: list[Op]) -> list[Op]:
    """Derive backward-pass kernels from a forward kernel list.

    * each GEMM spawns a data-grad GEMM and a weight-grad GEMM of equal
      FLOPs (bytes likewise — activations and gradients stream once each);
    * element-wise/softmax/norm kernels re-stream their data plus gradients
      (~1.5× forward bytes);
    * all-reduces repeat on the gradient path (Megatron's backward pair);
    * embedding lookups become scatter-adds of the same volume.
    """
    ops: list[Op] = []
    for op in forward:
        if isinstance(op, CommKernel):
            ops.append(
                CommKernel(
                    name=f"{op.name}_bwd",
                    pattern=op.pattern,
                    n_bytes=op.n_bytes,
                    participants=op.participants,
                    phase=Phase.BACKWARD,
                    overlap_fraction=op.overlap_fraction,
                )
            )
            continue
        if op.is_gemm or op.kind is KernelKind.ROUTER:
            for suffix in ("dgrad", "wgrad"):
                ops.append(
                    ComputeKernel(
                        name=f"{op.name}_{suffix}",
                        kind=op.kind,
                        flops=op.flops,
                        bytes_read=op.bytes_read,
                        bytes_written=op.bytes_written,
                        working_set_bytes=op.working_set_bytes,
                        weight_bytes=op.weight_bytes,
                        phase=Phase.BACKWARD,
                    )
                )
        else:
            ops.append(
                ComputeKernel(
                    name=f"{op.name}_bwd",
                    kind=op.kind,
                    flops=2.0 * op.flops,
                    bytes_read=1.5 * op.bytes_read,
                    bytes_written=1.5 * op.bytes_written,
                    working_set_bytes=1.5 * op.working_set_bytes,
                    phase=Phase.BACKWARD,
                )
            )
    return ops


def embedding_ops(
    cfg: LLMConfig, n_tokens: int, bytes_per_element: float = 2.0, phase: Phase = Phase.FORWARD
) -> list[Op]:
    """Input-embedding kernels (first pipeline stage)."""
    return [embedding_lookup("tok_embedding", n_tokens, cfg.hidden, bytes_per_element, phase)]


def lm_head_ops(
    cfg: LLMConfig,
    n_tokens: int,
    tp: int,
    bytes_per_element: float = 2.0,
    phase: Phase = Phase.FORWARD,
) -> list[Op]:
    """Final-norm + vocabulary projection (last pipeline stage)."""
    ops: list[Op] = [layernorm("ln_final", n_tokens * cfg.hidden, bytes_per_element, phase)]
    ops.append(
        gemm(
            "lm_head",
            n_tokens,
            max(1, cfg.vocab_size // tp),
            cfg.hidden,
            bytes_per_element,
            phase=phase,
        )
    )
    if tp > 1:
        # Vocab-parallel cross-entropy needs only a small scalar exchange.
        ops.append(all_reduce("lm_head_allreduce", n_tokens * 4.0, tp, phase))
    return ops


def total_compute_flops(ops: list[Op]) -> float:
    """Sum of FLOPs over compute kernels (collectives excluded)."""
    return sum(op.flops for op in ops if isinstance(op, ComputeKernel))


__all__ = [
    "LayerShape",
    "attention_kv_ops",
    "kv_invariant_layer_ops",
    "layer_forward_ops",
    "backward_ops",
    "embedding_ops",
    "lm_head_ops",
    "total_compute_flops",
]
