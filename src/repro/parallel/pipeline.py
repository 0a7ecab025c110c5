"""Pipeline-parallel schedule model: non-interleaved 1F1B (PipeDream-flush).

The schedule Megatron-LM uses and the paper's "pipeline bubble" term comes
from: each stage performs ``p - s`` warm-up forwards, then alternates one
forward / one backward, then drains.  For uniform stages the total is the
classic ``(m + p - 1)(t_f + t_b)``, i.e. bubble fraction ``(p-1)/(m+p-1)``.

``simulate_1f1b`` evaluates the schedule's dependency graph exactly, so
non-uniform stages (unequal layer counts, embedding and LM-head stages) and
point-to-point latencies are handled without approximation.  The graph's
shape depends only on ``(p, m)``: its nodes are put in dependency order once
per shape (:func:`_schedule`, memoized), and each call is then one pass of
the max-plus recurrence ``end = max(stage_time, ready) + duration`` over
that order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from repro.errors import MappingError, require_non_negative, require_positive


@dataclass(frozen=True)
class PipelineTiming:
    """Result of a pipeline-schedule evaluation."""

    total_time: float
    bubble_time: float
    n_stages: int
    n_microbatches: int
    stage_busy_times: tuple[float, ...]

    @property
    def bubble_fraction(self) -> float:
        """Fraction of the schedule the bottleneck stage idles."""
        if self.total_time == 0:
            return 0.0
        return self.bubble_time / self.total_time


def analytic_1f1b(
    fwd_time: float, bwd_time: float, n_stages: int, n_microbatches: int, p2p_time: float = 0.0
) -> float:
    """Closed-form 1F1B total for uniform stages (used to cross-check the
    simulator): ``(m + p - 1)(t_f + t_b) + 2(p - 1)·δ``."""
    require_non_negative("fwd_time", fwd_time)
    require_non_negative("bwd_time", bwd_time)
    require_positive("n_stages", n_stages)
    require_positive("n_microbatches", n_microbatches)
    require_non_negative("p2p_time", p2p_time)
    return (n_microbatches + n_stages - 1) * (fwd_time + bwd_time) + 2 * (
        n_stages - 1
    ) * p2p_time


@functools.lru_cache(maxsize=32)
def _schedule(p: int, m: int) -> tuple[tuple[int, int, int, int], ...]:
    """The 1F1B graph for ``p`` stages and ``m`` microbatches, in dependency
    order: one ``(stage, duration index, node, dependency)`` per node.

    Stage ``s`` runs ``min(m, p - s)`` warm-up forwards, then alternates one
    backward and one forward, then drains.  Node ``F(s, j)`` is numbered
    ``s·m + j`` and ``B(s, j)`` is ``(p + s)·m + j``; the duration index is
    ``s`` for a forward and ``p + s`` for a backward.  The dependency is the
    node on the neighbouring stage whose end (plus the p2p hand-off) makes
    this one ready — ``F(s-1, j)`` for a forward, ``B(s+1, j)`` for a
    backward — or ``-1`` on the first (forward) or last (backward) stage.
    A backward's own forward needs no edge: it ran earlier on the same
    stage, so the stage clock is already past it.
    """

    def fwd(s: int, j: int) -> tuple[int, int, int, int]:
        return (s, s, s * m + j, (s - 1) * m + j if s > 0 else -1)

    def bwd(s: int, j: int) -> tuple[int, int, int, int]:
        return (s, p + s, (p + s) * m + j, (p + s + 1) * m + j if s < p - 1 else -1)

    sequences = []
    for s in range(p):
        warmup = min(m, p - s)
        seq = [fwd(s, j) for j in range(warmup)]
        for j in range(m):
            seq.append(bwd(s, j))
            if warmup + j < m:
                seq.append(fwd(s, warmup + j))
        sequences.append(seq)

    # Round-robin over the stages, advancing each one while its next node's
    # dependency has resolved.  1F1B is deadlock-free, so every round
    # resolves at least one node.
    done = [False] * (2 * p * m)
    pointer = [0] * p
    order = []
    while len(order) < len(done):
        for s, seq in enumerate(sequences):
            i = pointer[s]
            while i < len(seq) and (seq[i][3] < 0 or done[seq[i][3]]):
                order.append(seq[i])
                done[seq[i][2]] = True
                i += 1
            pointer[s] = i
    return tuple(order)


def simulate_1f1b(
    stage_fwd_times: Sequence[float],
    stage_bwd_times: Sequence[float],
    n_microbatches: int,
    p2p_time: float = 0.0,
) -> PipelineTiming:
    """Exact evaluation of the non-interleaved 1F1B schedule.

    Parameters
    ----------
    stage_fwd_times / stage_bwd_times:
        Per-stage forward/backward time of one microbatch, seconds.
    n_microbatches:
        Microbatches per step (``m``).
    p2p_time:
        Activation/gradient hand-off time between adjacent stages.
    """
    p = len(stage_fwd_times)
    if p == 0 or len(stage_bwd_times) != p:
        raise MappingError("stage time lists must be non-empty and equal length")
    require_positive("n_microbatches", n_microbatches)
    require_non_negative("p2p_time", p2p_time)
    for s in range(p):
        require_non_negative(f"stage_fwd_times[{s}]", stage_fwd_times[s])
        require_non_negative(f"stage_bwd_times[{s}]", stage_bwd_times[s])
    durations = [*stage_fwd_times, *stage_bwd_times]
    m = n_microbatches

    end = [0.0] * (2 * p * m)
    stage_time = [0.0] * p
    for s, d, node, dep in _schedule(p, m):
        start = stage_time[s]
        if dep >= 0:
            ready = end[dep] + p2p_time
            if ready > start:
                start = ready
        end[node] = stage_time[s] = start + durations[d]

    total = max(stage_time)
    busy = tuple(
        m * (stage_fwd_times[s] + stage_bwd_times[s]) for s in range(p)
    )
    bubble = total - max(busy)
    return PipelineTiming(
        total_time=total,
        bubble_time=max(0.0, bubble),
        n_stages=p,
        n_microbatches=m,
        stage_busy_times=busy,
    )


__all__ = ["PipelineTiming", "simulate_1f1b", "analytic_1f1b"]
