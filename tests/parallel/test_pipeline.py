"""1F1B pipeline-schedule tests: simulator vs closed form, bubble laws, and
the one-pass evaluation vs an event-driven oracle."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, MappingError
from repro.parallel.pipeline import PipelineTiming, analytic_1f1b, simulate_1f1b

times = st.floats(min_value=1e-5, max_value=1e-2)


def _event_driven_1f1b(stage_fwd_times, stage_bwd_times, m, p2p_time):
    """Reference 1F1B evaluation: poll every stage until its next node's
    dependencies have resolved.  Returns ``(total, bubble, busy)``."""
    p = len(stage_fwd_times)
    sequences: list[list[tuple[str, int]]] = []
    for s in range(p):
        warmup = min(m, p - s)
        seq: list[tuple[str, int]] = [("F", j) for j in range(warmup)]
        next_fwd = warmup
        for j in range(m):
            seq.append(("B", j))
            if next_fwd < m:
                seq.append(("F", next_fwd))
                next_fwd += 1
        sequences.append(seq)

    fwd_end: list[list[float | None]] = [[None] * m for _ in range(p)]
    bwd_end: list[list[float | None]] = [[None] * m for _ in range(p)]
    stage_time = [0.0] * p
    pointer = [0] * p
    remaining = sum(len(seq) for seq in sequences)

    while remaining:
        progressed = False
        for s in range(p):
            while pointer[s] < len(sequences[s]):
                kind, j = sequences[s][pointer[s]]
                if kind == "F":
                    if s == 0:
                        ready = 0.0
                    else:
                        upstream = fwd_end[s - 1][j]
                        if upstream is None:
                            break
                        ready = upstream + p2p_time
                    start = max(stage_time[s], ready)
                    fwd_end[s][j] = start + stage_fwd_times[s]
                    stage_time[s] = fwd_end[s][j]
                else:
                    own_fwd = fwd_end[s][j]
                    if own_fwd is None:
                        break
                    if s == p - 1:
                        ready = own_fwd
                    else:
                        downstream = bwd_end[s + 1][j]
                        if downstream is None:
                            break
                        ready = max(own_fwd, downstream + p2p_time)
                    start = max(stage_time[s], ready)
                    bwd_end[s][j] = start + stage_bwd_times[s]
                    stage_time[s] = bwd_end[s][j]
                pointer[s] += 1
                remaining -= 1
                progressed = True
        if not progressed:
            raise AssertionError("1F1B schedule deadlocked")

    total = max(stage_time)
    busy = tuple(m * (stage_fwd_times[s] + stage_bwd_times[s]) for s in range(p))
    return total, max(0.0, total - max(busy)), busy


class TestAgainstEventDrivenOracle:
    @given(
        st.integers(min_value=1, max_value=16).flatmap(
            lambda p: st.tuples(
                st.lists(times, min_size=p, max_size=p),
                st.lists(times, min_size=p, max_size=p),
            )
        ),
        st.integers(min_value=1, max_value=300),
        st.floats(min_value=0.0, max_value=1e-3),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_oracle_exactly(self, stage_times, m, p2p):
        fwd, bwd = stage_times
        result = simulate_1f1b(fwd, bwd, m, p2p_time=p2p)
        total, bubble, busy = _event_driven_1f1b(fwd, bwd, m, p2p)
        assert result.total_time == total
        assert result.bubble_time == bubble
        assert result.stage_busy_times == busy

    @pytest.mark.parametrize("p, m", [(8, 2), (16, 1), (4, 4), (16, 300)])
    def test_fixed_shapes_equal_oracle(self, p, m):
        """Including m <= p, where warm-up is cut short."""
        fwd = [1e-3 * (1 + s % 3) for s in range(p)]
        bwd = [2.5e-3 * (1 + s % 2) for s in range(p)]
        result = simulate_1f1b(fwd, bwd, m, p2p_time=3e-5)
        total, bubble, busy = _event_driven_1f1b(fwd, bwd, m, 3e-5)
        assert (result.total_time, result.bubble_time) == (total, bubble)
        assert result.stage_busy_times == busy


class TestAgainstClosedForm:
    @given(times, times, st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=64))
    @settings(max_examples=40, deadline=None)
    def test_uniform_stages_match_formula(self, f, b, p, m):
        result = simulate_1f1b([f] * p, [b] * p, m, p2p_time=0.0)
        assert result.total_time == pytest.approx(
            analytic_1f1b(f, b, p, m, 0.0), rel=1e-9
        )

    def test_single_stage_no_bubble(self):
        result = simulate_1f1b([1e-3], [2e-3], 16)
        assert result.total_time == pytest.approx(16 * 3e-3)
        assert result.bubble_time == pytest.approx(0.0, abs=1e-12)

    def test_paper_bubble_fraction(self):
        # Bubble fraction = (p-1)/(m+p-1) for uniform 1F1B.
        p, m = 8, 64
        result = simulate_1f1b([1e-3] * p, [2e-3] * p, m)
        assert result.bubble_fraction == pytest.approx((p - 1) / (m + p - 1))


class TestProperties:
    @given(times, times, st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=32))
    @settings(max_examples=30, deadline=None)
    def test_total_at_least_busy(self, f, b, p, m):
        result = simulate_1f1b([f] * p, [b] * p, m)
        assert result.total_time >= max(result.stage_busy_times) - 1e-15

    @given(st.integers(min_value=2, max_value=8))
    @settings(max_examples=10, deadline=None)
    def test_more_microbatches_amortize_bubble(self, p):
        few = simulate_1f1b([1e-3] * p, [2e-3] * p, 4)
        many = simulate_1f1b([1e-3] * p, [2e-3] * p, 64)
        assert many.bubble_fraction < few.bubble_fraction

    def test_bottleneck_stage_dominates(self):
        slow = [1e-3, 5e-3, 1e-3, 1e-3]
        result = simulate_1f1b(slow, [t * 2 for t in slow], 32)
        # Total approaches m x bottleneck (fwd+bwd) as m grows.
        assert result.total_time >= 32 * (5e-3 + 10e-3)

    def test_p2p_adds_latency(self):
        without = simulate_1f1b([1e-3] * 4, [2e-3] * 4, 8, p2p_time=0.0)
        with_p2p = simulate_1f1b([1e-3] * 4, [2e-3] * 4, 8, p2p_time=1e-4)
        assert with_p2p.total_time > without.total_time

    def test_non_uniform_stages_supported(self):
        # Uneven 60-layer split: stage times differ; simulator must not
        # deadlock and must respect dependencies.
        fwd = [8e-4, 8e-4, 7e-4, 7e-4]
        bwd = [1.6e-3, 1.6e-3, 1.4e-3, 1.4e-3]
        result = simulate_1f1b(fwd, bwd, 16)
        assert result.total_time > 16 * (8e-4 + 1.6e-3)

    def test_m_less_than_p(self):
        result = simulate_1f1b([1e-3] * 8, [2e-3] * 8, 2)
        assert result.total_time > 0
        assert result.n_microbatches == 2


class TestValidation:
    def test_empty_stages_rejected(self):
        with pytest.raises(MappingError):
            simulate_1f1b([], [], 4)

    def test_mismatched_lists_rejected(self):
        with pytest.raises(MappingError):
            simulate_1f1b([1e-3], [1e-3, 2e-3], 4)

    def test_nan_stage_time_rejected(self):
        with pytest.raises(ConfigError):
            simulate_1f1b([math.nan, 1.0], [1.0, 1.0], 4)

    def test_negative_stage_time_rejected(self):
        with pytest.raises(ConfigError):
            simulate_1f1b([-1.0, 1.0], [1.0, 1.0], 4)
        with pytest.raises(ConfigError):
            simulate_1f1b([1.0, 1.0], [1.0, -1.0], 4)

    def test_nan_p2p_time_rejected(self):
        with pytest.raises(ConfigError):
            simulate_1f1b([1.0, 1.0], [1.0, 1.0], 4, p2p_time=math.nan)

    def test_analytic_rejects_negative_times(self):
        with pytest.raises(ConfigError):
            analytic_1f1b(1, 1, 4, 4, -5)
        with pytest.raises(ConfigError):
            analytic_1f1b(-1, 1, 4, 4)
        with pytest.raises(ConfigError):
            analytic_1f1b(1, math.nan, 4, 4)

    def test_timing_dataclass(self):
        result = simulate_1f1b([1e-3] * 2, [2e-3] * 2, 4)
        assert isinstance(result, PipelineTiming)
        assert result.n_stages == 2
