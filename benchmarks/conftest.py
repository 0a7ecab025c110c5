"""Shared fixtures and collection hooks for the benchmark suite.

Every figure benchmark regenerates one paper artifact (table or figure),
asserts the paper's qualitative claims on the result, and reports the
regenerated rows through ``--benchmark-only -s``.

``benchmarks/perf/`` holds the *performance-trajectory* benchmarks: fast,
assertion-bearing speed checks.  :func:`pytest_collect_file` below wires
every ``bench_*.py`` under ``benchmarks/`` — the paper-claim benchmarks and
the perf benchmarks alike — into the default pytest run, so the paper's
qualitative claims are checked on every run.
"""

from __future__ import annotations

import pytest


def pytest_collect_file(file_path, parent):
    """Collect every ``benchmarks/**/bench_*.py`` in the default test run."""
    if file_path.suffix == ".py" and file_path.name.startswith("bench_"):
        return pytest.Module.from_parent(parent, path=file_path)


@pytest.fixture
def run_once(benchmark):
    """Run the benched callable exactly once (figure sweeps are seconds-long;
    statistical repetition adds nothing to an analytical model)."""

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(
            func, args=args, kwargs=kwargs, rounds=1, iterations=1
        )

    return runner
