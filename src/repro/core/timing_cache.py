"""Memoized kernel timing: the cache behind the op-program engine.

Kernel timings (:func:`repro.core.roofline.time_compute_kernel`,
:func:`repro.core.comm_perf.time_comm_kernel`) are pure functions of
``(kernel, accelerator-or-fabric)`` — both frozen, hashable dataclasses — so
their results can be memoized and shared across pipeline stages, decode
samples and whole sweep points.  Decode trapezoid sampling and fwd/bwd stage
timing then reuse each other's kernel timings: a Fig. 5-style sweep pays for
each unique kernel once per accelerator configuration instead of once per
layer replica per call.

Keying is by *value* (dataclass equality), not identity: two separately
built but identical accelerators share one sub-cache, while any changed
parameter (a swept DRAM bandwidth, a zeroed kernel overhead) hashes to a new
configuration and misses — the invalidation rule sweeps rely on.

The process-wide default cache (:func:`default_timing_cache`) is what
:class:`repro.core.model.Optimus` binds when no explicit cache is given.
:class:`NullTimingCache` disables memoization (every lookup recomputes);
the perf benchmarks use it to reproduce the seed's flat-timing cost.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.arch.system import Accelerator, AnyFabric
from repro.core.comm_perf import CommTiming, time_comm_kernel
from repro.core.roofline import KernelTiming, time_compute_kernel
from repro.errors import require_positive
from repro.workloads.operators import CommKernel, ComputeKernel


class BoundTimings:
    """A cache view bound to one accelerator (and its fabric).

    Resolving the per-configuration dictionaries once at bind time keeps the
    hot path to a single kernel-keyed dict lookup — the accelerator's
    (nested) hash is not recomputed per op.
    """

    __slots__ = ("_cache", "accelerator", "fabric", "_compute", "_comm")

    def __init__(
        self,
        cache: "KernelTimingCache",
        accelerator: Accelerator,
        compute: dict[ComputeKernel, KernelTiming],
        comm: dict[CommKernel, CommTiming],
    ) -> None:
        self._cache = cache
        self.accelerator = accelerator
        self.fabric = accelerator.fabric
        self._compute = compute
        self._comm = comm

    def time_compute(self, kernel: ComputeKernel) -> KernelTiming:
        """Memoized :func:`time_compute_kernel` on the bound accelerator."""
        timing = self._compute.get(kernel)
        if timing is None:
            timing = time_compute_kernel(kernel, self.accelerator)
            self._compute[kernel] = timing
            self._cache.misses += 1
        else:
            self._cache.hits += 1
        return timing

    def time_comm(self, kernel: CommKernel) -> CommTiming:
        """Memoized :func:`time_comm_kernel` on the bound fabric."""
        timing = self._comm.get(kernel)
        if timing is None:
            timing = time_comm_kernel(kernel, self.fabric)
            self._comm[kernel] = timing
            self._cache.misses += 1
        else:
            self._cache.hits += 1
        return timing


class KernelTimingCache:
    """Kernel-timing memo keyed on (kernel identity, configuration identity).

    Compute timings are keyed per :class:`Accelerator`; collective timings
    per fabric (two accelerators that differ only in DRAM parameters share
    their comm sub-cache).  Sub-caches are kept in LRU order and evicted
    beyond ``max_configs`` distinct configurations so unbounded sweeps do
    not grow memory without limit.

    Eviction detaches, it does not invalidate: a :class:`BoundTimings`
    view created before its configuration was evicted keeps memoizing into
    its (now private) sub-dict — results stay correct, but sharing with
    later binds of the same configuration ends and ``n_configs`` /
    ``n_entries`` no longer account for the detached entries.  Size
    ``max_configs`` to the working set of live configurations (one per
    concurrently-live ``Optimus``).  :meth:`bind` is thread-safe.
    """

    def __init__(self, max_configs: int = 64) -> None:
        require_positive("max_configs", max_configs)
        self.max_configs = max_configs
        self._compute: OrderedDict[
            Accelerator, dict[ComputeKernel, KernelTiming]
        ] = OrderedDict()
        self._comm: OrderedDict[
            AnyFabric, dict[CommKernel, CommTiming]
        ] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    # -- binding -----------------------------------------------------------
    def bind(self, accelerator: Accelerator) -> BoundTimings:
        """Bound view for ``accelerator`` (creating sub-caches on demand)."""
        compute = self._sub(self._compute, accelerator)
        comm = self._sub(self._comm, accelerator.fabric)
        return BoundTimings(self, accelerator, compute, comm)

    def _sub(self, table: OrderedDict, key) -> dict:
        with self._lock:
            entry = table.get(key)
            if entry is None:
                entry = table[key] = {}
            else:
                table.move_to_end(key)
            while len(table) > self.max_configs:
                table.popitem(last=False)
            return entry

    # -- direct lookups ----------------------------------------------------
    def time_compute(
        self, kernel: ComputeKernel, accelerator: Accelerator
    ) -> KernelTiming:
        """One-off memoized compute-kernel timing."""
        return self.bind(accelerator).time_compute(kernel)

    # -- introspection -----------------------------------------------------
    @property
    def n_configs(self) -> int:
        """Distinct accelerator configurations currently cached."""
        return len(self._compute)

    @property
    def n_entries(self) -> int:
        """Total memoized timings across all configurations."""
        return sum(len(sub) for sub in self._compute.values()) + sum(
            len(sub) for sub in self._comm.values()
        )

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the memo."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def clear(self) -> None:
        """Drop all memoized timings and reset counters."""
        with self._lock:
            self._compute.clear()
            self._comm.clear()
            self.hits = 0
            self.misses = 0


class NullTimingCache(KernelTimingCache):
    """A cache that never memoizes — every lookup recomputes (seed behavior)."""

    def __init__(self) -> None:
        super().__init__(max_configs=1)

    def bind(self, accelerator: Accelerator) -> BoundTimings:
        return _NullBound(self, accelerator)


class _NullBound(BoundTimings):
    __slots__ = ()

    def __init__(self, cache: NullTimingCache, accelerator: Accelerator) -> None:
        super().__init__(cache, accelerator, {}, {})

    def time_compute(self, kernel: ComputeKernel) -> KernelTiming:
        self._cache.misses += 1
        return time_compute_kernel(kernel, self.accelerator)

    def time_comm(self, kernel: CommKernel) -> CommTiming:
        self._cache.misses += 1
        return time_comm_kernel(kernel, self.fabric)


#: Process-wide default shared by every Optimus instance (and thus every
#: sweep point evaluated in this process).
_DEFAULT_CACHE = KernelTimingCache()


def default_timing_cache() -> KernelTimingCache:
    """The process-wide shared kernel-timing cache."""
    return _DEFAULT_CACHE


__all__ = [
    "BoundTimings",
    "KernelTimingCache",
    "NullTimingCache",
    "default_timing_cache",
]
