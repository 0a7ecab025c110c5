"""The shared model caches under concurrent use.

The serving daemon runs cold computes on several threads at once, all
through the process-wide :class:`MappingCache` and
:class:`KernelTimingCache`.  A hit's LRU touch (``get`` then
``move_to_end``) used to race eviction on another thread and raise
``KeyError``.  These tests force thread switches on a tiny cache so that
interleaving shows up in every run.
"""

from __future__ import annotations

import sys
import threading
import time

from repro.core.timing_cache import KernelTimingCache
from repro.parallel.mapper import MappingCache

N_THREADS = 4
N_ROUNDS = 3000


class YieldingKey:
    """A cache key whose hash gives up the GIL, like the real dataclass
    keys whose ``__hash__`` runs Python code: every dict operation on it
    is a point where another thread can run."""

    def __init__(self, n: int) -> None:
        self.n = n

    def __hash__(self) -> int:
        time.sleep(0)
        return self.n

    def __eq__(self, other: object) -> bool:
        return isinstance(other, YieldingKey) and other.n == self.n


#: One more key than the capacity, so lookups keep evicting.
KEYS = tuple(YieldingKey(n) for n in range(3))


def hammer(lookup) -> list[Exception]:
    """Run ``lookup(key)`` over :data:`KEYS` from several threads at once,
    with a near-zero switch interval; return what the threads raised."""
    errors: list[Exception] = []
    barrier = threading.Barrier(N_THREADS)

    def worker(offset: int) -> None:
        barrier.wait()
        try:
            for i in range(N_ROUNDS):
                lookup(KEYS[(i + offset) % len(KEYS)])
        except Exception as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), "a lookup thread hung"
    finally:
        sys.setswitchinterval(interval)
    return errors


class TestLRUTouchUnderThreads:
    def test_mapping_cache_lookup_never_raises(self):
        cache = MappingCache(max_entries=2)
        assert hammer(lambda key: cache._lookup(key, lambda: key)) == []
        assert cache.n_entries <= 2
        assert cache.hits + cache.misses == N_THREADS * N_ROUNDS

    def test_timing_cache_sub_never_raises(self):
        cache = KernelTimingCache(max_configs=2)
        assert hammer(lambda key: cache._sub(cache._compute, key)) == []
        assert cache.n_configs <= 2
