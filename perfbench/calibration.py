"""Machine-speed normalization of measured times.

On a shared host the CPU's speed for this process swings by up to ~2.5×
over seconds (other tenants on the same cores), with the process never
waiting: wall time per op moves with the machine, not the program.  So the
client runs a fixed calibration slice — pure-Python JSON, hashing and dict
work, the same kinds of work the daemon does — every
:data:`SAMPLE_EVERY_NS` between ops and set-up steps, and every reported
time is wall time scaled by ``REFERENCE_SLICE_NS / (slice time nearby)``:
the time the interval would have taken with the machine running the slice
at the reference speed.  Raw wall times are kept in the raw run record.

The slice never runs inside a measured op, and time spent in slices is
excluded from every interval.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import statistics
import time

#: Slice time the reported numbers are scaled to: about the slice's median
#: on the 2-vCPU 2.1 GHz Xeon VM the workloads' nominal rates were set on.
REFERENCE_SLICE_NS = 250_000
#: Take a sample when this long has passed since the previous one.
SAMPLE_EVERY_NS = 10_000_000
#: Samples on each side of an instant whose median gives its speed.
SMOOTHING = 2

_DOC = {
    "scenario": {"name": "calibration", "grid": [[i, i * 0.5, f"p{i}"] for i in range(24)]},
    "values": [i / 7 for i in range(48)],
}


def calibration_slice() -> float:
    """A fixed amount of interpreter work."""
    total = 0.0
    for _ in range(2):
        text = json.dumps(_DOC, sort_keys=True)
        doc = json.loads(text)
        total += len(hashlib.sha256(text.encode()).hexdigest())
        for row in doc["scenario"]["grid"]:
            total += row[0] * row[1] + len(row[2])
    return total


class SpeedClock:
    """Calibration samples over a run, and normalized interval lengths."""

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.costs: list[int] = []

    def sample(self) -> None:
        start = time.perf_counter_ns()
        calibration_slice()
        end = time.perf_counter_ns()
        self.starts.append(start)
        self.ends.append(end)
        self.costs.append(end - start)

    def tick(self) -> None:
        """Sample if the previous sample is old enough."""
        if not self.ends or time.perf_counter_ns() - self.ends[-1] >= SAMPLE_EVERY_NS:
            self.sample()

    def _factor(self, gap: int) -> float:
        """Speed in the gap before sample ``gap`` (``len``: after the last)."""
        window = self.costs[max(0, gap - SMOOTHING): gap + SMOOTHING]
        return REFERENCE_SLICE_NS / statistics.median(window)

    def normalized_ns(self, begin: int, end: int) -> float:
        """``end - begin`` minus any slices inside it, each piece scaled by
        the machine speed around it."""
        index = bisect.bisect_left(self.starts, begin)
        total = 0.0
        cursor = begin
        while index < len(self.starts) and self.starts[index] < end:
            total += (self.starts[index] - cursor) * self._factor(index)
            cursor = self.ends[index]
            index += 1
        return total + max(0, end - cursor) * self._factor(index)

    def factor_at(self, instant: int) -> float:
        """Normalized over raw time for an interval starting at ``instant``
        with no slice inside."""
        return self._factor(bisect.bisect_left(self.starts, instant))
