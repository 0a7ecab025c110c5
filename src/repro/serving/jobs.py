"""Job engine for cold scenario computes (the ``/jobs`` layer).

Every cold compute the daemon runs is a digest-keyed *job*, so N
concurrent requests for one uncomputed digest share one computation.
At most ``n_workers`` computes run at once; the rest wait in a bounded
FIFO queue, and a full queue raises :class:`QueueFullError` (the
serving layer's ``429`` with ``Retry-After``).  :meth:`JobManager.submit`
queues a job for the worker threads (async ``POST /run``);
:meth:`JobManager.run` (``?wait=1``) joins or runs one and blocks.

Job lifecycle (one digest, one job)::

    submit()/run() ──► queued ──► running ──► done    (result in the store)
                 └───────────────────┘   └──► failed  (structured error kept)

Terminal jobs are retained as their final snapshot (capped,
FIFO-evicted) so ``GET /jobs/<digest>`` can answer "done, result at
/results/<digest>" or "failed, here is why" long after the compute; a
*re*-submission of a failed digest starts a fresh job (failures are not
cached).  Everything the manager reports is a plain-data snapshot taken
under the manager lock — callers never touch live :class:`Job` state.

The worker pool starts lazily and runs daemon threads;
:meth:`JobManager.shutdown` fails every queued job (``shutting-down``)
and joins the workers (a job mid-compute finishes first).  Compute failures are classified by
the spec's *origin*: an inline (client-supplied) spec that blows up
mid-compute is the client's error (``invalid-scenario``); a registry
spec is server-owned, so the same failure is ``compute-failed`` — a
server-side defect, never blamed on the request.  No traceback ever
enters a snapshot.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ConfigError
from repro.scenarios.spec import Scenario
from repro.scenarios.store import StoredResult

#: Job lifecycle states (the ``status`` field of every snapshot).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: Default worker-thread pool size.  Two threads overlap one compute's
#: process fan-out with the next job's warm-up without oversubscribing
#: the GIL (the closed-form evaluation path is pure Python).
DEFAULT_JOB_WORKERS = 2

#: Default bound on *queued* (not yet running) jobs: beyond it,
#: submissions are rejected with :class:`QueueFullError`.
DEFAULT_MAX_QUEUE = 64

#: How many terminal (done/failed) jobs are retained for status queries.
DEFAULT_RETENTION = 512

#: ``Retry-After`` ceiling: even a pathological backlog estimate never
#: tells a client to go away for more than a minute.
MAX_RETRY_AFTER_S = 60


class QueueFullError(Exception):
    """The job queue is at capacity — serve a 429, not another thread.

    ``retry_after_s`` is the manager's backlog estimate (queue depth ×
    recent average compute time / workers), the value the serving layer
    puts in the ``Retry-After`` header.
    """

    def __init__(self, depth: int, max_queue: int, retry_after_s: int):
        super().__init__(
            f"job queue is full ({depth}/{max_queue} queued); retry in "
            f"~{retry_after_s}s"
        )
        self.depth = depth
        self.max_queue = max_queue
        self.retry_after_s = retry_after_s


class JobFailedError(Exception):
    """The job :meth:`JobManager.run` waited on failed; ``error`` is its
    structured failure (``{"error": slug, "detail": text}``)."""

    def __init__(self, error: dict[str, str]):
        super().__init__(error["detail"])
        self.error = error


#: The failure of a job still queued at shutdown.
SHUTTING_DOWN = {"error": "shutting-down", "detail": "the job engine stopped"}


@dataclass(slots=True)
class Job:
    """One digest's computation, from submission to terminal state.

    Mutable state is only ever touched under the manager lock; external
    consumers get plain-dict snapshots.  ``done_event`` fires on either
    terminal state (:meth:`JobManager.wait` blocks on it).
    """

    digest: str
    scenario: Scenario
    #: ``"registry"`` (server-owned spec) or ``"inline"`` (client-sent) —
    #: decides whose fault a mid-compute ConfigError is.
    origin: str
    state: str = QUEUED
    created_unix: float = field(default_factory=time.time)
    submitted_monotonic: float = field(default_factory=time.monotonic)
    started_monotonic: float | None = None
    queue_wait_s: float | None = None
    wall_time_s: float | None = None
    #: Structured failure ({"error": slug, "detail": text}); never a
    #: traceback.
    error: dict[str, str] | None = None
    #: The stored entry's provenance stamp (plain dict), once done.
    provenance: dict[str, Any] | None = None
    #: Whether the compute turned out warm (a store race won elsewhere).
    from_cache: bool = False
    #: How many duplicate submissions coalesced onto this job.
    coalesced: int = 0
    #: The finished result, for the :meth:`JobManager.run` callers.
    result: StoredResult | None = None
    done_event: threading.Event = field(default_factory=threading.Event)


@dataclass
class JobCounters:
    """Process-lifetime job traffic (the ``/stats`` ``jobs`` block)."""

    submitted: int = 0
    coalesced: int = 0
    rejected: int = 0
    done: int = 0
    failed: int = 0


class JobManager:
    """Bounded, digest-coalescing job engine.

    Parameters
    ----------
    compute:
        ``scenario -> StoredResult`` (the serving layer passes
        ``run_cached`` over its store; tests inject slow/failing ones).
    n_workers:
        How many computes may run at once, worker threads and :meth:`run`
        callers together; also the worker-thread pool size.
    max_queue:
        Bound on queued jobs; beyond it :meth:`submit` and :meth:`run`
        raise :class:`QueueFullError`.
    retention:
        How many terminal jobs stay queryable before FIFO eviction.
    on_terminal:
        Optional callback invoked (outside the lock, before waiters wake)
        once per job reaching a terminal state — the serving layer bumps
        its ``computed``/``served_from_store`` counters here.
    """

    def __init__(
        self,
        compute: "Callable[[Scenario], StoredResult]",
        *,
        n_workers: int = DEFAULT_JOB_WORKERS,
        max_queue: int = DEFAULT_MAX_QUEUE,
        retention: int = DEFAULT_RETENTION,
        on_terminal: "Callable[[Job], None] | None" = None,
    ) -> None:
        if n_workers < 1:
            raise ConfigError(f"n_workers must be >= 1, got {n_workers}")
        if max_queue < 1:
            raise ConfigError(f"max_queue must be >= 1, got {max_queue}")
        if retention < 0:
            raise ConfigError(f"retention must be >= 0, got {retention}")
        self.n_workers = n_workers
        self.max_queue = max_queue
        self.retention = retention
        self._compute = compute
        self._on_terminal = on_terminal
        self.counters = JobCounters()
        self._cond = threading.Condition()
        self._queue: deque[str] = deque()  # queued digests, FIFO
        self._jobs: dict[str, Job] = {}  # in-flight: queued + running
        #: Final snapshots of terminal jobs, oldest first.
        self._terminal: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._threads: list[threading.Thread] = []
        self._running = 0  # computes holding a slot (workers + run())
        #: EMA of completed compute wall times, feeding Retry-After.
        self._avg_wall_s: float | None = None
        self._shutdown = False

    # -- submission ---------------------------------------------------------
    def submit(
        self, scenario: Scenario, digest: str, *, origin: str = "registry"
    ) -> dict[str, Any]:
        """Enqueue one digest (or coalesce onto its in-flight job).

        Returns a snapshot of the job serving this digest; the
        ``"coalesced_onto_existing"`` key says whether this submission
        created the job or joined one already in flight.  Raises
        :class:`QueueFullError` when the queue is at capacity.
        """
        return self.submit_many([(scenario, digest, origin)])[digest]

    def submit_many(
        self, specs: "list[tuple[Scenario, str, str]]"
    ) -> dict[str, dict[str, Any]]:
        """Enqueue a batch of ``(scenario, digest, origin)`` atomically.

        Capacity is checked for the whole batch up front: either every
        genuinely-new digest is enqueued or none is (a partial batch
        admission would leave the client guessing which half ran).
        Duplicate digests within the batch, and digests already in
        flight, coalesce exactly like single submissions.
        """
        with self._cond:
            self._admit_locked({digest for _, digest, _ in specs})
            snapshots: dict[str, dict[str, Any]] = {}
            for scenario, digest, origin in specs:
                job, coalesced = self._enqueue_locked(scenario, digest, origin)
                snapshots[digest] = self._snapshot_locked(
                    job, coalesced_onto_existing=coalesced
                )
            return snapshots

    def run(
        self, scenario: Scenario, digest: str, *, origin: str = "registry"
    ) -> StoredResult:
        """Join the digest's in-flight job, or run a new one on this thread
        when a compute slot is free (else queue it), and return its result
        once terminal.  Raises :class:`QueueFullError` on a full queue and
        :class:`JobFailedError` when the job fails or shutdown abandons it.
        """
        with self._cond:
            if self._shutdown:
                raise JobFailedError(dict(SHUTTING_DOWN))
            runs_here = (
                digest not in self._jobs
                and not self._queue
                and self._running < self.n_workers
            )
            if runs_here:
                job = self._new_job_locked(scenario, digest, origin)
                self._start_locked(job)
            else:
                self._admit_locked({digest})
                job, _ = self._enqueue_locked(scenario, digest, origin)
        if runs_here:
            self._execute(job)
        job.done_event.wait()
        if job.error is not None:
            raise JobFailedError(job.error)
        return job.result

    def _admit_locked(self, digests: "set[str]") -> None:
        """Raise :class:`QueueFullError` unless every digest not already
        in flight fits the queue."""
        needed = len(digests - self._jobs.keys())
        if len(self._queue) + needed > self.max_queue:
            self.counters.rejected += 1
            raise QueueFullError(
                len(self._queue), self.max_queue, self._retry_after_locked()
            )

    def _enqueue_locked(
        self, scenario: Scenario, digest: str, origin: str
    ) -> tuple[Job, bool]:
        """``(job, coalesced)``: the digest's in-flight job, or a new one."""
        job = self._jobs.get(digest)
        if job is not None:
            job.coalesced += 1
            self.counters.coalesced += 1
            return job, True
        job = self._new_job_locked(scenario, digest, origin)
        self._queue.append(digest)
        self._ensure_workers_locked()
        self._cond.notify()
        return job, False

    def _new_job_locked(
        self, scenario: Scenario, digest: str, origin: str
    ) -> Job:
        # A retained terminal job for this digest is superseded: a
        # resubmission after failure (or after store eviction) gets a
        # fresh run, and status queries must see the new job.
        self._terminal.pop(digest, None)
        job = Job(digest=digest, scenario=scenario, origin=origin)
        self._jobs[digest] = job
        self.counters.submitted += 1
        return job

    # -- queries ------------------------------------------------------------
    def describe(self, digest: str) -> dict[str, Any] | None:
        """Snapshot of the job serving ``digest`` (in-flight or retained
        terminal), or ``None``."""
        with self._cond:
            job = self._jobs.get(digest)
            if job is not None:
                return self._snapshot_locked(job)
            snapshot = self._terminal.get(digest)
            return dict(snapshot) if snapshot is not None else None

    def wait(self, digest: str, timeout: float | None = None) -> bool:
        """Block until ``digest``'s job reaches a terminal state.

        ``True`` on completion (either way), ``False`` on timeout or an
        unknown digest.
        """
        with self._cond:
            job = self._jobs.get(digest)
            if job is None:
                return digest in self._terminal
        return job.done_event.wait(timeout)

    def list_jobs(self, max_terminal: int = 32) -> list[dict[str, Any]]:
        """Snapshots of every in-flight job plus the most recent terminal
        ones (newest first, capped)."""
        with self._cond:
            live = [
                self._snapshot_locked(self._jobs[digest])
                for digest in self._queue
            ]
            live += [
                self._snapshot_locked(job)
                for job in self._jobs.values()
                if job.state == RUNNING
            ]
            recent = [
                dict(snapshot)
                for snapshot in list(self._terminal.values())[-max_terminal:]
            ][::-1]
        return live + recent

    def stats(self) -> dict[str, Any]:
        """The ``/stats`` ``jobs`` block: config, per-state gauges and
        lifetime counters."""
        with self._cond:
            terminal_done = sum(
                1 for snap in self._terminal.values() if snap["status"] == DONE
            )
            return {
                "workers": self.n_workers,
                "max_queue": self.max_queue,
                "queued": len(self._queue),
                "running": self._running,
                "retained_done": terminal_done,
                "retained_failed": len(self._terminal) - terminal_done,
                "submitted": self.counters.submitted,
                "coalesced": self.counters.coalesced,
                "rejected": self.counters.rejected,
                "done": self.counters.done,
                "failed": self.counters.failed,
                "avg_wall_s": self._avg_wall_s,
                "retry_after_s": self._retry_after_locked(),
            }

    def _retry_after_locked(self) -> int:
        # Depth × recent average wall time / workers, floored at 1 s; an
        # empty history (no completions yet) assumes 1 s per job.
        per_job = self._avg_wall_s if self._avg_wall_s else 1.0
        estimate = (len(self._queue) + 1) * per_job / self.n_workers
        return max(1, min(MAX_RETRY_AFTER_S, math.ceil(estimate)))

    def _snapshot_locked(
        self, job: Job, *, coalesced_onto_existing: bool | None = None
    ) -> dict[str, Any]:
        now = time.monotonic()
        # Under the lock a queued job is always in the queue.
        queued = job.state == QUEUED
        position = self._queue.index(job.digest) + 1 if queued else None
        snapshot: dict[str, Any] = {
            "digest": job.digest,
            "name": job.scenario.name,
            "origin": job.origin,
            "status": job.state,
            "queue_position": position,
            "created_unix": job.created_unix,
            "queue_wait_s": (
                job.queue_wait_s
                if job.queue_wait_s is not None
                else now - job.submitted_monotonic
            ),
            "wall_time_s": job.wall_time_s,
            "coalesced": job.coalesced,
            "error": dict(job.error) if job.error else None,
            "provenance": job.provenance,
            "from_cache": job.from_cache,
        }
        if job.state == RUNNING and job.started_monotonic is not None:
            snapshot["running_s"] = now - job.started_monotonic
        if job.state == DONE:
            snapshot["result_url"] = f"/results/{job.digest}"
        if coalesced_onto_existing is not None:
            snapshot["coalesced_onto_existing"] = coalesced_onto_existing
        return snapshot

    # -- worker pool --------------------------------------------------------
    def _ensure_workers_locked(self) -> None:
        while len(self._threads) < self.n_workers:
            thread = threading.Thread(
                target=self._worker,
                name=f"repro-job-worker-{len(self._threads)}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def _worker(self) -> None:
        while True:
            with self._cond:
                while not self._shutdown and not (
                    self._queue and self._running < self.n_workers
                ):
                    self._cond.wait()
                if self._shutdown:
                    return
                job = self._jobs[self._queue.popleft()]
                self._start_locked(job)
            self._execute(job)
            del job  # the result lives only as long as its waiters

    def _start_locked(self, job: Job) -> None:
        now = time.monotonic()
        job.state = RUNNING
        job.started_monotonic = now
        job.queue_wait_s = now - job.submitted_monotonic
        self._running += 1

    def _execute(self, job: Job) -> None:
        """The job body, on whichever thread holds the job's slot."""
        error: dict[str, str] | None = None
        result: StoredResult | None = None
        try:
            result = self._compute(job.scenario)
        except ConfigError as exc:
            # Whose spec was it?  An inline spec that only blows up once
            # computed is still the client's bad request; a registry spec
            # failing is a server-side defect.
            slug = (
                "invalid-scenario" if job.origin == "inline" else "compute-failed"
            )
            error = {"error": slug, "detail": str(exc)}
        except Exception as exc:  # noqa: BLE001 — no-traceback contract
            error = {
                "error": "internal",
                "detail": f"unexpected {type(exc).__name__}",
            }
        with self._cond:
            self._finish_locked(job, result, error)
        self._announce(job)

    def _finish_locked(
        self,
        job: Job,
        result: StoredResult | None,
        error: dict[str, str] | None,
    ) -> None:
        if job.state == RUNNING:
            self._running -= 1
            self._cond.notify()  # a queued job may take the freed slot
        if job.started_monotonic is not None:
            job.wall_time_s = time.monotonic() - job.started_monotonic
        if error is None and result is not None:
            job.state = DONE
            job.from_cache = result.from_cache
            job.result = result
            job.provenance = (
                result.provenance.to_dict() if result.provenance else None
            )
            self.counters.done += 1
            if job.wall_time_s is not None and not result.from_cache:
                # EMA over genuinely-computed jobs only; warm races would
                # drag the backlog estimate toward zero.
                self._avg_wall_s = (
                    job.wall_time_s
                    if self._avg_wall_s is None
                    else 0.7 * self._avg_wall_s + 0.3 * job.wall_time_s
                )
        else:
            job.state = FAILED
            job.error = error or {
                "error": "internal",
                "detail": "compute returned nothing",
            }
            self.counters.failed += 1
        self._jobs.pop(job.digest, None)
        self._terminal[job.digest] = self._snapshot_locked(job)
        while len(self._terminal) > self.retention:
            self._terminal.popitem(last=False)

    def _announce(self, job: Job) -> None:
        """Stats hook first, so counters are current when waiters wake."""
        if self._on_terminal is not None:
            try:
                self._on_terminal(job)
            except Exception:  # noqa: BLE001 — a stats hook must not kill
                pass  # the compute thread
        job.done_event.set()

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the worker pool (idempotent): queued jobs fail with
        ``shutting-down``, waking their waiters; a running job finishes."""
        with self._cond:
            self._shutdown = True
            abandoned = [self._jobs[digest] for digest in self._queue]
            self._queue.clear()
            for job in abandoned:
                self._finish_locked(job, None, dict(SHUTTING_DOWN))
            self._cond.notify_all()
            threads = list(self._threads)
        for job in abandoned:
            self._announce(job)
        for thread in threads:
            thread.join(timeout=timeout)


__all__ = [
    "DEFAULT_JOB_WORKERS",
    "DEFAULT_MAX_QUEUE",
    "DEFAULT_RETENTION",
    "DONE",
    "FAILED",
    "Job",
    "JobCounters",
    "JobFailedError",
    "JobManager",
    "QUEUED",
    "QueueFullError",
    "RUNNING",
    "SHUTTING_DOWN",
]
