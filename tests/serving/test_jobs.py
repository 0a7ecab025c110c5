"""Unit tests for the async job engine (:mod:`repro.serving.jobs`).

The manager is exercised with injected compute callables (gated by
events, or failing on demand) so every lifecycle edge — coalescing,
queue bounds, failure classification, terminal retention — is pinned
deterministically, without real scenario computes or sockets.
"""

from __future__ import annotations

import gc
import threading
import weakref

import pytest

from repro.errors import ConfigError
from repro.scenarios import get
from repro.scenarios.store import stored_from_payload
from repro.serving.jobs import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobFailedError,
    JobManager,
    QueueFullError,
)

SCENARIO = get("table1")


def fake_result(scenario, digest="0" * 64):
    return stored_from_payload(
        scenario, {"raw": {}, "text": "fake", "csv": None}, digest
    )


class GatedCompute:
    """A compute that blocks until released, counting its calls."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, scenario):
        with self._lock:
            self.calls += 1
        self.started.set()
        assert self.release.wait(10), "gated compute never released"
        return fake_result(scenario)


class TestLifecycle:
    def test_submit_runs_to_done(self):
        manager = JobManager(fake_result)
        try:
            snapshot = manager.submit(SCENARIO, "a" * 64)
            assert snapshot["status"] in (QUEUED, RUNNING)
            assert snapshot["coalesced_onto_existing"] is False
            assert manager.wait("a" * 64, timeout=10)
            done = manager.describe("a" * 64)
            assert done["status"] == DONE
            assert done["result_url"] == "/results/" + "a" * 64
            assert done["wall_time_s"] is not None
            assert done["queue_wait_s"] is not None
            assert done["error"] is None
            assert manager.counters.done == 1
        finally:
            manager.shutdown()

    def test_snapshot_reports_queue_position(self):
        compute = GatedCompute()
        manager = JobManager(compute, n_workers=1, max_queue=8)
        try:
            manager.submit(SCENARIO, "a" * 64)
            assert compute.started.wait(10)  # worker busy on job A
            b = manager.submit(SCENARIO, "b" * 64)
            c = manager.submit(SCENARIO, "c" * 64)
            assert b["queue_position"] == 1
            assert c["queue_position"] == 2
            running = manager.describe("a" * 64)
            assert running["status"] == RUNNING
            assert running["queue_position"] is None
            assert running["running_s"] >= 0
        finally:
            compute.release.set()
            manager.shutdown()

    def test_wait_on_unknown_digest_is_false(self):
        manager = JobManager(fake_result)
        assert manager.wait("f" * 64, timeout=0.01) is False

    def test_describe_unknown_digest_is_none(self):
        manager = JobManager(fake_result)
        assert manager.describe("f" * 64) is None


class TestCoalescing:
    def test_duplicate_submissions_share_one_compute(self):
        compute = GatedCompute()
        manager = JobManager(compute, n_workers=2)
        try:
            first = manager.submit(SCENARIO, "a" * 64)
            assert first["coalesced_onto_existing"] is False
            assert compute.started.wait(10)
            for _ in range(5):
                again = manager.submit(SCENARIO, "a" * 64)
                assert again["coalesced_onto_existing"] is True
            compute.release.set()
            assert manager.wait("a" * 64, timeout=10)
            assert compute.calls == 1
            assert manager.counters.submitted == 1
            assert manager.counters.coalesced == 5
            assert manager.describe("a" * 64)["coalesced"] == 5
        finally:
            compute.release.set()
            manager.shutdown()

    def test_resubmission_after_failure_starts_fresh(self):
        attempts = []

        def flaky(scenario):
            attempts.append(1)
            if len(attempts) == 1:
                raise ConfigError("first attempt fails")
            return fake_result(scenario)

        manager = JobManager(flaky)
        try:
            manager.submit(SCENARIO, "a" * 64)
            assert manager.wait("a" * 64, timeout=10)
            assert manager.describe("a" * 64)["status"] == FAILED
            # Failures are not cached: a new submission gets a new job.
            retry = manager.submit(SCENARIO, "a" * 64)
            assert retry["coalesced_onto_existing"] is False
            assert manager.wait("a" * 64, timeout=10)
            assert manager.describe("a" * 64)["status"] == DONE
            assert len(attempts) == 2
        finally:
            manager.shutdown()


class TestRun:
    """:meth:`JobManager.run`, the blocking (``?wait=1``) entry point."""

    def test_free_slot_runs_on_the_calling_thread(self):
        threads = []

        def compute(scenario):
            threads.append(threading.current_thread())
            return fake_result(scenario)

        manager = JobManager(compute)
        try:
            result = manager.run(SCENARIO, "a" * 64)
            assert result.text == "fake"
            assert threads == [threading.current_thread()]
            assert manager._threads == []  # no worker was needed
            assert manager.describe("a" * 64)["status"] == DONE
            assert manager.counters.submitted == 1
        finally:
            manager.shutdown()

    def test_result_is_handed_over_then_dropped(self):
        produced = []

        def compute(scenario):
            produced.append(fake_result(scenario))
            return produced[-1]

        manager = JobManager(compute)
        try:
            result = manager.run(SCENARIO, "a" * 64)
            assert result is produced.pop()  # no copy, no store read
            alive = weakref.ref(result)
            del result
            gc.collect()
            assert alive() is None  # the retained job does not keep it
            assert manager.describe("a" * 64)["name"] == SCENARIO.name
        finally:
            manager.shutdown()

    def test_joins_the_in_flight_job(self):
        compute = GatedCompute()
        manager = JobManager(compute, n_workers=2)
        results = []
        try:
            manager.submit(SCENARIO, "a" * 64)
            assert compute.started.wait(10)
            waiter = threading.Thread(
                target=lambda: results.append(manager.run(SCENARIO, "a" * 64))
            )
            waiter.start()
            while manager.describe("a" * 64)["coalesced"] < 1:
                waiter.join(0.01)
            compute.release.set()
            waiter.join(10)
            assert not waiter.is_alive(), "the joined waiter hung"
            assert len(results) == 1 and results[0].text == "fake"
            assert compute.calls == 1
            assert manager.counters.coalesced == 1
        finally:
            compute.release.set()
            manager.shutdown()

    def test_failure_raises_the_structured_error(self):
        def boom(scenario):
            raise ConfigError("inline bug")

        manager = JobManager(boom)
        try:
            with pytest.raises(JobFailedError) as err:
                manager.run(SCENARIO, "a" * 64, origin="inline")
            assert err.value.error == {
                "error": "invalid-scenario",
                "detail": "inline bug",
            }
        finally:
            manager.shutdown()

    def test_full_engine_rejects(self):
        compute = GatedCompute()
        manager = JobManager(compute, n_workers=1, max_queue=1)
        try:
            manager.submit(SCENARIO, "a" * 64)  # running
            assert compute.started.wait(10)
            manager.submit(SCENARIO, "b" * 64)  # queued 1/1
            with pytest.raises(QueueFullError):
                manager.run(SCENARIO, "c" * 64)
            assert manager.counters.rejected == 1
        finally:
            compute.release.set()
            manager.shutdown()

    def test_shutdown_wakes_every_waiter(self):
        compute = GatedCompute()
        manager = JobManager(compute, n_workers=1)
        errors = []

        def wait_for(digest):
            try:
                manager.run(SCENARIO, digest)
            except JobFailedError as exc:
                errors.append(exc.error["error"])

        try:
            manager.submit(SCENARIO, "a" * 64)  # holds the only slot
            assert compute.started.wait(10)
            waiters = [
                threading.Thread(target=wait_for, args=("b" * 64,))
                for _ in range(2)  # one queues the job, one joins it
            ]
            for waiter in waiters:
                waiter.start()
            while manager.stats()["queued"] < 1 or (
                manager.describe("b" * 64)["coalesced"] < 1
            ):
                waiters[0].join(0.01)
            closer = threading.Thread(target=manager.shutdown)
            closer.start()
            for waiter in waiters:
                waiter.join(5)
                assert not waiter.is_alive(), "a waiter hung past shutdown"
            assert errors == ["shutting-down", "shutting-down"]
            assert manager.describe("b" * 64)["status"] == FAILED
            with pytest.raises(JobFailedError):
                manager.run(SCENARIO, "c" * 64)
        finally:
            compute.release.set()
            manager.shutdown()


class TestQueueBounds:
    def test_full_queue_rejects_with_retry_after(self):
        compute = GatedCompute()
        manager = JobManager(compute, n_workers=1, max_queue=2)
        try:
            manager.submit(SCENARIO, "a" * 64)  # running
            assert compute.started.wait(10)
            manager.submit(SCENARIO, "b" * 64)  # queued 1/2
            manager.submit(SCENARIO, "c" * 64)  # queued 2/2
            with pytest.raises(QueueFullError) as err:
                manager.submit(SCENARIO, "d" * 64)
            assert err.value.retry_after_s >= 1
            assert err.value.max_queue == 2
            assert manager.counters.rejected == 1
            # Coalescing onto an in-flight job still works at capacity.
            assert (
                manager.submit(SCENARIO, "b" * 64)[
                    "coalesced_onto_existing"
                ]
                is True
            )
        finally:
            compute.release.set()
            manager.shutdown()

    def test_submit_many_is_all_or_nothing(self):
        compute = GatedCompute()
        manager = JobManager(compute, n_workers=1, max_queue=2)
        try:
            manager.submit(SCENARIO, "a" * 64)
            assert compute.started.wait(10)
            # Three new digests cannot fit a queue of two: nothing lands.
            with pytest.raises(QueueFullError):
                manager.submit_many(
                    [
                        (SCENARIO, "b" * 64, "registry"),
                        (SCENARIO, "c" * 64, "registry"),
                        (SCENARIO, "d" * 64, "registry"),
                    ]
                )
            assert manager.describe("b" * 64) is None
            assert manager.stats()["queued"] == 0
            # Two fit exactly; in-batch duplicates coalesce, not occupy.
            snapshots = manager.submit_many(
                [
                    (SCENARIO, "b" * 64, "registry"),
                    (SCENARIO, "c" * 64, "registry"),
                    (SCENARIO, "b" * 64, "registry"),
                ]
            )
            assert set(snapshots) == {"b" * 64, "c" * 64}
            assert manager.counters.coalesced == 1
        finally:
            compute.release.set()
            manager.shutdown()


class TestFailureClassification:
    def test_registry_config_error_is_compute_failed(self):
        def boom(scenario):
            raise ConfigError("recipe bug in the registry spec")

        manager = JobManager(boom)
        try:
            manager.submit(SCENARIO, "a" * 64, origin="registry")
            assert manager.wait("a" * 64, timeout=10)
            snapshot = manager.describe("a" * 64)
            assert snapshot["status"] == FAILED
            assert snapshot["error"]["error"] == "compute-failed"
            assert "recipe bug" in snapshot["error"]["detail"]
        finally:
            manager.shutdown()

    def test_inline_config_error_is_invalid_scenario(self):
        def boom(scenario):
            raise ConfigError("bad client spec")

        manager = JobManager(boom)
        try:
            manager.submit(SCENARIO, "a" * 64, origin="inline")
            assert manager.wait("a" * 64, timeout=10)
            assert (
                manager.describe("a" * 64)["error"]["error"]
                == "invalid-scenario"
            )
        finally:
            manager.shutdown()

    def test_unexpected_exception_never_leaks_details(self):
        def boom(scenario):
            raise RuntimeError("secret internal state")

        manager = JobManager(boom)
        try:
            manager.submit(SCENARIO, "a" * 64)
            assert manager.wait("a" * 64, timeout=10)
            error = manager.describe("a" * 64)["error"]
            assert error == {
                "error": "internal",
                "detail": "unexpected RuntimeError",
            }
            assert manager.counters.failed == 1
        finally:
            manager.shutdown()


class TestRetentionAndStats:
    def test_terminal_jobs_are_retained_then_evicted_fifo(self):
        manager = JobManager(fake_result, retention=2)
        try:
            for prefix in "abcd":
                digest = prefix * 64
                manager.submit(SCENARIO, digest)
                assert manager.wait(digest, timeout=10)
            # Only the two most recent terminal jobs survive.
            assert manager.describe("a" * 64) is None
            assert manager.describe("b" * 64) is None
            assert manager.describe("c" * 64)["status"] == DONE
            assert manager.describe("d" * 64)["status"] == DONE
        finally:
            manager.shutdown()

    def test_stats_block_shape(self):
        manager = JobManager(fake_result, n_workers=3, max_queue=7)
        try:
            manager.submit(SCENARIO, "a" * 64)
            assert manager.wait("a" * 64, timeout=10)
            stats = manager.stats()
            assert stats["workers"] == 3
            assert stats["max_queue"] == 7
            assert stats["submitted"] == 1
            assert stats["done"] == 1
            assert stats["failed"] == 0
            assert stats["queued"] == 0
            assert stats["retained_done"] == 1
            assert stats["retry_after_s"] >= 1
        finally:
            manager.shutdown()

    def test_list_jobs_orders_live_before_terminal(self):
        compute = GatedCompute()
        manager = JobManager(compute, n_workers=1)
        try:
            manager.submit(SCENARIO, "a" * 64)
            assert compute.started.wait(10)
            manager.submit(SCENARIO, "b" * 64)
            listed = manager.list_jobs()
            statuses = {job["digest"]: job["status"] for job in listed}
            assert statuses["a" * 64] == RUNNING
            assert statuses["b" * 64] == QUEUED
        finally:
            compute.release.set()
            manager.shutdown()

    def test_shutdown_is_idempotent_and_joins_workers(self):
        manager = JobManager(fake_result)
        manager.submit(SCENARIO, "a" * 64)
        assert manager.wait("a" * 64, timeout=10)
        manager.shutdown()
        manager.shutdown()
        assert all(not t.is_alive() for t in manager._threads)

    def test_knob_validation(self):
        with pytest.raises(ConfigError):
            JobManager(fake_result, n_workers=0)
        with pytest.raises(ConfigError):
            JobManager(fake_result, max_queue=0)
        with pytest.raises(ConfigError):
            JobManager(fake_result, retention=-1)
