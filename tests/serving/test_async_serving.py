"""App-level tests for the async cold-compute flow (202/303/429).

Cold ``POST /run`` is a job submission: these tests pin the 202 body,
the ``/jobs`` polling lifecycle through to the 303 redirect, duplicate
coalescing, queue-full 429s with ``Retry-After``, failed-job reporting,
and the ``?wait=1`` / ``Prefer: wait`` escape hatch back to the
synchronous contract.  Slow and failing computes are injected onto
``app.jobs`` so every race is deterministic; one burst test runs real
computes under real threads.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.errors import ConfigError
from repro.scenarios import get
from repro.scenarios.store import ResultStore
from repro.serving.app import ServingApp

from test_jobs import GatedCompute  # sibling test module


@pytest.fixture
def app(tmp_path):
    application = ServingApp(ResultStore(tmp_path / "store"))
    yield application
    application.close()


def post_run(app, payload, path="/run", headers=None):
    return app.handle("POST", path, json.dumps(payload).encode(), headers)


def digest_of(app, name):
    return app.store.digest(get(name))


class TestAcceptedFlow:
    def test_cold_run_returns_202_with_status_url(self, app):
        response = post_run(app, {"scenario": "table1"})
        assert response.status == 202
        body = response.body
        digest = digest_of(app, "table1")
        assert body["name"] == "table1"
        assert body["digest"] == digest
        assert body["status"] in ("queued", "running")
        assert body["status_url"] == f"/jobs/{digest}"
        assert body["coalesced"] is False
        assert response.headers["Location"] == f"/jobs/{digest}"
        assert app.stats.accepted_jobs == 1

    def test_job_completes_and_redirects_to_result(self, app):
        digest = digest_of(app, "table1")
        assert post_run(app, {"scenario": "table1"}).status == 202
        assert app.jobs.wait(digest, timeout=30)

        status = app.handle("GET", f"/jobs/{digest}")
        assert status.status == 303
        assert status.headers["Location"] == f"/results/{digest}"
        assert status.body["status"] == "done"
        assert status.body["result_url"] == f"/results/{digest}"
        assert status.body["wall_time_s"] is not None

        result = app.handle("GET", f"/results/{digest}")
        assert result.status == 200
        assert result.body["digest"] == digest
        assert result.body["artifacts"]["text"]

    def test_warm_digest_is_served_inline_not_enqueued(self, app):
        digest = digest_of(app, "table1")
        post_run(app, {"scenario": "table1"})
        assert app.jobs.wait(digest, timeout=30)
        warm = post_run(app, {"scenario": "table1"})
        assert warm.status == 200
        assert warm.body["from_cache"] is True
        assert app.jobs.counters.submitted == 1  # no second job

    def test_status_for_digest_computed_outside_the_engine(self, app):
        # A digest stored by someone else (the CLI, a peer, a previous
        # daemon life) never met the job engine, but /jobs/<digest> still
        # answers "done" from store existence.
        scenario = get("table1")
        app.store.put(scenario, {"raw": {}, "text": "stored elsewhere"})
        digest = app.store.digest(scenario)
        assert app.jobs.describe(digest) is None
        status = app.handle("GET", f"/jobs/{digest}")
        assert status.status == 303
        assert status.body["status"] == "done"

    def test_unknown_and_malformed_job_digests(self, app):
        unknown = app.handle("GET", "/jobs/" + "0" * 64)
        assert unknown.status == 404
        assert unknown.body["error"] == "unknown-job"
        malformed = app.handle("GET", "/jobs/not-a-digest")
        assert malformed.status == 400
        assert malformed.body["error"] == "bad-digest"

    def test_jobs_listing_shows_inflight_and_terminal(self, app):
        compute = GatedCompute()
        app.jobs._compute = compute
        digest = digest_of(app, "table1")
        post_run(app, {"scenario": "table1"})
        assert compute.started.wait(10)
        listing = app.handle("GET", "/jobs")
        assert listing.status == 200
        assert [job["digest"] for job in listing.body["jobs"]] == [digest]
        assert listing.body["counters"]["running"] == 1
        compute.release.set()
        assert app.jobs.wait(digest, timeout=10)
        listing = app.handle("GET", "/jobs")
        assert listing.body["jobs"][0]["status"] == "done"

    def test_stats_exposes_the_jobs_block(self, app):
        digest = digest_of(app, "table1")
        post_run(app, {"scenario": "table1"})
        assert app.jobs.wait(digest, timeout=30)
        stats = app.handle("GET", "/stats")
        assert stats.status == 200
        jobs_block = stats.body["jobs"]
        assert jobs_block["submitted"] == 1
        assert jobs_block["done"] == 1
        assert stats.body["server"]["accepted_jobs"] == 1
        # The terminal hook keeps compute counters meaningful async too.
        assert stats.body["server"]["computed"] == 1


class TestCoalescing:
    def test_duplicate_cold_posts_coalesce_onto_one_job(self, app):
        compute = GatedCompute()
        app.jobs._compute = compute
        first = post_run(app, {"scenario": "table1"})
        assert first.status == 202 and first.body["coalesced"] is False
        assert compute.started.wait(10)
        for _ in range(4):
            again = post_run(app, {"scenario": "table1"})
            assert again.status == 202
            assert again.body["coalesced"] is True
        compute.release.set()
        assert app.jobs.wait(digest_of(app, "table1"), timeout=10)
        assert compute.calls == 1
        assert app.jobs.counters.submitted == 1
        assert app.jobs.counters.coalesced == 4

    def test_concurrent_burst_computes_exactly_once(self, app):
        """N truly concurrent cold POSTs for one digest → one compute."""
        calls = []
        calls_lock = threading.Lock()
        inner = app.jobs._compute

        def counting(scenario):
            with calls_lock:
                calls.append(scenario.name)
            return inner(scenario)

        app.jobs._compute = counting
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        responses = [None] * n_threads

        def hammer(i):
            barrier.wait()
            responses[i] = post_run(app, {"scenario": "table1"})

        threads = [
            threading.Thread(target=hammer, args=(i,))
            for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        digest = digest_of(app, "table1")
        assert app.jobs.wait(digest, timeout=30)
        # Late arrivals may find the store already warm (200); everyone
        # else got a 202 onto the same job.  A thread that probed the
        # store before the result landed may legally submit a follow-up
        # job, but run_cached resolves it warm: however the burst
        # interleaves, the result is computed (stored) exactly once.
        assert {r.status for r in responses} <= {200, 202}
        assert len(calls) >= 1
        assert app.store.stats.puts == 1
        assert app.jobs.counters.failed == 0
        assert app.handle("GET", f"/results/{digest}").status == 200


class TestOverload:
    def make_overloaded_app(self, tmp_path):
        app = ServingApp(
            ResultStore(tmp_path / "store"), job_workers=1, max_queue=1
        )
        compute = GatedCompute()
        app.jobs._compute = compute
        return app, compute

    def test_full_queue_answers_429_with_retry_after(self, tmp_path):
        app, compute = self.make_overloaded_app(tmp_path)
        try:
            assert post_run(app, {"scenario": "table1"}).status == 202
            assert compute.started.wait(10)  # worker busy
            assert post_run(app, {"scenario": "fig7-gpu"}).status == 202
            rejected = post_run(app, {"scenario": "fig3c-blade-spec"})
            assert rejected.status == 429
            assert rejected.body["error"] == "overloaded"
            assert int(rejected.headers["Retry-After"]) >= 1
            assert app.stats.rejected_jobs == 1
            # Overload never breaks the structured-error contract.
            assert set(rejected.body) == {"error", "detail"}
            # Coalescing onto in-flight jobs still works at capacity.
            again = post_run(app, {"scenario": "fig7-gpu"})
            assert again.status == 202 and again.body["coalesced"] is True
        finally:
            compute.release.set()
            app.close()

    def test_batch_admission_is_all_or_nothing(self, tmp_path):
        app, compute = self.make_overloaded_app(tmp_path)
        try:
            assert post_run(app, {"scenario": "table1"}).status == 202
            assert compute.started.wait(10)
            # Two cold digests cannot fit a queue of one: nothing lands.
            rejected = post_run(
                app, {"scenarios": ["fig7-gpu", "fig3c-blade-spec"]}
            )
            assert rejected.status == 429
            assert "Retry-After" in rejected.headers
            assert app.jobs.counters.submitted == 1  # still just table1
            assert (
                app.handle("GET", "/jobs/" + digest_of(app, "fig7-gpu")).status
                == 404
            )
        finally:
            compute.release.set()
            app.close()


class TestFailedJobs:
    def test_registry_compute_failure_is_reported_structured(self, app):
        def boom(scenario):
            raise ConfigError("registry recipe bug")

        app.jobs._compute = boom
        digest = digest_of(app, "table1")
        assert post_run(app, {"scenario": "table1"}).status == 202
        assert app.jobs.wait(digest, timeout=10)
        status = app.handle("GET", f"/jobs/{digest}")
        assert status.status == 200  # failed is a final *status*, not 3xx
        assert status.body["status"] == "failed"
        assert status.body["error"]["error"] == "compute-failed"
        assert "registry recipe bug" in status.body["error"]["detail"]

    def test_inline_compute_failure_blames_the_client_spec(self, app):
        def boom(scenario):
            raise ConfigError("bad inline spec")

        app.jobs._compute = boom
        spec = get("fig3c-blade-spec").to_dict()
        response = post_run(app, {"scenario": spec})
        assert response.status == 202
        digest = response.body["digest"]
        assert app.jobs.wait(digest, timeout=10)
        status = app.handle("GET", f"/jobs/{digest}")
        assert status.body["status"] == "failed"
        assert status.body["error"]["error"] == "invalid-scenario"

    def test_unexpected_failure_never_leaks_internals(self, app):
        def boom(scenario):
            raise RuntimeError("secret internal state")

        app.jobs._compute = boom
        digest = digest_of(app, "table1")
        post_run(app, {"scenario": "table1"})
        assert app.jobs.wait(digest, timeout=10)
        status = app.handle("GET", f"/jobs/{digest}")
        assert status.body["error"] == {
            "error": "internal",
            "detail": "unexpected RuntimeError",
        }
        assert "secret" not in json.dumps(status.body)


class TestWaitEscapeHatch:
    def test_wait_query_preserves_the_synchronous_contract(self, tmp_path):
        sync_app = ServingApp(ResultStore(tmp_path / "sync"))
        async_app = ServingApp(ResultStore(tmp_path / "async"))
        try:
            sync = post_run(
                sync_app, {"scenario": "table1"}, path="/run?wait=1"
            )
            assert sync.status == 200
            assert sync.body["from_cache"] is False
            assert sync.headers["ETag"] == f'"{sync.body["digest"]}"'
            assert set(sync.body) == {
                "name", "digest", "from_cache", "provenance", "artifacts",
            }
            # The async path lands the identical artifacts in the store.
            accepted = post_run(async_app, {"scenario": "table1"})
            assert accepted.status == 202
            digest = accepted.body["digest"]
            assert digest == sync.body["digest"]
            assert async_app.jobs.wait(digest, timeout=30)
            result = async_app.handle("GET", f"/results/{digest}")
            assert result.body["artifacts"] == sync.body["artifacts"]
        finally:
            sync_app.close()
            async_app.close()

    def test_warm_responses_are_byte_identical_with_and_without_wait(
        self, app
    ):
        digest = digest_of(app, "table1")
        post_run(app, {"scenario": "table1"})
        assert app.jobs.wait(digest, timeout=30)
        plain = post_run(app, {"scenario": "table1"})
        waited = post_run(app, {"scenario": "table1"}, path="/run?wait=1")
        assert plain.status == waited.status == 200
        assert plain.body_bytes() == waited.body_bytes()

    def test_prefer_wait_header(self, app):
        response = post_run(
            app, {"scenario": "table1"}, headers={"Prefer": "wait"}
        )
        assert response.status == 200
        assert response.body["from_cache"] is False

    def test_wait_zero_means_async(self, app):
        response = post_run(
            app, {"scenario": "table1"}, path="/run?wait=0"
        )
        assert response.status == 202

    def test_wait_batch_returns_artifacts_inline(self, app):
        response = post_run(
            app,
            {"scenarios": ["table1", "table1"]},
            path="/run?wait=1",
        )
        assert response.status == 200
        assert response.body["stats"]["n_computed"] == 1
        assert response.body["stats"]["n_deduplicated"] == 1
        assert response.body["entries"][0]["artifacts"]["text"]


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.005)


class TestWaitRunsAsAJob:
    """``?wait=1`` goes through the job engine: it coalesces, is bounded
    by the compute slots and the queue, and wakes on shutdown."""

    def test_wait_coalesces_onto_an_in_flight_async_job(self, app):
        gate = threading.Event()
        calls = []
        real = app.jobs._compute

        def gated(scenario):
            calls.append(scenario.name)
            assert gate.wait(10), "gate never opened"
            return real(scenario)

        app.jobs._compute = gated
        digest = digest_of(app, "table1")
        assert post_run(app, {"scenario": "table1"}).status == 202
        wait_until(lambda: calls)
        waited = []
        waiter = threading.Thread(
            target=lambda: waited.append(
                post_run(app, {"scenario": "table1"}, path="/run?wait=1")
            )
        )
        waiter.start()
        wait_until(lambda: app.jobs.describe(digest)["coalesced"] >= 1)
        gate.set()
        waiter.join(30)
        assert not waiter.is_alive(), "the waiting request hung"
        (response,) = waited
        assert response.status == 200
        assert response.body["from_cache"] is False
        assert calls == ["table1"]
        assert app.store.stats.puts == 1
        assert app.jobs.counters.coalesced >= 1
        assert app.stats.computed == 1  # counted once, by the job
        stored = app.handle("GET", f"/results/{digest}")
        assert json.dumps(response.body["artifacts"]) == json.dumps(
            stored.body["artifacts"]
        )

    def test_cold_wait_on_a_full_engine_is_a_429(self, tmp_path):
        app = ServingApp(
            ResultStore(tmp_path / "store"), job_workers=1, max_queue=1
        )
        compute = GatedCompute()
        app.jobs._compute = compute
        try:
            assert post_run(app, {"scenario": "table1"}).status == 202
            assert compute.started.wait(10)  # the only slot is taken
            assert post_run(app, {"scenario": "fig7-gpu"}).status == 202
            for payload in (
                {"scenario": "fig3c-blade-spec"},
                {"scenarios": ["fig3c-blade-spec"]},
            ):
                rejected = post_run(app, payload, path="/run?wait=1")
                assert rejected.status == 429
                assert rejected.body["error"] == "overloaded"
                assert int(rejected.headers["Retry-After"]) >= 1
            assert app.stats.rejected_jobs == 2
        finally:
            compute.release.set()
            app.close()

    def test_mixed_traffic_never_exceeds_the_compute_slots(
        self, tmp_path, monkeypatch
    ):
        import repro.scenarios.store as store_module

        real = store_module.run_scenario
        active = [0]
        peak = [0]
        lock = threading.Lock()

        def monitored(scenario, **kwargs):
            with lock:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
            try:
                time.sleep(0.02)
                return real(scenario, **kwargs)
            finally:
                with lock:
                    active[0] -= 1

        monkeypatch.setattr(store_module, "run_scenario", monitored)
        app = ServingApp(ResultStore(tmp_path / "store"), job_workers=2)
        base = get("table1").to_dict()
        n_each = 4
        barrier = threading.Barrier(2 * n_each)
        responses = {}

        def client(n, path):
            barrier.wait()
            spec = dict(base, name=f"mixed-{n}")
            responses[n] = post_run(app, {"scenario": spec}, path=path)

        threads = [
            threading.Thread(
                target=client,
                args=(n, "/run?wait=1" if n < n_each else "/run"),
            )
            for n in range(2 * n_each)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
                assert not thread.is_alive(), "a client hung"
            assert [responses[n].status for n in range(2 * n_each)] == (
                [200] * n_each + [202] * n_each
            )
            for n in range(n_each, 2 * n_each):
                assert app.jobs.wait(responses[n].body["digest"], timeout=30)
            assert 1 <= peak[0] <= app.jobs.n_workers
            assert app.jobs.counters.done == 2 * n_each
        finally:
            app.close()

    def test_shutdown_wakes_a_parked_waiter_with_a_503(self, tmp_path):
        app = ServingApp(ResultStore(tmp_path / "store"), job_workers=1)
        compute = GatedCompute()
        app.jobs._compute = compute
        waited = []
        try:
            assert post_run(app, {"scenario": "table1"}).status == 202
            assert compute.started.wait(10)
            waiter = threading.Thread(
                target=lambda: waited.append(
                    post_run(app, {"scenario": "fig7-gpu"}, path="/run?wait=1")
                )
            )
            waiter.start()
            wait_until(lambda: app.jobs.stats()["queued"] == 1)
            threading.Thread(target=app.close).start()
            waiter.join(5)
            assert not waiter.is_alive(), "the waiter hung past close()"
            (response,) = waited
            assert response.status == 503
            assert response.body["error"] == "shutting-down"
        finally:
            compute.release.set()
            app.close()


class TestAsyncBatch:
    def test_mixed_batch_returns_a_status_sheet(self, app):
        # Warm up table1 synchronously; fig7-gpu stays cold.
        assert (
            post_run(app, {"scenario": "table1"}, path="/run?wait=1").status
            == 200
        )
        compute = GatedCompute()
        app.jobs._compute = compute
        response = post_run(app, {"scenarios": ["table1", "fig7-gpu"]})
        assert response.status == 202
        warm_entry, cold_entry = response.body["entries"]
        assert warm_entry["name"] == "table1"
        assert warm_entry["status"] == "done"
        assert warm_entry["result_url"].startswith("/results/")
        assert cold_entry["name"] == "fig7-gpu"
        assert cold_entry["status"] in ("queued", "running")
        assert cold_entry["status_url"].startswith("/jobs/")
        assert response.body["stats"] == {
            "n_items": 2,
            "n_warm": 1,
            "n_jobs": 1,
        }
        compute.release.set()
        digest = digest_of(app, "fig7-gpu")
        assert app.jobs.wait(digest, timeout=10)
        assert app.handle("GET", f"/jobs/{digest}").status == 303

    def test_batch_duplicates_coalesce_onto_one_job(self, app):
        compute = GatedCompute()
        app.jobs._compute = compute
        response = post_run(
            app, {"scenarios": ["table1", "table1", "table1"]}
        )
        assert response.status == 202
        assert response.body["stats"]["n_jobs"] == 1
        assert app.jobs.counters.submitted == 1
        assert app.jobs.counters.coalesced == 2
        compute.release.set()
        assert app.jobs.wait(digest_of(app, "table1"), timeout=10)
