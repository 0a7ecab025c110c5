"""Regression tests for the serving-layer bugfix sweep.

Separately-shipped fixes, each pinned so it cannot quietly revert:

1. ``/stats`` ``runs`` counts 304-revalidated runs too (the counter used
   to be bumped *after* the ``If-None-Match`` early return).
2. ``uptime_s`` derives from the monotonic clock — a wall-clock step
   (NTP, ``date -s``) can never make uptime jump or go negative.
3. ``Content-Length`` parsing is strict ASCII digits — bare ``int()``
   used to accept ``"+100"``, ``" 100 "`` and ``"1_0"``.
4. A *mid-compute* ConfigError is no longer a blanket 400: a registry
   (server-owned) spec failing is a 500/``compute-failed``; only a
   client-sent inline spec is blamed as 400/``invalid-scenario``.
"""

from __future__ import annotations

import http.client
import json
import time

import pytest

from repro.errors import ConfigError
from repro.scenarios import get
from repro.scenarios.store import ResultStore
from repro.serving.app import ServeStats, ServingApp


@pytest.fixture
def app(tmp_path):
    application = ServingApp(ResultStore(tmp_path / "store"))
    yield application
    application.close()


class TestStatsCount304Runs:
    def test_revalidated_run_still_counts_as_a_run(self, app):
        warm = app.handle(
            "POST", "/run?wait=1", json.dumps({"scenario": "table1"}).encode()
        )
        assert warm.status == 200
        assert app.stats.runs == 1
        revalidated = app.handle(
            "POST",
            "/run",
            json.dumps({"scenario": "table1"}).encode(),
            {"If-None-Match": warm.headers["ETag"]},
        )
        assert revalidated.status == 304
        assert app.stats.runs == 2
        assert app.stats.not_modified == 1


class TestMonotonicUptime:
    def test_wall_clock_step_cannot_bend_uptime(self, monkeypatch):
        stats = ServeStats()
        base_monotonic = stats.started_monotonic
        monkeypatch.setattr(time, "monotonic", lambda: base_monotonic + 5.0)
        # A violent NTP step backwards: wall clock now reads an hour
        # *before* the process started.
        monkeypatch.setattr(time, "time", lambda: stats.started_unix - 3600.0)
        reported = stats.to_dict()
        assert reported["uptime_s"] == pytest.approx(5.0)
        # The wall-clock start stamp survives for display, unbent.
        assert reported["started_unix"] == stats.started_unix

    def test_uptime_never_negative_even_immediately(self):
        assert ServeStats().to_dict()["uptime_s"] >= 0.0


class TestStrictContentLength:
    def raw_post(self, live_server, length_value):
        """POST /run with a hand-written Content-Length header."""
        conn = http.client.HTTPConnection(
            live_server.host, live_server.port, timeout=30
        )
        try:
            conn.putrequest("POST", "/run")
            conn.putheader("Content-Length", length_value)
            conn.endheaders()
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "length_value",
        # Surrounding whitespace (" 100") never reaches the check — the
        # stdlib header parser strips it — so the cases here are the
        # embedded forms bare int() used to accept.  "²" is a latin-1
        # unicode digit: isdigit() passes, isascii() does not — the
        # exact hole the strict check closes.
        ["+100", "1_0", "0x10", "-1", "1e2", "1 0", "²"],
    )
    def test_non_digit_lengths_are_rejected(self, live_server, length_value):
        status, body = self.raw_post(live_server, length_value)
        assert status == 400
        assert body["error"] == "bad-content-length"

    def test_plain_digits_still_work(self, live_server):
        reply = live_server.post_json("/run?wait=1", {"scenario": "table1"})
        assert reply.status == 200


class TestComputeErrorClassification:
    def test_registry_spec_failing_mid_compute_is_a_500(self, app, monkeypatch):
        def boom(*args, **kwargs):
            raise ConfigError("registry recipe bug")

        monkeypatch.setattr("repro.serving.app.run_cached", boom)
        response = app.handle(
            "POST", "/run?wait=1", json.dumps({"scenario": "table1"}).encode()
        )
        assert response.status == 500
        assert response.body["error"] == "compute-failed"
        assert "Traceback" not in response.body["detail"]
        assert app.stats.server_errors == 1

    def test_inline_spec_failing_mid_compute_stays_a_400(self, app, monkeypatch):
        def boom(*args, **kwargs):
            raise ConfigError("inline spec bug")

        monkeypatch.setattr("repro.serving.app.run_cached", boom)
        spec = get("fig3c-blade-spec").to_dict()
        response = app.handle(
            "POST", "/run?wait=1", json.dumps({"scenario": spec}).encode()
        )
        assert response.status == 400
        assert response.body["error"] == "invalid-scenario"

    def test_batch_classification_follows_the_origins(self, app, monkeypatch):
        def boom(*args, **kwargs):
            raise ConfigError("mid-compute failure")

        monkeypatch.setattr("repro.serving.app.run_cached", boom)
        all_registry = app.handle(
            "POST",
            "/run?wait=1",
            json.dumps({"scenarios": ["table1"]}).encode(),
        )
        assert all_registry.status == 500
        spec = get("fig3c-blade-spec").to_dict()
        with_inline = app.handle(
            "POST",
            "/run?wait=1",
            json.dumps({"scenarios": ["table1", spec]}).encode(),
        )
        assert with_inline.status == 400
        assert with_inline.body["error"] == "invalid-scenario"
