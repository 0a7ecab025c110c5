"""End-to-end golden tests: a real ThreadingHTTPServer on an ephemeral port.

The serving contract in the acceptance criteria, verified over actual
sockets: a warm ``POST /run`` performs zero kernel timings and returns
artifacts byte-identical to the CLI's ``python -m repro run`` output, a
repeat request carrying the returned ``ETag`` is answered ``304``, and
``GET /results/<digest>`` replays the stored entry.
"""

from __future__ import annotations

import json
import time

from repro.cli import main
from repro.core.timing_cache import default_timing_cache
from repro.parallel.mapper import default_mapping_cache
from repro.scenarios import Scenario, get, scenario_digest

from test_jobs import GatedCompute  # sibling test module

CHEAP_TABLE = "fig3c-blade-spec"
CHEAP_POINT = "fig7-gpu"


class TestHealthAndListing:
    def test_healthz(self, live_server):
        reply = live_server.request("GET", "/healthz")
        assert reply.status == 200
        assert reply.json()["status"] == "ok"

    def test_scenarios_lists_the_registry(self, live_server):
        reply = live_server.request("GET", "/scenarios")
        assert reply.status == 200
        listed = {row["name"]: row for row in reply.json()["scenarios"]}
        assert CHEAP_POINT in listed and "fig5" in listed
        assert listed[CHEAP_POINT]["digest"] == scenario_digest(
            get(CHEAP_POINT)
        )

    def test_single_scenario_spec_round_trips(self, live_server):
        reply = live_server.request("GET", f"/scenarios/{CHEAP_POINT}")
        assert reply.status == 200
        rebuilt = Scenario.from_dict(reply.json()["spec"])
        assert rebuilt == get(CHEAP_POINT)
        assert reply.etag == f'"{scenario_digest(rebuilt)}"'

    def test_unknown_scenario_404s(self, live_server):
        reply = live_server.request("GET", "/scenarios/fig99")
        assert reply.status == 404
        assert reply.json()["error"] == "unknown-scenario"


class TestRunGolden:
    def test_warm_run_is_compute_free_and_byte_identical_to_cli(
        self, live_server, tmp_path
    ):
        # Cold: the server computes and stores.
        cold = live_server.post_json("/run?wait=1", {"scenario": CHEAP_POINT})
        assert cold.status == 200
        assert cold.json()["from_cache"] is False

        # CLI artifacts for the same scenario (served from the same store).
        out_dir = tmp_path / "cli-artifacts"
        assert main(["run", CHEAP_POINT, "--out", str(out_dir)]) == 0

        # Warm: zero kernel timings, zero mappings.
        timing, mapping = default_timing_cache(), default_mapping_cache()
        timing_before = (timing.hits, timing.misses)
        mapping_before = (mapping.hits, mapping.misses)
        warm = live_server.post_json("/run?wait=1", {"scenario": CHEAP_POINT})
        assert warm.status == 200
        assert warm.json()["from_cache"] is True
        assert (timing.hits, timing.misses) == timing_before
        assert (mapping.hits, mapping.misses) == mapping_before

        # Byte-identical artifacts: HTTP payload == CLI-written files.
        artifacts = warm.json()["artifacts"]
        raw_bytes = (json.dumps(artifacts["raw"], indent=2) + "\n").encode()
        name = CHEAP_POINT
        assert raw_bytes == (out_dir / f"{name}_raw.json").read_bytes()
        text_bytes = (artifacts["text"] + "\n").encode()
        assert text_bytes == (out_dir / f"{name}.txt").read_bytes()
        assert artifacts["csv"] is None
        # ... and the warm replay's artifacts equal the cold compute's.
        assert artifacts == cold.json()["artifacts"]

    def test_grid_scenario_csv_matches_cli(self, live_server, tmp_path):
        reply = live_server.post_json("/run?wait=1", {"scenario": "fig6"})
        assert reply.status == 200
        out_dir = tmp_path / "cli"
        assert main(["run", "fig6", "--out", str(out_dir)]) == 0
        csv = reply.json()["artifacts"]["csv"]
        assert csv is not None
        assert csv.encode() == (out_dir / "fig6.csv").read_bytes()

    def test_repeat_with_etag_is_304(self, live_server):
        cold = live_server.post_json("/run?wait=1", {"scenario": CHEAP_TABLE})
        assert cold.status == 200 and cold.etag

        timing = default_timing_cache()
        before = (timing.hits, timing.misses)
        revalidated = live_server.post_json(
            "/run",
            {"scenario": CHEAP_TABLE},
            headers={"If-None-Match": cold.etag},
        )
        assert revalidated.status == 304
        assert revalidated.body == b""
        assert revalidated.etag == cold.etag
        assert (timing.hits, timing.misses) == before

    def test_inline_spec_shares_the_registry_content_address(
        self, live_server
    ):
        live_server.post_json("/run?wait=1", {"scenario": CHEAP_TABLE})
        inline = live_server.post_json(
            "/run", {"scenario": get(CHEAP_TABLE).to_dict()}
        )
        assert inline.status == 200
        assert inline.json()["from_cache"] is True
        assert inline.json()["digest"] == scenario_digest(get(CHEAP_TABLE))


class TestResultsByDigest:
    def test_stored_entry_replays(self, live_server):
        run = live_server.post_json("/run?wait=1", {"scenario": CHEAP_TABLE})
        digest = run.json()["digest"]
        reply = live_server.request("GET", f"/results/{digest}")
        assert reply.status == 200
        entry = reply.json()
        assert entry["digest"] == digest
        assert entry["artifacts"] == run.json()["artifacts"]
        assert entry["provenance"]["schema_version"] == 1
        assert Scenario.from_dict(entry["scenario"]).name == CHEAP_TABLE

    def test_etag_revalidation(self, live_server):
        run = live_server.post_json("/run?wait=1", {"scenario": CHEAP_TABLE})
        digest = run.json()["digest"]
        lookups_before = live_server.store.stats.lookups
        reply = live_server.request(
            "GET",
            f"/results/{digest}",
            headers={"If-None-Match": f'"{digest}"'},
        )
        assert reply.status == 304 and reply.body == b""
        # The 304 is a stat-only existence probe — no entry read/parse.
        assert live_server.store.stats.lookups == lookups_before

    def test_unknown_digest_404s(self, live_server):
        reply = live_server.request("GET", "/results/" + "0" * 64)
        assert reply.status == 404
        assert reply.json()["error"] == "unknown-digest"

    def test_malformed_digest_400s(self, live_server):
        reply = live_server.request("GET", "/results/nothex")
        assert reply.status == 400
        assert reply.json()["error"] == "bad-digest"


class TestBatchRun:
    def test_batch_dedups_and_serves_from_store(self, live_server):
        live_server.post_json("/run?wait=1", {"scenario": CHEAP_TABLE})
        reply = live_server.post_json(
            "/run?wait=1",
            {"scenarios": [CHEAP_TABLE, "table1", CHEAP_TABLE]},
        )
        assert reply.status == 200
        body = reply.json()
        assert [e["name"] for e in body["entries"]] == [
            CHEAP_TABLE,
            "table1",
            CHEAP_TABLE,
        ]
        assert body["entries"][0]["from_cache"] is True
        assert body["entries"][2]["deduplicated"] is True
        assert body["stats"]["n_unique"] == 2
        assert body["stats"]["n_computed"] == 1

    def test_stats_reflect_traffic(self, live_server):
        live_server.post_json("/run?wait=1", {"scenario": CHEAP_TABLE})
        live_server.post_json("/run?wait=1", {"scenario": CHEAP_TABLE})
        reply = live_server.request("GET", "/stats")
        assert reply.status == 200
        stats = reply.json()
        assert stats["server"]["runs"] >= 2
        assert stats["server"]["served_from_store"] >= 1
        assert stats["server"]["computed"] >= 1
        assert stats["store"]["n_entries"] == 1
        assert stats["store"]["provenance"]["entries_with_provenance"] == 1
        assert stats["store"]["provenance"]["entries_missing_provenance"] == 0

    def test_stats_never_report_the_pre_provenance_sentinel(
        self, live_server
    ):
        """A PR-3-era entry must not leak a fabricated 1970 timestamp."""
        live_server.post_json("/run?wait=1", {"scenario": CHEAP_TABLE})
        live_server.post_json("/run?wait=1", {"scenario": "table1"})
        # Strip one entry's provenance, as a pre-GC-era writer would have.
        path = live_server.store.path_for(get(CHEAP_TABLE))
        entry = json.loads(path.read_text())
        del entry["provenance"]
        path.write_text(json.dumps(entry))

        block = live_server.request("GET", "/stats").json()["store"][
            "provenance"
        ]
        assert block["entries_scanned"] == 2
        assert block["entries_missing_provenance"] == 1
        assert block["entries_with_provenance"] == 1
        # Over stamped entries only — not the 0.0 age-dating sentinel.
        assert block["oldest_created_unix"] > 1e9
        assert block["oldest_created_unix"] == block["newest_created_unix"]

    def test_warm_batch_streams_past_a_held_compute_lock(self, live_server):
        """An all-warm batch is pure file reads; it must not queue behind
        someone's cold compute, even with every compute slot taken."""
        live_server.post_json(
            "/run?wait=1", {"scenarios": [CHEAP_TABLE, "table1"]}
        )
        jobs = live_server.app.jobs
        compute = GatedCompute()
        jobs._compute = compute
        try:
            for n in range(jobs.n_workers):  # one gated compute per slot
                spec = dict(get(CHEAP_POINT).to_dict(), name=f"held-{n}")
                held = live_server.post_json("/run", {"scenario": spec})
                assert held.status == 202
            deadline = time.monotonic() + 10
            while compute.calls < jobs.n_workers:
                assert time.monotonic() < deadline, "slots never filled"
                time.sleep(0.01)
            reply = live_server.post_json(
                "/run", {"scenarios": [CHEAP_TABLE, "table1"]}
            )
        finally:
            compute.release.set()
        assert reply.status == 200
        assert all(e["from_cache"] for e in reply.json()["entries"])


class TestContentNegotiation:
    """The ``/results/<digest>/csv|text`` artifact routes: correct media
    types, bytes identical to the CLI-written artifact files, same
    ETag/304 contract as the JSON route."""

    def test_text_artifact_matches_cli_bytes(self, live_server, tmp_path):
        run = live_server.post_json("/run?wait=1", {"scenario": CHEAP_TABLE})
        digest = run.json()["digest"]
        out_dir = tmp_path / "cli"
        assert main(["run", CHEAP_TABLE, "--out", str(out_dir)]) == 0

        reply = live_server.request("GET", f"/results/{digest}/text")
        assert reply.status == 200
        assert reply.headers["Content-Type"] == "text/plain; charset=utf-8"
        assert reply.etag == f'"{digest}"'
        assert reply.body == (out_dir / f"{CHEAP_TABLE}.txt").read_bytes()

    def test_csv_artifact_matches_cli_bytes(self, live_server, tmp_path):
        run = live_server.post_json("/run?wait=1", {"scenario": "fig6"})
        digest = run.json()["digest"]
        out_dir = tmp_path / "cli"
        assert main(["run", "fig6", "--out", str(out_dir)]) == 0

        reply = live_server.request("GET", f"/results/{digest}/csv")
        assert reply.status == 200
        assert reply.headers["Content-Type"] == "text/csv; charset=utf-8"
        assert reply.etag == f'"{digest}"'
        assert reply.body == (out_dir / "fig6.csv").read_bytes()

    def test_table_scenario_has_no_csv_representation(self, live_server):
        run = live_server.post_json("/run?wait=1", {"scenario": CHEAP_TABLE})
        digest = run.json()["digest"]
        reply = live_server.request("GET", f"/results/{digest}/csv")
        assert reply.status == 404
        assert reply.json()["error"] == "no-csv-artifact"

    def test_etag_revalidation_on_artifact_routes(self, live_server):
        run = live_server.post_json("/run?wait=1", {"scenario": CHEAP_TABLE})
        digest = run.json()["digest"]
        reply = live_server.request(
            "GET",
            f"/results/{digest}/text",
            headers={"If-None-Match": f'"{digest}"'},
        )
        assert reply.status == 304
        assert reply.body == b""
        assert reply.etag == f'"{digest}"'
        # A representation that does not exist must never 304: this table
        # scenario has no CSV, so a conditional GET for it is still the
        # 404 the unconditional GET would be.
        reply = live_server.request(
            "GET",
            f"/results/{digest}/csv",
            headers={"If-None-Match": f'"{digest}"'},
        )
        assert reply.status == 404
        assert reply.json()["error"] == "no-csv-artifact"

    def test_unknown_stage_and_digest_are_structured_errors(
        self, live_server
    ):
        run = live_server.post_json("/run?wait=1", {"scenario": CHEAP_TABLE})
        digest = run.json()["digest"]
        reply = live_server.request("GET", f"/results/{digest}/pdf")
        assert reply.status == 404
        assert reply.json()["error"] == "unknown-artifact"
        reply = live_server.request("GET", "/results/" + "0" * 64 + "/text")
        assert reply.status == 404
        assert reply.json()["error"] == "unknown-digest"
        reply = live_server.request("GET", "/results/nothex/text")
        assert reply.status == 400
        assert reply.json()["error"] == "bad-digest"


class TestHttpEdgeCases:
    def test_chunked_upload_is_411_and_closes(self, live_server):
        import http.client

        conn = http.client.HTTPConnection(
            live_server.host, live_server.port, timeout=30
        )
        try:
            conn.putrequest("POST", "/run")
            conn.putheader("Transfer-Encoding", "chunked")
            conn.endheaders()
            conn.send(b"5\r\n{\"a\":\r\n0\r\n\r\n")
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 411
            assert body["error"] == "length-required"
            assert response.getheader("Connection") == "close"
        finally:
            conn.close()

    def test_head_healthz_answers_like_get_without_a_body(self, live_server):
        """Load-balancer HEAD probes must see 200, not a stdlib HTML 501."""
        reply = live_server.request("HEAD", "/healthz")
        assert reply.status == 200
        assert reply.headers["Content-Type"] == "application/json"
        assert int(reply.headers["Content-Length"]) > 0
        assert reply.body == b""  # headers promised, body withheld

    def test_other_verbs_get_structured_json_405(self, live_server):
        for method in ("DELETE", "PUT", "PATCH", "OPTIONS"):
            reply = live_server.request(method, "/run")
            assert reply.status == 405, method
            assert reply.headers["Content-Type"] == "application/json"
            assert reply.json()["error"] == "method-not-allowed"

    def test_uppercase_digest_url_revalidates_against_lowercase_etag(
        self, live_server
    ):
        run = live_server.post_json("/run?wait=1", {"scenario": CHEAP_TABLE})
        digest = run.json()["digest"]
        reply = live_server.request(
            "GET",
            f"/results/{digest.upper()}",
            headers={"If-None-Match": f'"{digest}"'},
        )
        assert reply.status == 304
        assert reply.etag == f'"{digest}"'  # lowercase, as issued

    def test_get_with_a_body_closes_the_connection(self, live_server):
        """Unread body bytes must never be parsed as the next request."""
        import http.client

        conn = http.client.HTTPConnection(
            live_server.host, live_server.port, timeout=30
        )
        try:
            conn.request(
                "GET", "/healthz", body=b'{"stray": "body"}'
            )
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Connection") == "close"
            response.read()
        finally:
            conn.close()


class TestTieredDaemon:
    """The mem-over-file daemon: warm artifacts byte-identical to the
    flat-store answer, hot digests served with zero file reads after first
    promotion (the acceptance criterion, asserted via per-tier stats)."""

    def test_hot_digest_never_touches_the_file_tier(self, tmp_path):
        import http.client
        import threading

        from repro.scenarios.store import ResultStore
        from repro.serving import create_server

        # The durable tier is warmed by a plain CLI run.
        cache_dir = tmp_path / "cache"
        assert main(["run", CHEAP_TABLE, "--cache-dir", str(cache_dir)]) == 0
        flat = ResultStore(cache_dir).get(get(CHEAP_TABLE))
        assert flat is not None

        store = ResultStore(f"mem://,file://{cache_dir}")
        mem_tier, file_tier = store.backend.tiers
        server = create_server(port=0, store=store)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            conn = http.client.HTTPConnection(host, port, timeout=30)

            def post_run():
                conn.request(
                    "POST", "/run", json.dumps({"scenario": CHEAP_TABLE})
                )
                response = conn.getresponse()
                return response.status, json.loads(response.read())

            # First request: file-tier hit, promoted into mem.
            status, body = post_run()
            assert status == 200 and body["from_cache"] is True
            assert body["artifacts"]["text"] == flat.text
            assert file_tier.counters.hits == 1
            assert mem_tier.contains(body["digest"])

            # Hot requests: zero file reads, byte-identical artifacts.
            file_reads = file_tier.counters.reads
            for _ in range(5):
                status, hot = post_run()
                assert status == 200 and hot["from_cache"] is True
                assert hot["artifacts"] == body["artifacts"]
            assert file_tier.counters.reads == file_reads
            assert mem_tier.counters.hits >= 5

            # /stats exposes the per-tier breakdown that pinned this.
            conn.request("GET", "/stats")
            stats = json.loads(conn.getresponse().read())
            tiers = stats["store"]["backend"]["tiers"]
            assert [t["kind"] for t in tiers] == ["mem", "file"]
            assert tiers[0]["counters"]["hits"] >= 5
            assert tiers[1]["counters"]["reads"] == file_reads
            assert stats["store"]["backend"]["counters"]["promotions"] == 1
            conn.close()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_stats_report_median_created_age(self, live_server):
        live_server.post_json("/run?wait=1", {"scenario": CHEAP_TABLE})
        live_server.post_json("/run?wait=1", {"scenario": "table1"})
        block = live_server.request("GET", "/stats").json()["store"][
            "provenance"
        ]
        assert block["median_created_unix"] is not None
        assert (
            block["oldest_created_unix"]
            <= block["median_created_unix"]
            <= block["newest_created_unix"]
        )
