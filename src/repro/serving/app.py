"""Routing core of the scenario serving daemon — HTTP-free and testable.

:class:`ServingApp` maps ``(method, path, body, headers)`` to a
:class:`Response` without touching a socket, so the request-handling
contract (status codes, structured error JSON, ``ETag``/``If-None-Match``
semantics) can be unit- and fuzz-tested in-process at memory speed; the
thin :mod:`repro.serving.server` layer adapts it onto
``http.server.ThreadingHTTPServer``.

Routes (responses are JSON unless noted)::

    GET  /healthz                 liveness + schema version
    GET  /stats                   server counters + job-engine gauges +
                                  store/backend stats (per-tier
                                  breakdowns) + provenance ages
    GET  /scenarios               the registry (name, kind, description,
                                  digest)
    GET  /scenarios/<name>        one spec (the ``to_dict`` form) + digest
    POST /run                     run one scenario ({"scenario":
                                  name-or-spec}) or a batch
                                  ({"scenarios": [...]}); cold digests are
                                  enqueued as jobs and answered 202 unless
                                  ``?wait=1`` / ``Prefer: wait`` asks to
                                  wait for the job's result
    GET  /jobs                    in-flight + recent terminal jobs
    GET  /jobs/<digest>           one job: queued|running|done|failed with
                                  queue position, timings, provenance
                                  (done ⇒ 303 to /results/<digest>)
    GET  /results/<digest>        one stored entry by bare content address;
                                  with ``Accept: application/
                                  x-repro-entry+json`` the *stored entry
                                  bytes* are served verbatim (the
                                  federation wire format peers replicate)
    PUT  /results/<digest>        replicate an entry from a peer: the body
                                  is the stored-entry JSON, verified
                                  against the digest's canonical spec hash
                                  (structured 4xx on mismatch) unless the
                                  daemon runs with ``--trust-puts``
    DELETE /results/<digest>      drop one stored entry (peer-driven
                                  invalidation/gc)
    GET  /results/<digest>/csv    the cached CSV artifact (``text/csv``)
    GET  /results/<digest>/text   the rendered figure/table
                                  (``text/plain``)
    GET  /store/entries           storage metadata per entry (digest,
                                  size, LRU mtime) — drives client-side
                                  ``entries()``/``gc()`` of remote tiers

Caching contract: the response to ``POST /run`` and ``GET /results/…``
(all three representations) is fully determined by the spec digest (the
store's content address), so the digest **is** the ``ETag`` — a request
carrying a matching ``If-None-Match`` is answered ``304`` before the
store is even consulted, a warm digest is served straight from the
:class:`ResultStore` backend (with a ``mem://`` tier stacked over the
cache dir, hot digests never touch the filesystem at all), and only
genuine misses enter the compute path.

Every cold compute is a *job* on the app's
:class:`~repro.serving.jobs.JobManager`: duplicate digests coalesce onto
one computation, at most ``--job-workers`` computes run at once, and at
most ``--max-queue`` jobs wait for a slot — beyond that the request is
answered a structured ``429`` carrying ``Retry-After``.  By default a
miss is queued and answered ``202 {"digest", "status", "status_url"}``
immediately; the client polls ``GET /jobs/<digest>`` until it is
redirected (``303``) to the stored result.  ``?wait=1`` (or ``Prefer:
wait``) makes the request wait for the job instead: it joins the
digest's in-flight job, or runs a new one on its own handler thread when
a compute slot is free, and answers the ``200`` result body.

Error contract: every failure is a structured JSON body
``{"error": <slug>, "detail": <human text>}`` with the right 4xx status —
malformed JSON is 400, an unknown scenario or digest is 404, an over-size
body is 413, a wrong method on a known path is 405, an overloaded job
queue is 429.  A *compute-time* failure is classified by whose spec blew
up: an inline (client-sent) spec is a 400/``invalid-scenario``, a
registry (server-owned) spec is a 500/``compute-failed`` for a request
that waited and the job's ``failed`` state on the async path.
Unexpected exceptions become a 500 with a generic body: no traceback
ever leaves the process.

Scenario references over the wire are **registry names or inline spec
dicts only** — unlike the CLI, a request body can not name a server-side
file path (a network peer must never drive local file reads).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import statistics
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import ConfigError
from repro.scenarios.backends.base import STORE_FORMAT
from repro.scenarios.backends.http import ENTRY_CONTENT_TYPE
from repro.scenarios.registry import REGISTRY
from repro.scenarios.spec import Scenario
from repro.scenarios.store import (
    ResultStore,
    StoredResult,
    is_digest,
    run_cached,
)
from repro.serving.jobs import (
    DEFAULT_JOB_WORKERS,
    DEFAULT_MAX_QUEUE,
    DEFAULT_RETENTION,
    DONE,
    JobFailedError,
    JobManager,
    QueueFullError,
)

#: Default request-body ceiling: far above any sane inline spec (the
#: largest registry spec serializes to ~2 KiB) yet small enough that a
#: misdirected upload cannot balloon the process.
MAX_BODY_BYTES = 1 << 20

#: Batch ceiling for one ``POST /run`` request.
MAX_BATCH_ITEMS = 256

#: ``/stats`` provenance scan ceiling: summarizing provenance means JSON-
#: parsing whole entry files (artifact payloads included), so a monitoring
#: endpoint polled against a huge store must bound how many it opens.
#: Entry counts and byte totals always come from ``stat`` alone.
MAX_STATS_PROVENANCE_SCAN = 256


@dataclass(frozen=True)
class Response:
    """One routed response: status, body (``None`` ⇒ bodyless 304), extra
    headers (``ETag``) and an optional content type.

    ``content_type=None`` (the default) means a JSON body serialized by
    :meth:`body_bytes`; the artifact routes (``…/csv``, ``…/text``) set an
    explicit type and carry their body as raw text, byte-identical to the
    CLI-written artifact files.
    """

    status: int
    body: Any
    headers: Mapping[str, str] = field(default_factory=dict)
    #: ``None`` ⇒ ``application/json``; otherwise sent verbatim and the
    #: body is raw text/bytes, not JSON-serialized.
    content_type: str | None = None

    def body_bytes(self) -> bytes:
        """The serialized body (empty for bodyless responses)."""
        if self.body is None:
            return b""
        if self.content_type is not None:
            if isinstance(self.body, bytes):
                return self.body
            return str(self.body).encode()
        return (json.dumps(self.body, indent=1) + "\n").encode()


def error_response(
    status: int,
    error: str,
    detail: str,
    headers: Mapping[str, str] | None = None,
) -> Response:
    """A structured error body — the only shape failures ever take.

    ``headers`` carries response headers that are part of the error
    contract itself (a 429's ``Retry-After``).
    """
    return Response(status, {"error": error, "detail": detail}, headers or {})


def etag_for(digest: str) -> str:
    """The strong validator for a digest-addressed representation."""
    return f'"{digest}"'


def if_none_match_matches(header: str | None, digest: str) -> bool:
    """RFC-ish ``If-None-Match`` check against a digest ETag.

    Accepts a comma-separated list, quoted or bare tags, weak (``W/``)
    prefixes and ``*``; anything unparseable simply does not match.
    """
    if not header:
        return False
    for candidate in header.split(","):
        tag = candidate.strip()
        if tag == "*":
            return True
        if tag.startswith(("W/", "w/")):
            tag = tag[2:]
        if tag.startswith('"') and tag.endswith('"') and len(tag) >= 2:
            tag = tag[1:-1]
        if tag == digest:
            return True
    return False


@dataclass
class ServeStats:
    """Process-lifetime serving counters (the ``/stats`` ``server`` block).

    ``started_unix`` is wall-clock, for display only; ``uptime_s`` is
    derived from the monotonic clock, so an NTP step (or a ``date -s``)
    can never make uptime jump or go negative.
    """

    started_unix: float = field(default_factory=time.time)
    started_monotonic: float = field(default_factory=time.monotonic)
    requests: int = 0
    runs: int = 0
    served_from_store: int = 0
    computed: int = 0
    not_modified: int = 0
    accepted_jobs: int = 0
    rejected_jobs: int = 0
    client_errors: int = 0
    server_errors: int = 0
    #: Federation traffic: raw-entry reads, replications in, deletions —
    #: the peer-facing counters, distinct from human/JSON serving.
    entry_reads: int = 0
    entry_puts: int = 0
    entry_deletes: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "started_unix": self.started_unix,
            "uptime_s": time.monotonic() - self.started_monotonic,
            "requests": self.requests,
            "runs": self.runs,
            "served_from_store": self.served_from_store,
            "computed": self.computed,
            "not_modified": self.not_modified,
            "accepted_jobs": self.accepted_jobs,
            "rejected_jobs": self.rejected_jobs,
            "client_errors": self.client_errors,
            "server_errors": self.server_errors,
            "entry_reads": self.entry_reads,
            "entry_puts": self.entry_puts,
            "entry_deletes": self.entry_deletes,
        }


class ServingApp:
    """The daemon's request router over one :class:`ResultStore`."""

    def __init__(
        self,
        store: "ResultStore | str | None" = None,
        *,
        workers: int | None = None,
        max_body_bytes: int = MAX_BODY_BYTES,
        job_workers: int = DEFAULT_JOB_WORKERS,
        max_queue: int = DEFAULT_MAX_QUEUE,
        job_retention: int = DEFAULT_RETENTION,
        trust_puts: bool = False,
    ) -> None:
        if isinstance(store, str):
            # URL addressing: mem://, file:///path?shard=1, ro:///mirror,
            # comma-separated tiers, or a bare cache-dir path.
            store = ResultStore(store)
        self.store = store if store is not None else ResultStore()
        self.workers = workers
        self.max_body_bytes = max_body_bytes
        #: ``PUT /results/<digest>`` verification policy.  ``False``
        #: (default): the body must be a well-formed entry whose canonical
        #: spec hash *is* the digest — a hostile peer cannot poison the
        #: store.  ``True`` (``--trust-puts``): bytes are stored opaquely,
        #: which is the raw :class:`StoreBackend` contract — for peers
        #: inside a trusted cluster, where the *reading* front-end owns
        #: validation exactly as it does for a shared directory.
        self.trust_puts = trust_puts
        if workers:
            # This process runs handler threads; fork-based fan-out could
            # clone a lock mid-acquire and deadlock the child.  Forkserver
            # workers start from a clean, threadless helper process.
            from repro.analysis import sweep

            if sweep.FANOUT_START_METHOD is None:
                sweep.FANOUT_START_METHOD = "forkserver"
        self.stats = ServeStats()
        self._stats_lock = threading.Lock()
        #: The job engine behind every cold ``POST /run`` and the
        #: ``/jobs`` routes.  ``run_cached`` is looked up at call time, so
        #: it can be wrapped in place.
        self.jobs = JobManager(
            lambda scenario: run_cached(
                scenario, self.store, workers=self.workers
            ),
            n_workers=job_workers,
            max_queue=max_queue,
            retention=job_retention,
            on_terminal=self._job_finished,
        )

    def _job_finished(self, job) -> None:
        """Job-engine terminal hook: the one place a job's compute is
        counted, however many requests waited on it."""
        if job.state == DONE:
            self._count("served_from_store" if job.from_cache else "computed")

    def close(self) -> None:
        """Stop the job engine's worker pool (idempotent)."""
        self.jobs.shutdown()

    # -- entry point --------------------------------------------------------
    def handle(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        headers: Mapping[str, str] | None = None,
    ) -> Response:
        """Route one request; never raises."""
        lowered = {
            str(key).lower(): str(value)
            for key, value in (headers or {}).items()
        }
        self._count("requests")
        try:
            # No blanket ConfigError → 400 here: request-resolution errors
            # are answered 4xx at their source, so a ConfigError escaping
            # to this level is a server-side defect and must say so.
            response = self._route(method.upper(), path, body, lowered)
        except Exception as exc:  # noqa: BLE001 — the no-traceback contract
            response = error_response(
                500, "internal", f"unexpected {type(exc).__name__}"
            )
        if 400 <= response.status < 500:
            self._count("client_errors")
        elif response.status >= 500:
            self._count("server_errors")
        elif response.status == 304:
            self._count("not_modified")
        return response

    def _count(self, counter: str, n: int = 1) -> None:
        with self._stats_lock:
            setattr(self.stats, counter, getattr(self.stats, counter) + n)

    # -- routing ------------------------------------------------------------
    def _route(
        self,
        method: str,
        path: str,
        body: bytes,
        headers: Mapping[str, str],
    ) -> Response:
        path, _, query = path.partition("?")
        parts = [part for part in path.split("/") if part]

        if parts == ["healthz"]:
            return self._require_get(method) or self._handle_healthz()
        if parts == ["stats"]:
            return self._require_get(method) or self._handle_stats()
        if parts == ["scenarios"]:
            return self._require_get(method) or self._handle_scenarios()
        if len(parts) == 2 and parts[0] == "scenarios":
            return self._require_get(method) or self._handle_scenario(
                parts[1], headers
            )
        if parts == ["jobs"]:
            return self._require_get(method) or self._handle_jobs()
        if len(parts) == 2 and parts[0] == "jobs":
            return self._require_get(method) or self._handle_job(parts[1])
        if len(parts) == 2 and parts[0] == "results":
            if method == "GET":
                return self._handle_result(parts[1], headers)
            if method == "PUT":
                return self._handle_result_put(parts[1], body)
            if method == "DELETE":
                return self._handle_result_delete(parts[1])
            return error_response(
                405,
                "method-not-allowed",
                "GET, PUT or DELETE /results/<digest>",
            )
        if parts == ["store", "entries"]:
            return self._require_get(method) or self._handle_store_entries()
        if len(parts) == 3 and parts[0] == "results":
            return self._require_get(method) or self._handle_result_artifact(
                parts[1], parts[2], headers
            )
        if parts == ["run"]:
            if method != "POST":
                return error_response(
                    405, "method-not-allowed", "POST /run"
                )
            return self._handle_run(body, headers, query)
        return error_response(404, "not-found", f"no route for {path!r}")

    @staticmethod
    def _require_get(method: str) -> Response | None:
        if method != "GET":
            return error_response(
                405, "method-not-allowed", "this route is GET-only"
            )
        return None

    # -- GET routes ---------------------------------------------------------
    def _handle_healthz(self) -> Response:
        return Response(
            200,
            {"status": "ok", "schema_version": self.store.schema_version},
        )

    def _handle_stats(self) -> Response:
        # One backend scan covers sizes *and* the per-tier breakdown; the
        # top-level n_entries/total_bytes are read out of the same block
        # instead of a second disk_usage() walk.
        backend_block = self.store.backend.stats()
        n_entries = backend_block["n_entries"]
        total_bytes = backend_block["total_bytes"]
        scanned = list(
            itertools.islice(self.store.entries(), MAX_STATS_PROVENANCE_SCAN)
        )
        with_provenance = [e for e in scanned if e.provenance is not None]
        # Min/max over *stamped* entries only: the created_unix=0.0
        # age-dating sentinel of pre-provenance entries must not leak a
        # fabricated 1970 timestamp into a dashboard.
        stamps = [e.provenance.created_unix for e in with_provenance]
        provenance_block = {
            "entries_scanned": len(scanned),
            "entries_with_provenance": len(with_provenance),
            "entries_missing_provenance": len(scanned) - len(with_provenance),
            "oldest_created_unix": min(stamps) if stamps else None,
            "newest_created_unix": max(stamps) if stamps else None,
            "median_created_unix": (
                statistics.median(stamps) if stamps else None
            ),
            "hosts": sorted(
                {entry.provenance.host for entry in with_provenance}
            ),
            "code_revs": sorted(
                {
                    entry.provenance.code_rev
                    for entry in with_provenance
                    if entry.provenance.code_rev is not None
                }
            ),
        }
        cache_dir = self.store.cache_dir
        return Response(
            200,
            {
                "server": self.stats.to_dict(),
                "jobs": self.jobs.stats(),
                "store": {
                    "url": self.store.url,
                    "writable": self.store.writable,
                    "cache_dir": (
                        str(cache_dir) if cache_dir is not None else None
                    ),
                    "schema_version": self.store.schema_version,
                    "shard": self.store.shard,
                    "max_bytes": self.store.max_bytes,
                    "max_entries": self.store.max_entries,
                    # stat-only: never scales with cached payload bytes.
                    "n_entries": n_entries,
                    "total_bytes": total_bytes,
                    "counters": self.store.stats.to_dict(),
                    # Per-backend (and, for tiered stores, per-tier)
                    # breakdown — how shared mirrors and hot tiers are
                    # audited.
                    "backend": backend_block,
                    "provenance": provenance_block,
                },
            },
        )

    def _handle_scenarios(self) -> Response:
        return Response(
            200,
            {
                "scenarios": [
                    {
                        "name": scenario.name,
                        "kind": scenario.kind,
                        "description": scenario.description,
                        "digest": self.store.digest(scenario),
                    }
                    for scenario in REGISTRY.values()
                ]
            },
        )

    def _handle_scenario(
        self, name: str, headers: Mapping[str, str]
    ) -> Response:
        scenario = REGISTRY.get(name)
        if scenario is None:
            return error_response(
                404, "unknown-scenario", f"no registered scenario {name!r}"
            )
        digest = self.store.digest(scenario)
        if if_none_match_matches(headers.get("if-none-match"), digest):
            return Response(304, None, {"ETag": etag_for(digest)})
        return Response(
            200,
            {"name": name, "digest": digest, "spec": scenario.to_dict()},
            {"ETag": etag_for(digest)},
        )

    # -- job status routes --------------------------------------------------
    def _handle_jobs(self) -> Response:
        return Response(
            200,
            {"jobs": self.jobs.list_jobs(), "counters": self.jobs.stats()},
        )

    def _handle_job(self, digest: str) -> Response:
        digest = digest.lower()
        if not is_digest(digest):
            return error_response(
                400,
                "bad-digest",
                f"malformed job digest {digest!r}: expected 64 hex chars",
            )
        snapshot = self.jobs.describe(digest)
        if snapshot is None:
            # The job engine never saw this digest (or GC'd it), but the
            # result may exist anyway — computed synchronously, by the
            # CLI, or in a previous daemon life.  Existence is what the
            # client is really asking about, so answer done.
            if self.store.contains(digest):
                return Response(
                    303,
                    {
                        "digest": digest,
                        "status": DONE,
                        "result_url": f"/results/{digest}",
                    },
                    {"Location": f"/results/{digest}"},
                )
            return error_response(
                404,
                "unknown-job",
                f"no job (and no stored result) for digest {digest!r}",
            )
        if snapshot["status"] == DONE:
            return Response(
                303, snapshot, {"Location": f"/results/{digest}"}
            )
        return Response(200, snapshot)

    def _handle_result(
        self, digest: str, headers: Mapping[str, str]
    ) -> Response:
        # Normalize before the validator comparison too: a request for
        # /results/ABC… must match (and re-issue) the lowercase ETag the
        # server hands out.
        digest = digest.lower()
        if not is_digest(digest):
            return error_response(
                400,
                "bad-digest",
                f"malformed result digest {digest!r}: expected 64 hex chars",
            )
        # Peers negotiate the *stored entry bytes* (the federation wire
        # format) instead of the reconstructed JSON view.
        wants_entry = ENTRY_CONTENT_TYPE in headers.get("accept", "")
        # The representation is immutable per digest: a matching validator
        # plus a stat-only existence probe answers the bodyless 304 without
        # reading (or even JSON-parsing) the artifact payload.
        if if_none_match_matches(headers.get("if-none-match"), digest):
            if self.store.contains(digest):
                if wants_entry:
                    # A raw-entry revalidation is a peer serving this
                    # entry out of its local copy — that's a *use*, so it
                    # must refresh the entry's LRU position exactly like a
                    # body-moving read would have.
                    self.store.backend.touch(digest)
                return Response(304, None, {"ETag": etag_for(digest)})
            return error_response(
                404, "unknown-digest", f"no stored result {digest!r}"
            )
        if wants_entry:
            return self._serve_raw_entry(digest)
        entry = self.store.read_digest(digest)
        if entry is None:
            return error_response(
                404, "unknown-digest", f"no stored result {digest!r}"
            )
        return Response(
            200,
            {
                "digest": entry["digest"],
                "scenario": entry["scenario"],
                "provenance": entry.get("provenance"),
                "artifacts": entry["artifacts"],
            },
            {"ETag": etag_for(entry["digest"])},
        )

    def _serve_raw_entry(self, digest: str) -> Response:
        """The stored entry bytes, verbatim — no validation, no healing.

        Serving torn bytes is deliberate: the backend contract is opaque
        storage, and the *reading* front-end (on the peer that asked)
        detects corruption and drives the heal via ``DELETE``.
        """
        try:
            data = self.store.backend.read(digest)
        except OSError:
            data = None
        if data is None:
            return error_response(
                404, "unknown-digest", f"no stored result {digest!r}"
            )
        self._count("entry_reads")
        return Response(
            200,
            data,
            {"ETag": etag_for(digest)},
            content_type=ENTRY_CONTENT_TYPE,
        )

    def _handle_result_put(self, digest: str, body: bytes) -> Response:
        digest = digest.lower()
        if not is_digest(digest):
            return error_response(
                400,
                "bad-digest",
                f"malformed result digest {digest!r}: expected 64 hex chars",
            )
        if not self.store.writable:
            return error_response(
                403, "read-only", "this store does not accept writes"
            )
        if len(body) > self.max_body_bytes:
            return error_response(
                413,
                "payload-too-large",
                f"body exceeds {self.max_body_bytes} bytes",
            )
        if not body:
            return error_response(
                400, "empty-body", "expected stored-entry bytes"
            )
        if not self.trust_puts:
            rejection = self._verify_entry_put(digest, body)
            if rejection is not None:
                return rejection
        self.store.backend.write(digest, body)
        if getattr(self.store.backend, "capped", False):
            # Same policy as a local put: capped backends hold their size
            # budget through a post-write gc pass.
            self.store.gc(sweep_tmp=False)
        self._count("entry_puts")
        return Response(
            201,
            {
                "digest": digest,
                "stored": True,
                "verified": not self.trust_puts,
                "size_bytes": len(body),
            },
            {"ETag": etag_for(digest)},
        )

    def _verify_entry_put(self, digest: str, body: bytes) -> Response | None:
        """Strict replication admission: the body must be a well-formed
        entry whose canonical spec hash *is* the URL digest.  Returns the
        structured 4xx rejection, or ``None`` when the entry is genuine.
        """
        try:
            entry = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            return error_response(
                400, "invalid-entry", f"entry body is not JSON: {exc}"
            )
        if not isinstance(entry, dict) or entry.get("format") != STORE_FORMAT:
            return error_response(
                400,
                "invalid-entry",
                f"not a result-store entry (missing {STORE_FORMAT!r} marker)",
            )
        if entry.get("schema_version") != self.store.schema_version:
            return error_response(
                409,
                "schema-mismatch",
                f"entry schema_version {entry.get('schema_version')!r} != "
                f"server schema_version {self.store.schema_version}",
            )
        if entry.get("digest") != digest:
            return error_response(
                400,
                "digest-mismatch",
                f"entry claims digest {str(entry.get('digest'))[:72]!r}, "
                f"URL says {digest!r}",
            )
        scenario = entry.get("scenario")
        if not isinstance(scenario, dict):
            return error_response(
                400, "invalid-entry", "entry carries no scenario spec object"
            )
        # The same canonical serialization the store digests on put —
        # a body whose spec doesn't hash to its address is rejected no
        # matter what its digest field claims.
        canonical = json.dumps(
            {
                "schema_version": entry["schema_version"],
                "scenario": scenario,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        actual = hashlib.sha256(canonical.encode()).hexdigest()
        if actual != digest:
            return error_response(
                400,
                "digest-mismatch",
                f"body's canonical spec hash is {actual}, not {digest}",
            )
        artifacts = entry.get("artifacts")
        if (
            not isinstance(artifacts, dict)
            or not isinstance(artifacts.get("raw"), dict)
            or not isinstance(artifacts.get("text"), str)
        ):
            return error_response(
                400, "invalid-entry", "entry artifact payload is malformed"
            )
        return None

    def _handle_result_delete(self, digest: str) -> Response:
        digest = digest.lower()
        if not is_digest(digest):
            return error_response(
                400,
                "bad-digest",
                f"malformed result digest {digest!r}: expected 64 hex chars",
            )
        if not self.store.writable:
            return error_response(
                403, "read-only", "this store does not accept deletes"
            )
        if not self.store.backend.delete(digest):
            return error_response(
                404, "unknown-digest", f"no stored result {digest!r}"
            )
        self._count("entry_deletes")
        return Response(200, {"digest": digest, "deleted": True})

    def _handle_store_entries(self) -> Response:
        entries = [
            {
                "digest": entry.digest,
                "size_bytes": entry.size_bytes,
                "mtime": entry.mtime,
            }
            for entry in self.store.backend.entries()
        ]
        return Response(
            200,
            {
                "entries": entries,
                "n_entries": len(entries),
                "total_bytes": sum(e["size_bytes"] for e in entries),
            },
        )

    #: Content negotiation (the ``/results/<digest>/<stage>`` routes): each
    #: cached artifact stage served raw with its own media type.  Bytes
    #: match the CLI-written artifact files exactly (text files carry the
    #: trailing newline ``write_artifacts`` adds).
    ARTIFACT_STAGES = {
        "csv": ("csv", "text/csv; charset=utf-8"),
        "text": ("text", "text/plain; charset=utf-8"),
    }

    def _handle_result_artifact(
        self, digest: str, stage: str, headers: Mapping[str, str]
    ) -> Response:
        if stage not in self.ARTIFACT_STAGES:
            return error_response(
                404,
                "unknown-artifact",
                f"no artifact stage {stage!r}: expected one of "
                f"{sorted(self.ARTIFACT_STAGES)}",
            )
        digest = digest.lower()
        if not is_digest(digest):
            return error_response(
                400,
                "bad-digest",
                f"malformed result digest {digest!r}: expected 64 hex chars",
            )
        key, content_type = self.ARTIFACT_STAGES[stage]
        # Unlike the JSON route, a matching If-None-Match cannot be
        # answered from a bare existence probe: the entry may exist while
        # *this stage* does not (a table scenario has no CSV), and a 304
        # would wrongly assert the client's cached representation is still
        # valid.  So the entry is read either way and the 304 only covers
        # representations that actually exist.
        entry = self.store.read_digest(digest)
        if entry is None:
            return error_response(
                404, "unknown-digest", f"no stored result {digest!r}"
            )
        artifact = entry["artifacts"].get(key)
        if not isinstance(artifact, str):
            return error_response(
                404,
                f"no-{stage}-artifact",
                f"stored result {digest!r} has no {stage} artifact"
                + (" (not a grid scenario)" if key == "csv" else ""),
            )
        if if_none_match_matches(headers.get("if-none-match"), digest):
            return Response(304, None, {"ETag": etag_for(digest)})
        if key == "text":
            # write_artifacts() emits <name>.txt with a trailing newline;
            # serve the same bytes.
            artifact = artifact + "\n"
        return Response(
            200,
            artifact,
            {"ETag": etag_for(digest)},
            content_type=content_type,
        )

    # -- POST /run ----------------------------------------------------------
    @staticmethod
    def _wants_wait(query: str, headers: Mapping[str, str]) -> bool:
        """Whether this request opted into the synchronous compute path
        (``?wait=1`` or an RFC-7240-style ``Prefer: wait`` header)."""
        params = urllib.parse.parse_qs(query, keep_blank_values=True)
        values = params.get("wait")
        if values:
            return values[-1].strip().lower() not in ("0", "false", "no")
        prefer = headers.get("prefer", "")
        return any(
            token.split("=", 1)[0].strip().lower() == "wait"
            for token in prefer.split(",")
        )

    def _handle_run(
        self, body: bytes, headers: Mapping[str, str], query: str = ""
    ) -> Response:
        if len(body) > self.max_body_bytes:
            return error_response(
                413,
                "payload-too-large",
                f"body exceeds {self.max_body_bytes} bytes",
            )
        if not body:
            return error_response(
                400, "empty-body", 'expected {"scenario": …} JSON'
            )
        try:
            request = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return error_response(400, "invalid-json", str(exc))
        if not isinstance(request, dict):
            return error_response(
                400, "invalid-request", "request body must be a JSON object"
            )
        has_single = "scenario" in request
        has_batch = "scenarios" in request
        if has_single == has_batch:
            return error_response(
                400,
                "invalid-request",
                'exactly one of "scenario" or "scenarios" is required',
            )
        wait = self._wants_wait(query, headers)
        if has_single:
            return self._run_single(request["scenario"], headers, wait)
        return self._run_batch(request["scenarios"], wait)

    def _resolve(self, item: Any) -> Scenario | Response:
        """A registry name or inline spec dict — never a server-side path."""
        if isinstance(item, str):
            scenario = REGISTRY.get(item)
            if scenario is None:
                return error_response(
                    404,
                    "unknown-scenario",
                    f"no registered scenario {item!r} "
                    "(inline specs must be JSON objects)",
                )
            return scenario
        if isinstance(item, dict):
            try:
                return Scenario.from_dict(item)
            except (ConfigError, ValueError, TypeError, KeyError) as exc:
                return error_response(
                    400, "invalid-scenario", f"not a scenario spec: {exc}"
                )
        return error_response(
            400,
            "invalid-scenario",
            "a scenario reference must be a registry name or a spec object",
        )

    @staticmethod
    def _job_failure(error: Mapping[str, str], inline: bool) -> Response:
        """The response to a request that waited on a failed job.

        The 400 family only applies when the *client's own inline spec*
        turned out bad; a registry (server-owned) spec failing is a
        server defect and must be a 5xx, not blamed on the request.
        """
        slug, detail = error["error"], error["detail"]
        if slug not in ("invalid-scenario", "compute-failed"):
            status = 503 if slug == "shutting-down" else 500
            return error_response(status, slug, detail)
        if inline:
            detail = f"spec failed during compute: {detail}"
            return error_response(400, "invalid-scenario", detail)
        return error_response(500, "compute-failed", detail)

    def _overloaded(self, exc: QueueFullError) -> Response:
        self._count("rejected_jobs")
        return error_response(
            429,
            "overloaded",
            str(exc),
            {"Retry-After": str(exc.retry_after_s)},
        )

    def _run_single(
        self, item: Any, headers: Mapping[str, str], wait: bool
    ) -> Response:
        resolved = self._resolve(item)
        if isinstance(resolved, Response):
            return resolved
        origin = "inline" if isinstance(item, dict) else "registry"
        digest = self.store.digest(resolved)
        # Count the run before the conditional check: a 304-revalidated
        # run is still a run, and must not vanish from /stats.
        self._count("runs")
        if if_none_match_matches(headers.get("if-none-match"), digest):
            return Response(304, None, {"ETag": etag_for(digest)})
        result = self.store.get(resolved)
        if result is not None:
            self._count("served_from_store")
        elif wait:
            try:
                result = self.jobs.run(resolved, digest, origin=origin)
            except QueueFullError as exc:
                return self._overloaded(exc)
            except JobFailedError as exc:
                return self._job_failure(exc.error, origin == "inline")
        else:
            # Cold, asynchronous: enqueue (or coalesce) and answer 202.
            try:
                snapshot = self.jobs.submit(resolved, digest, origin=origin)
            except QueueFullError as exc:
                return self._overloaded(exc)
            self._count("accepted_jobs")
            return Response(
                202,
                {
                    "name": resolved.name,
                    "digest": digest,
                    "status": snapshot["status"],
                    "status_url": f"/jobs/{digest}",
                    "queue_position": snapshot["queue_position"],
                    "coalesced": snapshot["coalesced_onto_existing"],
                },
                {"Location": f"/jobs/{digest}"},
            )
        return Response(
            200,
            {
                "name": resolved.name,
                "digest": digest,
                "from_cache": result.from_cache,
                "provenance": (
                    result.provenance.to_dict() if result.provenance else None
                ),
                "artifacts": _artifacts(result),
            },
            {"ETag": etag_for(digest)},
        )

    def _run_batch(self, items: Any, wait: bool) -> Response:
        if not isinstance(items, list) or not items:
            return error_response(
                400, "invalid-request", '"scenarios" must be a non-empty list'
            )
        if len(items) > MAX_BATCH_ITEMS:
            return error_response(
                413,
                "batch-too-large",
                f"at most {MAX_BATCH_ITEMS} scenarios per request",
            )
        resolved: list[Scenario] = []
        origins: list[str] = []
        for item in items:
            scenario = self._resolve(item)
            if isinstance(scenario, Response):
                return scenario
            resolved.append(scenario)
            origins.append("inline" if isinstance(item, dict) else "registry")
        self._count("runs", len(resolved))
        digests = [self.store.digest(scenario) for scenario in resolved]
        if not wait:
            warmness = [self.store.contains(digest) for digest in digests]
            if not all(warmness):
                return self._enqueue_batch(resolved, digests, origins, warmness)
        return self._serve_batch(resolved, digests, origins)

    def _serve_batch(
        self, resolved: list[Scenario], digests: list[str], origins: list[str]
    ) -> Response:
        """Every item's artifacts (``?wait=1``, or all warm): each unique
        digest is read from the store, or else joined or run as a job —
        so a warm batch never waits behind anyone's cold compute."""
        results: dict[str, StoredResult] = {}
        failures: dict[str, Mapping[str, str]] = {}
        n_from_store = 0
        for scenario, digest, origin in zip(resolved, digests, origins):
            if digest in results or digest in failures:
                continue
            result = self.store.get(scenario)
            if result is not None:
                n_from_store += 1
            else:
                try:
                    result = self.jobs.run(scenario, digest, origin=origin)
                except QueueFullError as exc:
                    return self._overloaded(exc)
                except JobFailedError as exc:
                    failures[digest] = exc.error
                    continue
            results[digest] = result
        if failures:
            # Blame the client only when a failed item was client-sent.
            inline = any(
                origin == "inline"
                for digest, origin in zip(digests, origins)
                if digest in failures
            )
            return self._job_failure(next(iter(failures.values())), inline)
        self._count("served_from_store", n_from_store)
        entries = [
            {
                "name": scenario.name,
                "digest": digest,
                "from_cache": results[digest].from_cache,
                "deduplicated": digests.index(digest) < i,
                "artifacts": _artifacts(results[digest]),
            }
            for i, (scenario, digest) in enumerate(zip(resolved, digests))
        ]
        n_unique = len(results)
        return Response(
            200,
            {
                "entries": entries,
                "stats": {
                    "n_items": len(entries),
                    "n_unique": n_unique,
                    "n_from_store": n_from_store,
                    "n_computed": n_unique - n_from_store,
                    "n_deduplicated": len(entries) - n_unique,
                    "store_hit_rate": n_from_store / n_unique,
                },
            },
        )

    def _enqueue_batch(
        self,
        resolved: list[Scenario],
        digests: list[str],
        origins: list[str],
        warmness: list[bool],
    ) -> Response:
        """Async batch admission: every unique cold digest becomes a job
        (admitted atomically — the whole batch or nothing), warm items are
        pointed at their stored results, and the response is a 202 status
        sheet rather than a pile of artifacts."""
        cold = [
            (scenario, digest, origin)
            for scenario, digest, origin, warm in zip(
                resolved, digests, origins, warmness
            )
            if not warm
        ]
        try:
            snapshots = self.jobs.submit_many(cold)
        except QueueFullError as exc:
            return self._overloaded(exc)
        self._count("accepted_jobs", len(snapshots))
        entries = []
        for scenario, digest, warm in zip(resolved, digests, warmness):
            if warm:
                entries.append(
                    {
                        "name": scenario.name,
                        "digest": digest,
                        "status": DONE,
                        "result_url": f"/results/{digest}",
                    }
                )
            else:
                snapshot = snapshots[digest]
                entries.append(
                    {
                        "name": scenario.name,
                        "digest": digest,
                        "status": snapshot["status"],
                        "status_url": f"/jobs/{digest}",
                        "queue_position": snapshot["queue_position"],
                    }
                )
        return Response(
            202,
            {
                "entries": entries,
                "stats": {
                    "n_items": len(entries),
                    "n_warm": sum(warmness),
                    "n_jobs": len(snapshots),
                },
            },
        )


def _artifacts(result: StoredResult) -> dict[str, Any]:
    """The ``artifacts`` block of a ``POST /run`` 200 body."""
    return {"raw": result.raw, "text": result.text, "csv": result.csv}


__all__ = [
    "MAX_BATCH_ITEMS",
    "MAX_BODY_BYTES",
    "MAX_STATS_PROVENANCE_SCAN",
    "Response",
    "ServeStats",
    "ServingApp",
    "error_response",
    "etag_for",
    "if_none_match_matches",
]
