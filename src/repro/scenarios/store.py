"""Content-addressed scenario result store: serve-many, compute-once.

Every :class:`~repro.scenarios.spec.Scenario` round-trips losslessly through
``to_dict``, so a stable digest of that dict **is** the result's identity: a
sha256 over the canonical (sorted-key, separator-normalized) JSON of the
spec plus the store's *schema version* — the code-version stamp that is
bumped whenever the runner, the extractors or the artifact layout change
meaning.  Any field mutation anywhere in the spec (a swept bandwidth, a
different batch, a renamed extractor) changes the digest; any schema bump
orphans every old entry.

:class:`ResultStore` is a thin digest/orchestration front-end over a
pluggable :class:`~repro.scenarios.backends.base.StoreBackend` — *where*
the entry bytes live is the backend's business (a local cache directory,
an in-process LRU, a read-only mirror, or a tier stack of all three; see
:mod:`repro.scenarios.backends`).  The front-end owns addressing,
validation, the corrupt/self-heal policy and the store-level stats.  The
default backend keeps one JSON file per digest under a cache directory::

    <cache_dir>/<sha256-digest>.json
        { "format": "repro-scenario-result",
          "schema_version": 1,
          "digest": "…",
          "scenario": { …Scenario.to_dict()… },
          "artifacts": { "raw": {…}, "text": "…", "csv": "…|null" } }

What is cached is the *artifact payload* — the raw-JSON stage, the rendered
text figure/table and the CSV stage of the ``python -m repro`` pipeline —
so a warm :func:`run_cached` is a pure backend read: no systems are built,
no workloads mapped, no kernels timed (the cache-correctness suite asserts
the kernel-timing counters do not move), and the replayed artifacts are
byte-identical to the cold run's regardless of which backend served them.

Stores are addressable by URL everywhere one is accepted
(:func:`run_cached`, :func:`~repro.scenarios.batch.run_many`, the serving
daemon, the CLI's ``--cache``): ``mem://``, ``file:///path?shard=1``,
``ro:///mirror``, ``http://peer:8035`` (a remote daemon as a tier),
``ring://a;b?replicas=2`` (consistent-hash federation), or
comma-separated tiers — see :mod:`repro.scenarios.backends.url`.

:func:`run_cached` is the store-aware single-scenario entry point; the
batch runner (:mod:`repro.scenarios.batch`) and the CLI both route through
it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import socket
import subprocess
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.errors import ConfigError
from repro.scenarios.backends import (
    STORE_FORMAT,
    LocalFSBackend,
    StoreBackend,
    backend_from_url,
    is_store_url,
)
from repro.scenarios.backends.base import DIGEST_RE, STALE_TMP_SECONDS
from repro.scenarios.runner import ScenarioResult, run_scenario
from repro.scenarios.spec import Scenario

#: Result-schema/code version.  Bump whenever the runner, the extractor
#: vocabulary or the artifact layout change what a stored payload means —
#: the digest folds it in, so every old entry simply stops matching.
SCHEMA_VERSION = 1

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """The store location when none is given: ``$REPRO_CACHE_DIR`` or
    ``~/.cache/repro/scenarios``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "scenarios"


def canonical_spec_json(
    scenario: Scenario, schema_version: int = SCHEMA_VERSION
) -> str:
    """The canonical serialization the digest is computed over."""
    return json.dumps(
        {"schema_version": schema_version, "scenario": scenario.to_dict()},
        sort_keys=True,
        separators=(",", ":"),
    )


def scenario_digest(
    scenario: Scenario, schema_version: int = SCHEMA_VERSION
) -> str:
    """Content address of a scenario's result: sha256 of the canonical spec
    JSON + schema version."""
    return hashlib.sha256(
        canonical_spec_json(scenario, schema_version).encode()
    ).hexdigest()


def is_digest(value: str) -> bool:
    """Whether ``value`` is a well-formed content address (64 lowercase hex
    chars) — the validation behind :meth:`ResultStore.read_digest` and the
    serving daemon's ``/results`` routes."""
    return bool(DIGEST_RE.fullmatch(value))


@functools.lru_cache(maxsize=1)
def _code_rev() -> str | None:
    """The repo's short commit hash, when the package runs from a checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else None


@dataclass(frozen=True)
class Provenance:
    """Where one stored entry came from — *metadata only*.

    Provenance is deliberately **outside** the content address: the digest
    covers the spec + schema version and nothing else, so re-computing the
    same scenario on another host, at another time, from another commit
    lands on the same entry (the property suite pins this down).  It exists
    to age-date and trace entries: ``cache stats`` and the serving daemon's
    ``/stats`` surface it, and :meth:`ResultStore.gc` documentation leans on
    ``created_unix`` for trajectory dashboards.  Pre-provenance entries
    (written before this field existed) read back as ``None`` — they are
    valid, just age-dated as oldest.
    """

    schema_version: int
    host: str
    created_unix: float
    code_rev: str | None = None
    wall_time_s: float | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "host": self.host,
            "created_unix": self.created_unix,
            "code_rev": self.code_rev,
            "wall_time_s": self.wall_time_s,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "Provenance | None":
        """Read provenance back leniently: anything malformed is ``None``.

        A pre-GC-era entry (no ``provenance`` key) or a hand-edited one must
        never be treated as corrupt — the artifacts are still good; only the
        age-dating is unavailable.
        """
        if not isinstance(data, Mapping):
            return None
        try:
            return cls(
                schema_version=int(data["schema_version"]),
                host=str(data["host"]),
                created_unix=float(data["created_unix"]),
                code_rev=(
                    str(data["code_rev"])
                    if data.get("code_rev") is not None
                    else None
                ),
                wall_time_s=(
                    float(data["wall_time_s"])
                    if data.get("wall_time_s") is not None
                    else None
                ),
            )
        except (KeyError, TypeError, ValueError):
            return None


def current_provenance(wall_time_s: float | None = None) -> Provenance:
    """Provenance stamped by this process, right now."""
    return Provenance(
        schema_version=SCHEMA_VERSION,
        host=socket.gethostname(),
        created_unix=time.time(),
        code_rev=_code_rev(),
        wall_time_s=wall_time_s,
    )


def artifact_payload(result: ScenarioResult) -> dict[str, Any]:
    """The cacheable artifact stages of one scenario result.

    ``raw`` is the spec + per-point extracted values (the ``_raw.json``
    stage), ``text`` the rendered figure/table, ``csv`` the
    :meth:`~repro.analysis.sweep.SweepResult.to_csv_text` stage (grid
    scenarios only).  Everything is plain JSON data, so the payload survives
    the store round trip — and a process-pool hop — bit-exactly.
    """
    payload: dict[str, Any] = {
        "raw": result.to_raw(),
        "text": result.render(),
        "csv": None,
    }
    if result.sweep is not None:
        payload["csv"] = result.extracted_sweep().to_csv_text()
    return payload


@dataclass(frozen=True)
class StoredResult:
    """An artifact-backed scenario result (cold-computed or cache-replayed).

    Both paths of :func:`run_cached` produce this type, so consumers — the
    CLI, the batch runner, the golden-fixture tests — see one interface
    whether the numbers were just computed or replayed from a backend.  The
    extracted series are read back out of the raw payload; the full report
    objects are intentionally *not* carried (a cache replay never builds
    them).
    """

    scenario: Scenario
    raw: Mapping[str, Any]
    text: str
    csv: str | None
    digest: str
    from_cache: bool
    #: Entry metadata (host, wall time, code rev); ``None`` for uncached
    #: results and pre-provenance entries.  Never part of the digest.
    provenance: Provenance | None = None

    # -- artifact stages ----------------------------------------------------
    def render(self) -> str:
        """The rendered text figure/table (identical to the cold render)."""
        return self.text

    def to_raw(self) -> Mapping[str, Any]:
        """The raw-JSON stage (spec + per-point values)."""
        return self.raw

    def raw_json(self) -> str:
        """The exact bytes of the ``<name>_raw.json`` artifact."""
        return json.dumps(self.raw, indent=2) + "\n"

    def write_artifacts(self, out_dir: str | Path) -> list[Path]:
        """Write the staged raw-JSON → CSV → text pipeline into ``out_dir``."""
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        name = self.scenario.name
        written = []

        raw_path = directory / f"{name}_raw.json"
        raw_path.write_text(self.raw_json())
        written.append(raw_path)

        if self.csv is not None:
            csv_path = directory / f"{name}.csv"
            with open(csv_path, "w", newline="") as handle:
                handle.write(self.csv)
            written.append(csv_path)

        text_path = directory / f"{name}.txt"
        text_path.write_text(self.text + "\n")
        written.append(text_path)
        return written

    # -- series views (mirror ScenarioResult's accessors) -------------------
    def series(self, name: str) -> tuple[Any, ...]:
        """One named extractor's values across all points."""
        series = self.raw.get("series")
        if series is None or name not in series:
            raise ConfigError(
                f"stored result for {self.scenario.name!r} has no series "
                f"{name!r}"
            )
        return tuple(series[name])

    def all_series(self) -> dict[str, tuple[Any, ...]]:
        """Every extracted series, keyed by extractor name."""
        return {
            name: tuple(values)
            for name, values in self.raw.get("series", {}).items()
        }

    def axis(self, name: str) -> tuple[Any, ...]:
        """The swept values of one grid axis."""
        points = self.raw.get("points")
        if not points:
            raise ConfigError(
                f"stored result for {self.scenario.name!r} has no sweep points"
            )
        try:
            return tuple(point["params"][name] for point in points)
        except KeyError:
            raise ConfigError(
                f"stored result for {self.scenario.name!r} has no axis "
                f"{name!r}"
            ) from None


def stored_from_payload(
    scenario: Scenario,
    payload: Mapping[str, Any],
    digest: str,
    from_cache: bool = False,
    provenance: Provenance | None = None,
) -> StoredResult:
    """Wrap an artifact payload as a :class:`StoredResult` view."""
    return StoredResult(
        scenario=scenario,
        raw=payload["raw"],
        text=payload["text"],
        csv=payload.get("csv"),
        digest=digest,
        from_cache=from_cache,
        provenance=provenance,
    )


@dataclass
class StoreStats:
    """Store traffic counters (process-lifetime, per :class:`ResultStore`)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    invalidations: int = 0
    corrupt: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def to_dict(self) -> dict[str, Any]:
        """Plain-data view (the serving daemon's ``/stats`` payload)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "invalidations": self.invalidations,
            "corrupt": self.corrupt,
            "evictions": self.evictions,
            "lookups": self.lookups,
            "hit_rate": self.hit_rate,
        }

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store."""
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass(frozen=True)
class StoreEntry:
    """Stored metadata of one cached result (the ``cache stats`` view)."""

    digest: str
    name: str
    kind: str
    #: Entry file, for filesystem-backed entries; ``None`` on ``mem://``.
    path: Path | None
    size_bytes: int
    #: Last-use time (LRU position): ``put`` writes it, a ``get`` hit
    #: refreshes it, :meth:`ResultStore.gc` evicts ascending.
    mtime: float = 0.0
    #: ``None`` for pre-provenance entries — valid, age-dated as oldest.
    provenance: Provenance | None = None

    @property
    def created_unix(self) -> float:
        """Creation time for age-dating; missing provenance ⇒ oldest (0)."""
        return self.provenance.created_unix if self.provenance else 0.0


class ResultStore:
    """Content-addressed cache of scenario results over one backend.

    ``get`` / ``put`` / ``invalidate`` key on :func:`scenario_digest`; a
    corrupted or foreign entry (truncated write, wrong format marker,
    digest mismatch, stale schema) is counted, removed best-effort *when
    the backend is writable* (a read-only mirror is skipped, never healed)
    and reported as a miss, so the caller always falls back to recompute.

    The backend is chosen by the first argument: a plain path (or nothing)
    builds the default local-filesystem backend honoring
    ``shard``/``max_bytes``/``max_entries``; a URL string (``mem://``,
    ``file:///path?shard=1``, ``ro:///mirror``, ``http://peer:8035``,
    ``ring://a;b``, comma-separated tiers)
    routes through :func:`~repro.scenarios.backends.url.backend_from_url`;
    an explicit ``backend=`` takes anything satisfying
    :class:`~repro.scenarios.backends.base.StoreBackend`.

    Eviction: ``max_bytes`` / ``max_entries`` cap the default backend with
    LRU semantics over entry mtimes — ``put`` stamps one, a ``get`` hit
    refreshes it, and :meth:`gc` (invoked automatically after every ``put``
    when a cap is set, or explicitly / via CLI ``cache gc``) drops the
    least-recently-used entries until the caps hold.  Tiered backends cap
    their tiers individually (a ``mem://`` tier self-evicts inline).

    Every instance is safe to share across threads, and many processes may
    point at one cache dir: writes are atomic, readers treat torn/competing
    state as a miss and self-heal.
    """

    def __init__(
        self,
        cache_dir: "str | Path | None" = None,
        schema_version: int = SCHEMA_VERSION,
        *,
        max_bytes: int | None = None,
        max_entries: int | None = None,
        shard: bool = False,
        backend: StoreBackend | None = None,
    ) -> None:
        explicit_knobs = (
            max_bytes is not None or max_entries is not None or shard
        )
        if backend is not None or (
            isinstance(cache_dir, str) and is_store_url(cache_dir)
        ):
            # URL addressing/explicit backends carry their own knobs (as
            # query parameters / constructor arguments); the keyword knobs
            # only configure the default backend and must conflict loudly
            # rather than be silently discarded.
            if explicit_knobs:
                raise ConfigError(
                    "shard/max_bytes/max_entries only configure the "
                    "default cache-dir backend; with a store URL put them "
                    "in the URL (file:///path?shard=1&max_bytes=N), with "
                    "an explicit backend pass them to its constructor"
                )
        if backend is not None and cache_dir is not None:
            raise ConfigError(
                "cache_dir and backend are mutually exclusive — an "
                "explicit backend already knows where its entries live"
            )
        if backend is not None:
            self.backend: StoreBackend = backend
        elif isinstance(cache_dir, str) and is_store_url(cache_dir):
            self.backend = backend_from_url(cache_dir)
        else:
            self.backend = LocalFSBackend(
                Path(cache_dir) if cache_dir else default_cache_dir(),
                shard=shard,
                max_bytes=max_bytes,
                max_entries=max_entries,
            )
        self.schema_version = schema_version
        self.stats = StoreStats()
        #: Guards counter updates only — backend I/O itself needs no lock
        #: here (atomic writes + validate-on-read), and must not hold one,
        #: or warm readers would serialize behind each other.
        self._stats_lock = threading.Lock()

    # -- backend pass-throughs (back-compat surface) ------------------------
    @property
    def url(self) -> str:
        """The backend's URL-style address (the ``--cache`` syntax)."""
        return self.backend.url

    @property
    def writable(self) -> bool:
        """Whether :meth:`put` would be accepted (``False`` on ``ro://``)."""
        return self.backend.writable

    @property
    def cache_dir(self) -> Path | None:
        """The backing directory, when the backend has one (``mem://``
        stores have no filesystem presence)."""
        return getattr(self.backend, "cache_dir", None)

    @property
    def shard(self) -> bool:
        return getattr(self.backend, "shard", False)

    @property
    def max_bytes(self) -> int | None:
        return getattr(self.backend, "max_bytes", None)

    @property
    def max_entries(self) -> int | None:
        return getattr(self.backend, "max_entries", None)

    # -- addressing ---------------------------------------------------------
    def digest(self, scenario: Scenario) -> str:
        """The content address of ``scenario`` under this store's schema."""
        return scenario_digest(scenario, self.schema_version)

    def path_for(self, scenario: Scenario) -> Path:
        """The entry file a scenario's result lives in (write layout);
        only meaningful on filesystem-backed stores."""
        return self._path_for_digest(self.digest(scenario))

    def _path_for_digest(self, digest: str) -> Path:
        path_for_digest = getattr(self.backend, "path_for_digest", None)
        if path_for_digest is None:
            raise ConfigError(
                f"store backend {self.url!r} has no filesystem paths"
            )
        return path_for_digest(digest)

    # -- traffic ------------------------------------------------------------
    def get(self, scenario: Scenario) -> StoredResult | None:
        """The stored result, or ``None`` (miss *or* unusable entry)."""
        digest = self.digest(scenario)
        entry = self._read_entry(digest)
        if entry is None:
            return None
        return stored_from_payload(
            scenario,
            entry["artifacts"],
            digest,
            from_cache=True,
            provenance=Provenance.from_dict(entry.get("provenance")),
        )

    def read_digest(self, digest: str) -> dict[str, Any] | None:
        """One entry by bare content address (the ``/results/<digest>``
        route): the full validated entry dict, or ``None``.

        Raises :class:`~repro.errors.ConfigError` on a malformed digest so
        callers can distinguish a bad request from a plain miss.
        """
        digest = digest.lower()
        if not is_digest(digest):
            raise ConfigError(
                f"malformed result digest {digest!r}: expected 64 hex chars"
            )
        return self._read_entry(digest)

    def _read_entry(self, digest: str) -> dict[str, Any] | None:
        """Load + validate one entry by digest; counts hit/miss/corrupt."""
        try:
            data = self.backend.read(digest)
        except OSError:
            return self._corrupt(digest)
        if data is None:
            with self._stats_lock:
                self.stats.misses += 1
            return None
        try:
            entry = json.loads(data)
        except (ValueError, UnicodeDecodeError):
            return self._corrupt(digest)
        if (
            not isinstance(entry, dict)
            or entry.get("format") != STORE_FORMAT
            or entry.get("schema_version") != self.schema_version
            or entry.get("digest") != digest
            or not isinstance(entry.get("artifacts"), dict)
            or not isinstance(entry["artifacts"].get("raw"), dict)
            or not isinstance(entry["artifacts"].get("text"), str)
        ):
            return self._corrupt(digest)
        with self._stats_lock:
            self.stats.hits += 1
        # No explicit touch: a backend read refreshes the served copy's
        # LRU position itself, so a mem-tier hit stays free of filesystem
        # syscalls.
        return entry

    def contains(self, digest: str) -> bool:
        """Whether an entry exists for ``digest`` in the backend.

        A cheap existence probe — no read, no validation, no stats traffic.
        A ``True`` may still turn into a miss on the real ``get`` (corrupt
        entry), so use it only as a fast-path hint, never as a guarantee.
        """
        return self.backend.contains(digest)

    def _corrupt(self, digest: str) -> None:
        """Count an unusable entry and heal it on writable backends by
        discarding *the copy that was served* (a valid same-digest copy in
        another layout or tier survives); a read-only mirror's corrupt
        entries are skipped, never touched.  The caller recomputes either
        way."""
        with self._stats_lock:
            self.stats.corrupt += 1
            self.stats.misses += 1
        if self.backend.writable:
            self.backend.discard(digest)
        return None

    def put(
        self,
        scenario: Scenario,
        result: ScenarioResult | Mapping[str, Any],
        *,
        provenance: Provenance | None = None,
        wall_time_s: float | None = None,
    ) -> StoredResult:
        """Store a result (or a pre-built artifact payload) and return the
        stored view.

        The write is atomic per backend contract, so a reader never sees a
        half-written entry even with many processes hammering one digest.
        Each entry is stamped with :class:`Provenance` (``provenance``
        overrides, ``wall_time_s`` annotates the default stamp); provenance
        never feeds the digest.  When ``max_bytes``/``max_entries`` caps
        are set, :meth:`gc` runs after the write.  Raises
        :class:`~repro.errors.ConfigError` on a read-only backend — use
        :func:`run_cached`, which skips persistence on mirrors.
        """
        if isinstance(result, ScenarioResult):
            payload: Mapping[str, Any] = artifact_payload(result)
        else:
            payload = result
        digest = self.digest(scenario)
        if provenance is None:
            provenance = replace(
                current_provenance(wall_time_s),
                schema_version=self.schema_version,
            )
        entry = {
            "format": STORE_FORMAT,
            "schema_version": self.schema_version,
            "digest": digest,
            "scenario": scenario.to_dict(),
            "provenance": provenance.to_dict(),
            "artifacts": {
                "raw": payload["raw"],
                "text": payload["text"],
                "csv": payload.get("csv"),
            },
        }
        self.backend.write(
            digest, (json.dumps(entry, indent=1) + "\n").encode()
        )
        with self._stats_lock:
            self.stats.puts += 1
        # Auto-gc whenever the backend relies on a post-write pass for its
        # caps — including caps configured on individual tiers of a tiered
        # stack (mem:// tiers self-evict inline and never need this).
        if getattr(self.backend, "capped", False):
            self.gc(sweep_tmp=False)
        return stored_from_payload(
            scenario, payload, digest, provenance=provenance
        )

    def invalidate(self, scenario: Scenario) -> bool:
        """Drop one scenario's entry; ``True`` if something was removed."""
        removed = self.backend.delete(self.digest(scenario))
        if removed:
            with self._stats_lock:
                self.stats.invalidations += 1
        return removed

    def clear(self) -> int:
        """Remove every entry; returns how many were dropped."""
        removed = self.backend.clear()
        with self._stats_lock:
            self.stats.invalidations += removed
        return removed

    # -- eviction -----------------------------------------------------------
    def gc(
        self,
        max_bytes: int | None = None,
        max_entries: int | None = None,
        *,
        sweep_tmp: bool = True,
    ) -> list[str]:
        """Enforce the size caps by LRU eviction; returns evicted digests.

        Entries are ordered by last use (``put`` stamps, ``get`` refreshes)
        and the least recently used are dropped until both caps hold.
        Explicit arguments override the backend's configured caps for this
        call; with no cap at all this only sweeps stale temp files on
        filesystem backends.  On a tiered backend the caps apply per
        writable tier; read-only mirrors are never evicted from.
        """
        evicted = self.backend.gc(
            max_bytes, max_entries, sweep_tmp=sweep_tmp
        )
        with self._stats_lock:
            self.stats.evictions += len(evicted)
        return evicted

    # -- introspection ------------------------------------------------------
    def _entry_paths(self) -> list[Path]:
        """Entry files of a filesystem-backed store (test/diagnostic hook)."""
        entry_paths = getattr(self.backend, "_entry_paths", None)
        if entry_paths is not None:
            return entry_paths()
        return [
            entry.path
            for entry in self.backend.entries()
            if entry.path is not None
        ]

    @property
    def n_entries(self) -> int:
        """Entries currently stored."""
        return self.disk_usage()[0]

    @property
    def total_bytes(self) -> int:
        """Total stored size of all entries."""
        return self.disk_usage()[1]

    def disk_usage(self) -> tuple[int, int]:
        """``(n_entries, total_bytes)`` in a single backend scan — what a
        polled monitoring endpoint should call instead of reading the two
        properties (and scanning twice)."""
        count = 0
        total = 0
        for entry in self.backend.entries():
            count += 1
            total += entry.size_bytes
        return count, total

    def entries(self) -> Iterator[StoreEntry]:
        """Stored metadata per entry (unreadable entries are skipped).

        Reads are side-effect free — the entry file discovered by the
        backend scan is read directly when it has a path (no second
        candidate walk per digest), falling back to the backend's ``peek``
        for path-less backends — so introspection never perturbs LRU
        positions or hit/miss counters.
        """
        for backend_entry in self.backend.entries():
            if backend_entry.path is not None:
                try:
                    data = backend_entry.path.read_bytes()
                except OSError:
                    continue
            else:
                data = self.backend.peek(backend_entry.digest)
            if data is None:
                continue
            try:
                entry = json.loads(data)
                scenario = entry["scenario"]
                yield StoreEntry(
                    digest=entry["digest"],
                    name=scenario["name"],
                    kind=scenario["kind"],
                    path=backend_entry.path,
                    size_bytes=backend_entry.size_bytes,
                    mtime=backend_entry.mtime,
                    provenance=Provenance.from_dict(entry.get("provenance")),
                )
            except (ValueError, KeyError, TypeError):
                continue


def run_cached(
    scenario: Scenario,
    store: "ResultStore | str | Path | None" = None,
    *,
    use_cache: bool = True,
    workers: int | None = None,
) -> StoredResult:
    """Run a scenario through the result store.

    ``store`` may be a :class:`ResultStore`, a cache directory path, or a
    backend URL (``mem://``, ``file:///path``, ``ro:///mirror``, tiers).
    A URL builds a fresh store *per call* — fine for filesystem backends
    (the entries persist), pointless for a bare ``mem://`` (the tier dies
    with the call); to share an in-memory tier across calls, build one
    :class:`ResultStore` and pass it.
    A warm entry is a pure backend read (zero mappings, zero kernel
    timings); a miss computes via
    :func:`~repro.scenarios.runner.run_scenario` and stores the artifact
    payload — except on read-only stores (``ro://`` mirrors), which are
    consulted but never written.  ``use_cache=False`` bypasses the store in
    both directions — nothing is read *or* written (the CLI's
    ``--no-cache``).
    """
    if isinstance(store, (str, Path)):
        store = ResultStore(store)
    caching = store is not None and use_cache
    if caching:
        cached = store.get(scenario)
        if cached is not None:
            return cached
    t0 = time.perf_counter()
    result = run_scenario(scenario, workers=workers)
    wall_time_s = time.perf_counter() - t0
    if caching and store.writable:
        return store.put(scenario, result, wall_time_s=wall_time_s)
    schema = store.schema_version if store is not None else SCHEMA_VERSION
    return stored_from_payload(
        scenario, artifact_payload(result), scenario_digest(scenario, schema)
    )


__all__ = [
    "CACHE_DIR_ENV",
    "SCHEMA_VERSION",
    "STALE_TMP_SECONDS",
    "STORE_FORMAT",
    "Provenance",
    "ResultStore",
    "StoreEntry",
    "StoreStats",
    "StoredResult",
    "artifact_payload",
    "canonical_spec_json",
    "current_provenance",
    "default_cache_dir",
    "is_digest",
    "run_cached",
    "scenario_digest",
    "stored_from_payload",
]
