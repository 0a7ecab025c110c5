"""``python -m repro`` — run any scenario from the shell, served from the
content-addressed result store.

Subcommands:

* ``list [--kind K]``    — registered scenarios (name, kind, description);
* ``show NAME``          — the scenario spec as JSON (the ``to_dict`` form);
* ``run NAME_OR_FILE``   — execute a registered scenario *or a user scenario
  JSON file* (``python -m repro run path/to/scenario.json``) and print the
  rendered result;
* ``sweep NAME_OR_FILE`` — same, but requires a sweep grid and supports
  ``--workers N`` process fan-out;
* ``run-all``            — serve every registered scenario through the batch
  runner (``--kind`` filters, ``--workers`` fans scenarios out);
* ``serve``              — run the HTTP serving daemon over the store
  (``--port --workers --cache --cache-dir --max-cache-bytes
  --max-cache-entries --shard``);
* ``cache stats|clear|gc`` — inspect, empty or LRU-shrink the result store.

``run``/``sweep``/``run-all`` consult the store first (re-running a cached
scenario is a pure backend read; ``served from result store`` is reported
on stderr), and accept ``--no-cache`` (bypass the store entirely — nothing
read or written), ``--cache URL`` (a storage-backend address: ``mem://``,
``file:///path?shard=1``, ``ro:///mirror``, or comma-separated tiers like
``mem://,file:///path``; supersedes ``--cache-dir``) and ``--cache-dir
DIR`` (default ``$REPRO_CACHE_DIR`` or ``~/.cache/repro/scenarios``).
``--out DIR`` emits the staged artifacts
the qml-cutensornet-style pipelines use: ``<name>_raw.json`` (spec +
per-point values), ``<name>.csv`` (grid scenarios) and ``<name>.txt``
(the rendered text figure/table); cached and recomputed artifacts are
byte-identical.
"""

from __future__ import annotations

import argparse
import statistics as _statistics
import sys
import time as _time

from repro.errors import ConfigError
from repro.scenarios import REGISTRY, get
from repro.scenarios.batch import resolve_scenario, run_many
from repro.scenarios.store import CACHE_DIR_ENV, ResultStore, run_cached


def _cmd_list(args: argparse.Namespace) -> int:
    rows = [
        (name, scenario.kind, scenario.description)
        for name, scenario in REGISTRY.items()
        if args.kind is None or scenario.kind == args.kind
    ]
    if not rows:
        print(f"no scenarios of kind {args.kind!r}")
        return 1
    width_name = max(len(r[0]) for r in rows)
    width_kind = max(len(r[1]) for r in rows)
    for name, kind, description in rows:
        print(f"{name:{width_name}s}  {kind:{width_kind}s}  {description}")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    print(get(args.name).to_json())
    return 0


def _store(args: argparse.Namespace) -> ResultStore:
    cache = getattr(args, "cache", None)
    if cache:
        if getattr(args, "cache_dir", None):
            # Never silently drop an explicit flag: the operator said two
            # different things about where the store lives.  (Tier lists
            # are schemes-only, so the hint wraps bare paths in file://.)
            first = cache if "://" in cache else f"file://{cache}"
            raise ConfigError(
                "--cache and --cache-dir are mutually exclusive; name the "
                f"directory as a tier instead: --cache "
                f"\"{first},file://{args.cache_dir}\""
            )
        return ResultStore(cache)  # URL addressing (or a bare path)
    return ResultStore(args.cache_dir)


def _execute(args: argparse.Namespace, require_grid: bool) -> int:
    scenario = resolve_scenario(args.name)
    if require_grid and scenario.grid is None:
        print(
            f"scenario {scenario.name!r} has no sweep grid; use `run` instead",
            file=sys.stderr,
        )
        return 2
    result = run_cached(
        scenario,
        _store(args),
        use_cache=not args.no_cache,
        workers=args.workers,
    )
    print(result.render())
    if result.from_cache:
        print(
            f"(served from result store: {result.digest[:12]})",
            file=sys.stderr,
        )
    if args.out:
        for path in result.write_artifacts(args.out):
            print(f"wrote {path}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    return _execute(args, require_grid=False)


def _cmd_sweep(args: argparse.Namespace) -> int:
    return _execute(args, require_grid=True)


def _cmd_run_all(args: argparse.Namespace) -> int:
    names = [
        name
        for name, scenario in REGISTRY.items()
        if args.kind is None or scenario.kind == args.kind
    ]
    if not names:
        print(f"no scenarios of kind {args.kind!r}")
        return 1
    batch = run_many(
        names,
        store=_store(args),
        use_cache=not args.no_cache,
        workers=args.workers,
    )
    width = max(len(name) for name in names)
    for entry in batch.entries:
        status = "cached" if entry.from_cache else "computed"
        print(f"{entry.name:{width}s}  {status:8s}  {entry.digest[:12]}")
        if args.out:
            for path in entry.result.write_artifacts(args.out):
                print(f"  wrote {path}")
    stats = batch.stats
    print(
        f"served {stats.n_items} scenario(s): {stats.n_from_store} from "
        f"store, {stats.n_computed} computed, {stats.n_deduplicated} "
        f"deduplicated (store hit rate {stats.store_hit_rate:.0%})"
    )
    return 0


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    import os as _os

    store = _store(args)
    # A missing or unreadable cache dir is an audit failure *when the
    # operator named the location* (--cache, --cache-dir, or the env
    # override): pointing at a wrong mount must exit non-zero with a
    # structured message, never a silent zero count (or a traceback).
    # The never-created default dir, by contrast, is just an empty store.
    explicit_location = bool(
        getattr(args, "cache", None)
        or getattr(args, "cache_dir", None)
        or _os.environ.get(CACHE_DIR_ENV)
    )
    cache_dir = store.cache_dir
    if cache_dir is not None and explicit_location:
        if not cache_dir.exists():
            print(
                f"error: cache-dir-missing: {cache_dir} does not exist "
                "(nothing cached yet, or the wrong --cache/--cache-dir?)",
                file=sys.stderr,
            )
            return 2
        if not cache_dir.is_dir() or not _os.access(
            cache_dir, _os.R_OK | _os.X_OK
        ):
            print(
                f"error: cache-dir-unreadable: {cache_dir} is not a "
                "readable directory",
                file=sys.stderr,
            )
            return 2
    # Count/size what is actually listed (one backend scan), so an
    # unreadable entry can never make the summary disagree with the rows.
    # Ordered by mtime — the LRU position `cache gc` actually evicts in
    # (a warm get refreshes it; the age column is the provenance creation
    # stamp, which never moves).  Pre-provenance entries age-date as
    # "pre-prov", never as corrupt.
    entries = sorted(store.entries(), key=lambda entry: entry.mtime)
    print(f"cache dir      {cache_dir if cache_dir is not None else '-'}")
    print(f"backend        {store.url}")
    _print_tier_lines(store)
    print(f"schema version {store.schema_version}")
    print(f"entries        {len(entries)}")
    print(f"total bytes    {sum(entry.size_bytes for entry in entries)}")
    # Entry-age summary over provenance creation stamps — how a shared
    # mirror is audited for staleness.  Pre-provenance entries (no stamp)
    # are counted, never folded in as fabricated 1970 ages.
    stamps = sorted(
        entry.provenance.created_unix
        for entry in entries
        if entry.provenance is not None
    )
    print(f"oldest created {_age_of(stamps[0]) if stamps else '-'}")
    print(f"newest created {_age_of(stamps[-1]) if stamps else '-'}")
    # statistics.median, exactly like /stats, so both audit surfaces
    # report the same number for the same mirror.
    median = _statistics.median(stamps) if stamps else None
    print(f"median created {_age_of(median) if median is not None else '-'}")
    print(f"pre-provenance {len(entries) - len(stamps)}")
    for entry in entries:
        print(
            f"  {entry.digest[:12]}  {entry.kind:9s} "
            f"{entry.size_bytes:>9d} B  {_age(entry):>12s}  {entry.name}"
        )
    return 0


def _print_tier_lines(store: ResultStore) -> None:
    """Per-tier breakdown of a tiered backend (sizes per tier).

    Hit/miss counters are deliberately *not* printed here: they live on
    this one-shot process's freshly built backend and would always read
    as fabricated zeros — the serving daemon's ``/stats`` is where the
    per-tier traffic counters are real.
    """
    if not hasattr(store.backend, "tiers"):
        return  # plain backend: skip the stats() scan entirely
    backend_stats = store.backend.stats()
    for tier in backend_stats.get("tiers", ()):
        print(
            f"  tier         {tier['url']}  "
            f"{tier['n_entries']} entr(ies), {tier['total_bytes']} B"
            + ("" if tier["writable"] else "  [read-only]")
        )


def _age(entry) -> str:
    """Human age of one store entry from its provenance stamp."""
    if entry.provenance is None:
        return "pre-prov"
    return _age_of(entry.provenance.created_unix)


def _age_of(created_unix: float) -> str:
    """Humanized age of one provenance creation stamp."""
    age = max(0.0, _time.time() - created_unix)
    if age < 120:
        return f"{age:.0f}s old"
    if age < 7200:
        return f"{age / 60:.0f}m old"
    if age < 172800:
        return f"{age / 3600:.0f}h old"
    return f"{age / 86400:.0f}d old"


def _cmd_cache_clear(args: argparse.Namespace) -> int:
    store = _store(args)
    removed = store.clear()
    print(f"removed {removed} cached result(s) from {store.url}")
    return 0


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    store = _store(args)
    if args.max_bytes is None and args.max_entries is None:
        print(
            "error: cache gc needs --max-bytes and/or --max-entries",
            file=sys.stderr,
        )
        return 2
    evicted = store.gc(max_bytes=args.max_bytes, max_entries=args.max_entries)
    for digest in evicted:
        print(f"evicted {digest[:12]}")
    n_entries, total_bytes = store.disk_usage()
    print(
        f"evicted {len(evicted)} entr{'y' if len(evicted) == 1 else 'ies'}; "
        f"{n_entries} left ({total_bytes} bytes) in {store.url}"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving import create_server, serve_forever

    server = create_server(
        args.host,
        args.port,
        cache=args.cache,
        cache_dir=args.cache_dir,
        workers=args.workers,
        max_cache_bytes=args.max_cache_bytes,
        max_cache_entries=args.max_cache_entries,
        shard=args.shard,
        job_workers=args.job_workers,
        max_queue=args.max_queue,
        trust_puts=args.trust_puts,
        quiet=args.quiet,
    )
    return serve_forever(server)


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache",
        default=None,
        metavar="URL",
        help="result-store backend address: mem://, file:///path?shard=1, "
        "ro:///mirror, http://peer:8035, ring://a:8035;b:8035?replicas=2, "
        "or comma-separated tiers such as mem://,file:///path "
        "(supersedes --cache-dir)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result-store location (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro/scenarios)",
    )


def _add_execute_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan work out over N worker processes",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="write raw-JSON/CSV/text artifacts into DIR",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the result store (read nothing, write nothing)",
    )
    _add_cache_flags(parser)


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the paper's experiments as named scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered scenarios")
    p_list.add_argument("--kind", default=None, help="filter by scenario kind")
    p_list.set_defaults(fn=_cmd_list)

    p_show = sub.add_parser("show", help="print a scenario spec as JSON")
    p_show.add_argument("name")
    p_show.set_defaults(fn=_cmd_show)

    for command, fn, help_text in (
        ("run", _cmd_run, "execute a scenario (registry name or JSON file)"),
        ("sweep", _cmd_sweep, "execute a grid scenario"),
    ):
        p = sub.add_parser(command, help=help_text)
        p.add_argument("name", metavar="name_or_file")
        _add_execute_flags(p)
        p.set_defaults(fn=fn)

    p_all = sub.add_parser(
        "run-all", help="serve every registered scenario through the batch runner"
    )
    p_all.add_argument("--kind", default=None, help="filter by scenario kind")
    _add_execute_flags(p_all)
    p_all.set_defaults(fn=_cmd_run_all)

    p_serve = sub.add_parser(
        "serve", help="run the HTTP scenario-serving daemon"
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    p_serve.add_argument(
        "--port", type=int, default=8035, help="port (0 = ephemeral)"
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan cold computes out over N worker processes",
    )
    p_serve.add_argument(
        "--job-workers",
        type=int,
        default=None,
        metavar="N",
        help="cold computes running at once, ?wait=1 requests included; "
        "also the worker threads draining the job queue (default 2)",
    )
    p_serve.add_argument(
        "--max-queue",
        type=int,
        default=None,
        metavar="N",
        help="queued-job bound; beyond it cold POST /run answers 429 "
        "with Retry-After (default 64)",
    )
    p_serve.add_argument(
        "--max-cache-bytes",
        type=int,
        default=None,
        metavar="N",
        help="LRU-evict the store above this size after every put",
    )
    p_serve.add_argument(
        "--max-cache-entries",
        type=int,
        default=None,
        metavar="N",
        help="LRU-evict the store above this entry count after every put",
    )
    p_serve.add_argument(
        "--shard",
        action="store_true",
        help="write entries under two-hex-prefix shard directories",
    )
    p_serve.add_argument(
        "--trust-puts",
        action="store_true",
        help="store PUT /results/<digest> bodies opaquely instead of "
        "verifying them against the digest (trusted clusters only)",
    )
    p_serve.add_argument(
        "--verbose",
        dest="quiet",
        action="store_false",
        help="log every request to stderr",
    )
    _add_cache_flags(p_serve)
    p_serve.set_defaults(fn=_cmd_serve)

    p_cache = sub.add_parser(
        "cache", help="inspect, clear or garbage-collect the result store"
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_stats = cache_sub.add_parser(
        "stats", help="entry count, sizes, ages, digests"
    )
    _add_cache_flags(p_stats)
    p_stats.set_defaults(fn=_cmd_cache_stats)
    p_clear = cache_sub.add_parser("clear", help="remove every cached result")
    _add_cache_flags(p_clear)
    p_clear.set_defaults(fn=_cmd_cache_clear)
    p_gc = cache_sub.add_parser(
        "gc", help="LRU-evict entries down to the given caps"
    )
    p_gc.add_argument(
        "--max-bytes", type=int, default=None, help="byte cap to enforce"
    )
    p_gc.add_argument(
        "--max-entries", type=int, default=None, help="entry cap to enforce"
    )
    _add_cache_flags(p_gc)
    p_gc.set_defaults(fn=_cmd_cache_gc)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed early (`python -m repro list | head`); swallow
        # the pipe error like a well-behaved unix tool.  Point stdout at
        # devnull so the interpreter's shutdown flush cannot re-raise.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


__all__ = ["build_parser", "main"]
