"""HTTP plumbing for the scenario serving daemon.

A thin stdlib-only adapter: :class:`ReproHTTPServer` is a
``ThreadingHTTPServer`` whose handler forwards every request to the
attached :class:`~repro.serving.app.ServingApp` and writes the returned
:class:`~repro.serving.app.Response` back out — all routing, caching and
error semantics live in the app (where they are fuzz-tested without
sockets).

The server is threaded so warm traffic scales: every worker thread serves
store hits as pure file reads concurrently, while cold computes are
bounded by the app's job engine.  ``HTTP/1.1`` keep-alive is enabled
(every response carries an exact ``Content-Length``); over-size uploads
are rejected *before* the body is read, and the connection is closed so an
unread body can never desynchronize the stream.

Compression is negotiated per message: 200 responses of ≥512 bytes are
gzip'd when ``Accept-Encoding`` admits it (and it actually shrinks the
payload), and ``Content-Encoding: gzip`` request bodies are inflated with
a hard ceiling on the *decompressed* size — a gzip bomb answers the same
structured 413 an honestly-huge body would.

Usage::

    server = create_server(port=0, store=ResultStore(cache_dir))
    threading.Thread(target=server.serve_forever, daemon=True).start()
    ...
    server.shutdown(); server.server_close()

or from the shell: ``python -m repro serve --port 8035``.
"""

from __future__ import annotations

import gzip
import sys
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.errors import ConfigError
from repro.scenarios.store import ResultStore
from repro.serving.app import MAX_BODY_BYTES, Response, ServingApp, error_response

#: Response bodies below this aren't worth a gzip round trip (the frame
#: overhead would often make them bigger).
GZIP_MIN_BYTES = 512


class ReproHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`ServingApp`."""

    daemon_threads = True

    def __init__(
        self,
        server_address: tuple[str, int],
        app: ServingApp,
        *,
        quiet: bool = True,
    ) -> None:
        self.app = app
        self.quiet = quiet
        super().__init__(server_address, _Handler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def server_close(self) -> None:
        super().server_close()
        # Stop the app's job-engine worker pool with the socket: a test
        # (or an operator's reload loop) must not leak worker threads.
        self.app.close()


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # Without this, Nagle + the client's delayed ACK cost ~40 ms per
    # keep-alive round trip — two orders of magnitude over the warm
    # file-read serving path this daemon exists for.
    disable_nagle_algorithm = True
    # Socket read timeout: a client that declares a Content-Length and then
    # goes silent must not pin a handler thread forever (slowloris).
    timeout = 60

    # -- plumbing -----------------------------------------------------------
    def _read_body(self) -> bytes | Response:
        """The request body, or an error/oversize :class:`Response`.

        The over-size check runs on the declared length *before* reading:
        the error response closes the connection, so the unread body can
        never be misparsed as a followup request.  Chunked uploads carry no
        up-front length to check, so they are rejected with 411 outright.
        """
        if self.headers.get("Transfer-Encoding"):
            self.close_connection = True
            return error_response(
                411,
                "length-required",
                "chunked bodies are not accepted; send Content-Length",
            )
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            return b""
        # Strict ASCII digits only: bare int() would also accept "+100",
        # " 100 " and "1_0" (python literal underscores) — none of which
        # any peer we can safely frame against would have sent.  A
        # digits-only string can never be negative.
        if not (length_header.isascii() and length_header.isdigit()):
            self.close_connection = True
            return error_response(
                400, "bad-content-length", f"not a length: {length_header!r}"
            )
        length = int(length_header)
        if length > self.server.app.max_body_bytes:
            self.close_connection = True
            return error_response(
                413,
                "payload-too-large",
                f"body exceeds {self.server.app.max_body_bytes} bytes",
            )
        return self._decode_content(self.rfile.read(length))

    def _decode_content(self, body: bytes) -> bytes | Response:
        """Apply ``Content-Encoding`` (gzip only) with a hard ceiling on
        the *decompressed* size — a tiny gzip bomb must answer the same
        413 an honestly-huge body would, not balloon the process."""
        encoding = (self.headers.get("Content-Encoding") or "").strip().lower()
        if encoding in ("", "identity"):
            return body
        if encoding != "gzip":
            self.close_connection = True
            return error_response(
                415,
                "unsupported-encoding",
                f"Content-Encoding {encoding!r} is not accepted (gzip only)",
            )
        limit = self.server.app.max_body_bytes
        decomp = zlib.decompressobj(wbits=31)  # gzip wrapper
        try:
            inflated = decomp.decompress(body, limit + 1)
        except zlib.error as exc:
            return error_response(
                400, "bad-encoding", f"gzip body did not decode: {exc}"
            )
        if len(inflated) > limit:
            self.close_connection = True
            return error_response(
                413,
                "payload-too-large",
                f"decompressed body exceeds {limit} bytes",
            )
        if not decomp.eof:
            return error_response(
                400, "bad-encoding", "truncated gzip body"
            )
        return inflated

    def _dispatch(self, method: str) -> None:
        try:
            body = b""
            if method in ("POST", "PUT"):
                body = self._read_body()
                if isinstance(body, Response):
                    self._send(body)
                    return
            elif self.headers.get("Content-Length", "0") not in (
                "0",
                "",
            ) or self.headers.get("Transfer-Encoding"):
                # A body on a non-POST verb is never read here; close the
                # connection so the leftover bytes cannot be parsed as the
                # next pipelined request.
                self.close_connection = True
            # HEAD routes like GET but sends headers only — /healthz must
            # answer load-balancer HEAD probes, not a stdlib HTML 501.
            routed = "GET" if method == "HEAD" else method
            response = self.server.app.handle(
                routed, self.path, body, dict(self.headers.items())
            )
            self._send(response, head_only=method == "HEAD")
        except (BrokenPipeError, ConnectionResetError, TimeoutError):
            # The client hung up (or went silent) mid-exchange; nothing to
            # answer.
            self.close_connection = True

    def _accepts_gzip(self) -> bool:
        """Whether the request's ``Accept-Encoding`` admits gzip (with a
        non-zero q-value)."""
        header = self.headers.get("Accept-Encoding", "")
        for token in header.split(","):
            name, _, params = token.strip().lower().partition(";")
            if name.strip() != "gzip":
                continue
            q = 1.0
            for param in params.split(";"):
                key, _, value = param.strip().partition("=")
                if key.strip() == "q":
                    try:
                        q = float(value)
                    except ValueError:
                        q = 0.0
            return q > 0
        return False

    def _send(self, response: Response, head_only: bool = False) -> None:
        self.send_response(response.status)
        for name, value in response.headers.items():
            self.send_header(name, value)
        if self.close_connection:
            # Tell the peer, not just TCP: no keep-alive after this one.
            self.send_header("Connection", "close")
        if response.status == 304:
            # Bodyless by definition: no Content-Length, no payload.
            self.end_headers()
            return
        payload = response.body_bytes()
        # Transparent response compression: only when the client asked,
        # only when it pays for itself.  mtime=0 keeps the compressed
        # bytes deterministic per payload (cache-friendly).
        if (
            response.status == 200
            and len(payload) >= GZIP_MIN_BYTES
            and self._accepts_gzip()
        ):
            compressed = gzip.compress(payload, compresslevel=1, mtime=0)
            if len(compressed) < len(payload):
                payload = compressed
                self.send_header("Content-Encoding", "gzip")
                self.send_header("Vary", "Accept-Encoding")
        self.send_header(
            "Content-Type", response.content_type or "application/json"
        )
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        if not head_only:
            self.wfile.write(payload)

    # -- verbs --------------------------------------------------------------
    # Every verb routes through the app, so even a wrong-method request
    # gets the structured-JSON 405/404 contract instead of the stdlib's
    # HTML 501 page.
    def do_GET(self) -> None:  # noqa: N802 — http.server's naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_HEAD(self) -> None:  # noqa: N802
        self._dispatch("HEAD")

    def do_PUT(self) -> None:  # noqa: N802
        self._dispatch("PUT")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    def do_PATCH(self) -> None:  # noqa: N802
        self._dispatch("PATCH")

    def do_OPTIONS(self) -> None:  # noqa: N802
        self._dispatch("OPTIONS")

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not getattr(self.server, "quiet", True):
            super().log_message(format, *args)


def create_server(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    store: ResultStore | None = None,
    cache: str | None = None,
    cache_dir: str | Path | None = None,
    workers: int | None = None,
    max_cache_bytes: int | None = None,
    max_cache_entries: int | None = None,
    shard: bool = False,
    max_body_bytes: int = MAX_BODY_BYTES,
    job_workers: int | None = None,
    max_queue: int | None = None,
    trust_puts: bool = False,
    quiet: bool = True,
) -> ReproHTTPServer:
    """Build a ready-to-serve daemon (``port=0`` binds an ephemeral port).

    Pass a :class:`ResultStore` directly, a ``cache`` backend URL
    (``mem://,file:///path`` stacks a hot tier over the cache dir — see
    :mod:`repro.scenarios.backends.url`; supersedes the other store
    knobs), or the store knobs
    (``cache_dir``/``max_cache_bytes``/``max_cache_entries``/``shard``)
    to have one built.  ``job_workers``/``max_queue`` size the async job
    engine behind cold ``POST /run`` (CLI ``--job-workers``/
    ``--max-queue``); ``None`` keeps the app defaults.  ``trust_puts``
    stores ``PUT /results/<digest>`` bodies opaquely instead of verifying
    them against the digest (CLI ``--trust-puts`` — trusted clusters
    only).
    """
    if store is not None and cache is not None:
        raise ConfigError(
            "store and cache are mutually exclusive — pass the URL or a "
            "ready-built ResultStore, not both"
        )
    if store is None and cache is not None:
        # Compare against None/False, not truthiness: an explicit 0 cap is
        # a real knob and must conflict just as loudly.
        if (
            cache_dir is not None
            or max_cache_bytes is not None
            or max_cache_entries is not None
            or shard
        ):
            # Explicit store knobs must never be silently discarded: with
            # URL addressing they belong in the URL's query parameters.
            raise ConfigError(
                "--cache is mutually exclusive with --cache-dir/"
                "--max-cache-bytes/--max-cache-entries/--shard; put them "
                "in the URL instead, e.g. "
                "file:///path?shard=1&max_bytes=N&max_entries=N"
            )
        store = ResultStore(cache)
    if store is None:
        store = ResultStore(
            cache_dir,
            max_bytes=max_cache_bytes,
            max_entries=max_cache_entries,
            shard=shard,
        )
    job_knobs: dict = {}
    if job_workers is not None:
        job_knobs["job_workers"] = job_workers
    if max_queue is not None:
        job_knobs["max_queue"] = max_queue
    app = ServingApp(
        store,
        workers=workers,
        max_body_bytes=max_body_bytes,
        trust_puts=trust_puts,
        **job_knobs,
    )
    return ReproHTTPServer((host, port), app, quiet=quiet)


def serve_forever(server: ReproHTTPServer) -> int:
    """Run until interrupted (the CLI's blocking loop); returns exit code."""
    print(
        f"repro serving on {server.url} "
        f"(store {server.app.store.url})",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.server_close()
    return 0


__all__ = ["ReproHTTPServer", "create_server", "serve_forever"]
