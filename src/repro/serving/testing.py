"""In-process daemon harness shared by tests, benchmarks and tooling.

Every suite that needs a live daemon — backend conformance over
``http://``, federation tests, wire-level fuzzing, the serving benchmarks
— used to hand-roll a ``ThreadingHTTPServer`` + thread + teardown.
:func:`launch_daemon` is that pattern once: ephemeral port, any
:func:`~repro.serving.server.create_server` configuration, and a
guaranteed ``shutdown()`` + ``server_close()`` (which also stops the job
engine's worker pool) on exit.

Lives in ``src`` rather than a conftest because the benchmark tree has
its own conftest chain and the CLI's smoke tooling wants it too.
"""

from __future__ import annotations

import http.client
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from repro.serving.server import ReproHTTPServer, create_server


@dataclass
class HttpReply:
    """One raw HTTP exchange: status, lowercase headers, body bytes."""

    status: int
    headers: dict[str, str]
    body: bytes

    def json(self) -> Any:
        import json

        return json.loads(self.body.decode("utf-8"))


@dataclass
class LiveDaemon:
    """A serving daemon running on its own thread, plus raw-wire access."""

    server: ReproHTTPServer

    @property
    def app(self):
        return self.server.app

    @property
    def store(self):
        return self.server.app.store

    @property
    def url(self) -> str:
        return self.server.url

    @property
    def host(self) -> str:
        return self.server.server_address[0]

    @property
    def port(self) -> int:
        return self.server.server_address[1]

    def request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        headers: Mapping[str, str] | None = None,
    ) -> HttpReply:
        """One exchange on a fresh connection (raw header control — no
        client-side magic beyond what ``http.client`` always adds)."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request(method, path, body=body, headers=dict(headers or {}))
            response = conn.getresponse()
            return HttpReply(
                response.status,
                {k.lower(): v for k, v in response.getheaders()},
                response.read(),
            )
        finally:
            conn.close()


@contextmanager
def launch_daemon(
    *, join_timeout_s: float = 10.0, **server_kwargs: Any
) -> Iterator[LiveDaemon]:
    """A live daemon for the duration of the ``with`` block.

    ``server_kwargs`` go to :func:`create_server` verbatim (``port``
    defaults to 0 — an ephemeral bind).  Teardown always runs
    ``shutdown()`` then ``server_close()``, so neither the socket nor the
    job-engine worker pool outlives the block.
    """
    server = create_server(**server_kwargs)
    # A short poll keeps teardown fast: shutdown() waits out one poll.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
    )
    thread.start()
    try:
        yield LiveDaemon(server)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=join_timeout_s)


__all__ = ["HttpReply", "LiveDaemon", "launch_daemon"]
