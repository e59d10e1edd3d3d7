"""A real ``/metrics`` scrape endpoint over ``http.server``.

:class:`MetricsServer` binds a :class:`ThreadingHTTPServer` on a
background daemon thread and serves

* ``/metrics`` — the registry's OpenMetrics exposition, rendered fresh
  per scrape with the standard OpenMetrics content type;
* ``/report``  — the current job report as JSON (when a provider was
  given);
* ``/healthz`` — liveness probe;
* ``/``        — a one-page index.

The simulator is single-threaded and a scrape only *reads* live plane
state (collectors are side-effect-free), so serving between — or even
during — ``run()`` slices is safe: a scrape racing the simulation can
observe a mid-epoch view, never corrupt one. Port 0 binds an ephemeral
port (the default everywhere in-tree, so tests and CI never collide).
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Callable, Optional

from repro.obs.openmetrics import CONTENT_TYPE

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.registry import MetricsRegistry

_INDEX = """<html><head><title>repro exporter</title></head>
<body><h1>repro metrics exporter</h1>
<p><a href="/metrics">/metrics</a> — OpenMetrics exposition</p>
<p><a href="/report">/report</a> — per-session job report (JSON)</p>
<p><a href="/healthz">/healthz</a> — liveness</p>
</body></html>
"""


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-exporter/1.0"

    def _send(self, status: int, content_type: str, body: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            try:
                body = self.server.registry.render()  # type: ignore[attr-defined]
            except Exception as exc:  # surface render bugs to the scraper
                self._send(500, "text/plain; charset=utf-8",
                           f"exposition failed: {exc}\n")
                return
            self._send(200, CONTENT_TYPE, body)
        elif path == "/report":
            provider = self.server.report_provider  # type: ignore[attr-defined]
            if provider is None:
                self._send(404, "text/plain; charset=utf-8",
                           "no job-report provider configured\n")
                return
            self._send(200, "application/json; charset=utf-8",
                       provider().to_json() + "\n")
        elif path == "/healthz":
            self._send(200, "text/plain; charset=utf-8", "ok\n")
        elif path == "/":
            self._send(200, "text/html; charset=utf-8", _INDEX)
        else:
            self._send(404, "text/plain; charset=utf-8", "not found\n")

    def log_message(self, *args) -> None:  # silence per-request stderr noise
        pass


class MetricsServer:
    """Background-thread HTTP server exposing a metrics registry."""

    def __init__(self, registry: "MetricsRegistry", host: str = "127.0.0.1",
                 port: int = 0,
                 report_provider: Optional[Callable[[], object]] = None) -> None:
        if not 0 <= port <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {port}")
        self.registry = registry
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.registry = registry  # type: ignore[attr-defined]
        self._httpd.report_provider = report_provider  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolves ephemeral port 0 requests)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "MetricsServer":
        if self._thread is not None:
            raise RuntimeError("metrics server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-metrics",
            daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._httpd.shutdown()
        self._thread.join(timeout=5)
        self._httpd.server_close()
        self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
