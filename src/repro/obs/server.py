"""Scrapeable ops endpoint over the live observability objects.

:class:`OpsServer` wraps a stdlib ``ThreadingHTTPServer`` (no external
dependencies, like everything in :mod:`repro.obs`) and serves four
read-only views of a running process:

* ``GET /metrics`` — the registry rendered in Prometheus text
  exposition format (:meth:`~repro.obs.metrics.MetricsRegistry.to_prometheus`),
  directly scrapeable and round-trippable through
  :func:`~repro.obs.export.parse_prometheus`;
* ``GET /health`` — liveness JSON (uptime, the record log's simulated
  clock and record count, evaluation count) — cheap enough for an
  orchestrator probe;
* ``GET /slo`` — the :class:`~repro.obs.slo.SloMonitor` payload: the
  latest tick's fold — per-objective windowed observations, burn
  rates, firing rules, and the simulated ``t`` they hold at;
* ``GET /tenants`` — the :class:`~repro.obs.attribution.CostLedger`
  payload: per-tenant dollars, machine-seconds, compliance.

The server only reads: the monitor is advanced by the run's own clock
(:meth:`~repro.obs.window.RecordLog.advance`), never by this thread.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class OpsServer:
    """Background HTTP server exposing metrics, SLOs and attribution.

    Args:
        registry: :class:`~repro.obs.metrics.MetricsRegistry` behind
            ``/metrics``.
        log: optional :class:`~repro.obs.window.RecordLog` (its clock
            and record count go on ``/health``).
        monitor: optional :class:`~repro.obs.slo.SloMonitor` behind
            ``/slo``.
        ledger: optional :class:`~repro.obs.attribution.CostLedger`
            behind ``/tenants``.
        host / port: bind address; port 0 picks an ephemeral port
            (read it back from :attr:`port` after :meth:`start`).
    """

    def __init__(
        self,
        registry,
        log=None,
        monitor=None,
        ledger=None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.registry = registry
        self.log = log
        self.monitor = monitor
        self.ledger = ledger
        self.host = host
        self.port = port
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._started_at: float | None = None

    # ------------------------------------------------------------------
    def start(self) -> "OpsServer":
        """Bind, start serving in a daemon thread; idempotent."""
        if self._httpd is not None:
            return self
        self._httpd = ThreadingHTTPServer(
            (self.host, self.port), _make_handler(self)
        )
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="obs-ops-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop the HTTP server and release its port."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "OpsServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Payloads (handler calls these; also handy for in-process tests)
    # ------------------------------------------------------------------
    def metrics_text(self) -> str:
        return self.registry.to_prometheus()

    def health(self) -> dict:
        up = (
            time.monotonic() - self._started_at
            if self._started_at is not None
            else 0.0
        )
        payload = {"status": "ok", "uptime_s": round(up, 3)}
        if self.log is not None:
            payload["clock"] = self.log.clock
            payload["records"] = len(self.log)
        if self.monitor is not None:
            payload["slo_evaluations"] = self.monitor.evaluations
        return payload

    def slo(self) -> dict | None:
        return self.monitor.as_dict() if self.monitor is not None else None

    def tenants(self) -> dict | None:
        return self.ledger.as_dict() if self.ledger is not None else None


_PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _make_handler(server: OpsServer):
    """A handler class closed over the owning :class:`OpsServer`."""

    class Handler(BaseHTTPRequestHandler):
        # One ops scrape should never spam the run's stderr.
        def log_message(self, format, *args):  # noqa: A002 - stdlib name
            pass

        def _send(self, status: int, content_type: str, body: bytes) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _send_json(self, payload, status: int = 200) -> None:
            body = json.dumps(payload, sort_keys=True, indent=1).encode()
            self._send(status, "application/json; charset=utf-8", body)

        def do_GET(self):  # noqa: N802 - stdlib hook name
            path = self.path.split("?", 1)[0].rstrip("/") or "/"
            try:
                if path == "/metrics":
                    self._send(
                        200, _PROM_CONTENT_TYPE, server.metrics_text().encode()
                    )
                elif path == "/health" or path == "/":
                    self._send_json(server.health())
                elif path == "/slo":
                    payload = server.slo()
                    if payload is None:
                        self._send_json({"error": "no SLO monitor"}, 404)
                    else:
                        self._send_json(payload)
                elif path == "/tenants":
                    payload = server.tenants()
                    if payload is None:
                        self._send_json({"error": "no cost ledger"}, 404)
                    else:
                        self._send_json(payload)
                else:
                    self._send_json({"error": f"unknown path {path}"}, 404)
            except BrokenPipeError:
                pass  # scraper hung up mid-response
            except Exception as exc:  # pragma: no cover - defensive
                try:
                    self._send_json({"error": repr(exc)}, 500)
                except Exception:
                    pass

    return Handler
