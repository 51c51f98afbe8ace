"""The daemon's HTTP surface: a thin stdlib server over :class:`SchedulerDaemon`.

No third-party web framework -- :class:`http.server.ThreadingHTTPServer`
handlers call straight into the daemon, whose locking already makes
admission safe from any number of threads.  Endpoints:

``POST /submit``
    One JSON submission object; replies ``{"job_id", "release"}`` (HTTP 200)
    or ``{"error"}``: 400 (malformed), 409 (duplicate/unhosted, or the
    daemon is draining -- permanent, do not retry), 503 with a
    ``Retry-After`` header (load shed by the admission valve -- transient,
    retry after the indicated back-off).
``POST /stream``
    A JSONL window (one submission per line); replies with the
    :class:`~repro.service.ingest.IngestReport` -- per-record accounting,
    HTTP 200 even when some lines were rejected (the report says which).
``GET /telemetry``
    The live telemetry document: current ``S*``, LP probe histogram,
    per-databank queue depths, replan-latency percentiles, admission
    counters.
``GET /healthz``
    Cheap liveness/readiness probe: ``{"status": "accepting" | "draining"
    | "stopped" | "failed", ...}`` -- always HTTP 200, load balancers key
    off the ``status`` field.
``POST /drain``
    Close the submission stream; the engine finishes what was admitted.
    Replies with the final metrics once the run completes.

Bind with ``port=0`` to grab a free port (the CI smoke test does); the
chosen port is on :attr:`ServiceServer.port`.
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.service.daemon import SchedulerDaemon
from repro.service.ingest import parse_submission
from repro.service.trace import AdmissionError, ServiceError

__all__ = ["ServiceServer"]

#: Largest request body accepted (a JSONL window can be big, but not infinite).
_MAX_BODY_BYTES = 32 * 1024 * 1024


class _Server(ThreadingHTTPServer):
    """The listener socket plus the shared daemon the handlers call into."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], daemon: SchedulerDaemon,
                 drain_timeout: float):
        super().__init__(address, _Handler)
        self.scheduler_daemon = daemon
        self.drain_timeout = drain_timeout
        # ``serve_forever`` would look for a stop request every 0.5 s;
        # :meth:`serve` sleeps until a connection arrives or :meth:`stop`
        # writes to this pair.
        self._wake_read, self._wake_write = socket.socketpair()
        self._stopping = False

    def serve(self) -> None:
        """Handle connections until :meth:`stop`."""
        with selectors.DefaultSelector() as selector:
            selector.register(self, selectors.EVENT_READ)
            selector.register(self._wake_read, selectors.EVENT_READ)
            while not self._stopping:
                selector.select()
                if not self._stopping:
                    self._handle_request_noblock()

    def stop(self) -> None:
        """Make :meth:`serve` return now (a no-op after the first call)."""
        if not self._stopping:
            self._stopping = True
            self._wake_write.send(b"\0")

    def server_close(self) -> None:
        super().server_close()
        self._wake_read.close()
        self._wake_write.close()


class _Handler(BaseHTTPRequestHandler):
    """One HTTP request; ``self.server.scheduler_daemon`` is the shared daemon."""

    server: "_Server"
    protocol_version = "HTTP/1.1"
    #: ``TCP_NODELAY`` on every accepted connection: a keep-alive reply must
    #: not wait for the client's delayed ACK of the previous one.
    disable_nagle_algorithm = True

    # -- plumbing ----------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # quiet by default; telemetry is the observability surface

    def _reply(
        self,
        status: int,
        payload: dict[str, Any],
        headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.request_version == "HTTP/0.9":  # a reply without a head
            self.wfile.write(body)
            return
        # ``end_headers()`` would write the head on its own; queue the blank
        # line and the body behind it so the reply leaves in one write.
        self._headers_buffer.extend((b"\r\n", body))
        self.flush_headers()

    def _read_body(self) -> bytes | None:
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY_BYTES:
            self._reply(413, {"error": f"body exceeds {_MAX_BODY_BYTES} bytes"})
            return None
        return self.rfile.read(length)

    # -- routes ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/telemetry":
            self._reply(200, self.server.scheduler_daemon.telemetry())
        elif self.path == "/healthz":
            self._reply(200, self.server.scheduler_daemon.healthz())
        else:
            self._reply(404, {"error": f"unknown endpoint {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/submit":
            self._submit()
        elif self.path == "/stream":
            self._stream()
        elif self.path == "/drain":
            self._drain()
        else:
            self._reply(404, {"error": f"unknown endpoint {self.path}"})

    def _submit(self) -> None:
        body = self._read_body()
        if body is None:
            return
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._reply(400, {"error": f"malformed JSON: {exc}"})
            return
        try:
            request = parse_submission(payload)
        except ValueError as exc:
            self._reply(400, {"error": str(exc)})
            return
        try:
            job_id, release = self.server.scheduler_daemon.submit(request)
        except ValueError as exc:
            # Duplicate client_id / unhosted databank: the client's fault.
            self._reply(409, {"error": str(exc)})
            return
        except AdmissionError as exc:
            # Load shed: transient overload, retry after the back-off.
            self._reply(
                503,
                {"error": str(exc), "retry_after": exc.retry_after},
                headers={"Retry-After": f"{exc.retry_after:g}"},
            )
            return
        except ServiceError as exc:
            # Stream closed: the daemon is draining -- permanent for this
            # daemon's lifetime, so a conflict, not a retryable 503.
            self._reply(409, {"error": str(exc), "draining": True})
            return
        self._reply(200, {"job_id": job_id, "release": release})

    def _stream(self) -> None:
        body = self._read_body()
        if body is None:
            return
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError as exc:
            self._reply(400, {"error": f"body is not UTF-8: {exc}"})
            return
        report = self.server.scheduler_daemon.ingest(text.splitlines())
        self._reply(200, report.as_dict())

    def _drain(self) -> None:
        daemon = self.server.scheduler_daemon
        daemon.close_submissions()
        try:
            result = daemon.join(timeout=self.server.drain_timeout)
        except ServiceError as exc:
            self._reply(503, {"error": str(exc)})
            return
        except Exception as exc:  # noqa: BLE001 - engine failure -> client
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})
            return
        self._reply(
            200,
            {
                "status": "drained",
                "n_jobs": len(result.completions),
                "metrics": result.metrics_row(),
                "n_decisions": result.n_decisions,
            },
        )


class ServiceServer:
    """The daemon plus its HTTP listener, each on their own threads.

    ``port=0`` (default) binds an ephemeral free port; read
    :attr:`port`/:attr:`url` after construction.  Use as a context manager
    or call :meth:`shutdown` explicitly.
    """

    def __init__(
        self,
        daemon: SchedulerDaemon,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        drain_timeout: float = 60.0,
    ):
        self.daemon = daemon
        self.drain_timeout = drain_timeout
        self._httpd = _Server((host, port), daemon, drain_timeout)
        self.host = host
        self.port = int(self._httpd.server_address[1])
        self._http_thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Start the daemon's engine thread and the HTTP listener."""
        self.daemon.start()
        if self._http_thread is None:
            self._http_thread = threading.Thread(
                target=self._httpd.serve,
                name="repro-service-http",
                daemon=True,
            )
            self._http_thread.start()

    def shutdown(self) -> None:
        """Stop the listener; the daemon is left to its owner (join/stop)."""
        self._httpd.stop()
        if self._http_thread is not None:
            self._http_thread.join(timeout=5.0)
            self._http_thread = None
        self._httpd.server_close()

    def __enter__(self) -> "ServiceServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
