"""The HTTP face of the control plane (stdlib ``http.server`` only).

Routes (all request/response bodies are JSON):

====== ================================== =======================================
POST   ``/sessions``                      submit a ScenarioProgram (or restore a
                                          checkpoint via ``{"checkpoint": ...}``)
GET    ``/sessions``                      status of every hosted session
GET    ``/sessions/{id}``                 one session's status
GET    ``/sessions/{id}/telemetry``       per-tenant QoS snapshots; ``?cursor=N``
                                          + ``?wait_ms=M`` long-polls for news
POST   ``/sessions/{id}/actions``         inject an action at future virtual time
POST   ``/sessions/{id}/pause``           cooperative pause
POST   ``/sessions/{id}/resume``          resume a created/paused session
POST   ``/sessions/{id}/checkpoint``      serialize a paused session
GET    ``/sessions/{id}/result``          sealed result + digest; ``?wait_ms=M``
                                          blocks until the session finishes
GET    ``/healthz``                       liveness
====== ================================== =======================================

Error mapping: unknown session → 404, wrong lifecycle state → 409, malformed
programs/checkpoints/actions/config → 400, everything unexpected → 500.
``ThreadingHTTPServer`` gives one thread per in-flight request; the actual
simulation work stays on the manager's worker pool, so a slow long-poll
never stalls a simulation.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..errors import ConfigError, ReproError, ScenarioProgramError, ServiceError
from ..scenarios.actions import checked
from .manager import DEFAULT_SLICE_EVENTS, SessionManager
from .session import SessionNotFound, SessionStateError

#: Longest long-poll the server will hold a request open for.
MAX_WAIT_MS = 30_000

#: Largest request body the server reads.  Programs and checkpoints are a
#: few KiB; a body above this is refused with 413 before any byte is read.
MAX_BODY_BYTES = 16 * 1024 * 1024

_SESSION_ROUTE = re.compile(
    r"^/sessions/(?P<id>[A-Za-z0-9_.-]+)"
    r"(?:/(?P<verb>telemetry|actions|pause|resume|checkpoint|result))?$"
)


class _ApiError(Exception):
    """Internal: carries an HTTP status through the dispatch path."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _wait_s(query: Dict[str, list]) -> float:
    try:
        wait_ms = int(query.get("wait_ms", ["0"])[0])
    except ValueError:
        raise _ApiError(400, "wait_ms must be an integer") from None
    return min(max(wait_ms, 0), MAX_WAIT_MS) / 1000.0


def _cursor(query: Dict[str, list]) -> int:
    try:
        return max(0, int(query.get("cursor", ["0"])[0]))
    except ValueError:
        raise _ApiError(400, "cursor must be an integer") from None


class _Handler(BaseHTTPRequestHandler):
    """One request-parsing shim over the manager; no simulation logic."""

    manager: SessionManager  # bound by _make_handler
    protocol_version = "HTTP/1.1"

    # -- plumbing --------------------------------------------------------------
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass  # tests run live servers; stderr chatter is noise

    def _reply(self, status: int, payload: object) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _body(self) -> Dict[str, object]:
        try:
            length = int(self.headers.get("Content-Length", 0) or 0)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # The body stays unread, so the connection cannot carry another
            # request after the error reply.
            self.close_connection = True
            if length < 0:
                raise _ApiError(400, "bad Content-Length: must be an integer >= 0")
            raise _ApiError(
                413, f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            data = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise _ApiError(400, f"request body is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise _ApiError(
                400, f"request body must be a JSON object, got {type(data).__name__}"
            )
        return data

    def _dispatch(self, method: str) -> None:
        try:
            status, payload = self._route(method)
        except _ApiError as exc:
            status, payload = exc.status, {"error": str(exc)}
        except SessionNotFound as exc:
            status, payload = 404, {"error": str(exc)}
        except SessionStateError as exc:
            status, payload = 409, {"error": str(exc)}
        except (ServiceError, ScenarioProgramError, ConfigError) as exc:
            status, payload = 400, {"error": str(exc)}
        except ReproError as exc:
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        except Exception as exc:  # pragma: no cover - defensive
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        try:
            self._reply(status, payload)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # client gave up on a long-poll; nothing to salvage

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("POST")

    # -- routing ---------------------------------------------------------------
    def _route(self, method: str) -> Tuple[int, object]:
        url = urlparse(self.path)
        path = url.path.rstrip("/") or "/"
        query = parse_qs(url.query)
        manager = self.manager

        if path == "/healthz" and method == "GET":
            return 200, {"ok": True, "sessions": len(manager.list_sessions())}
        if path == "/sessions":
            if method == "GET":
                return 200, {"sessions": manager.list_sessions()}
            return self._submit(self._body())
        match = _SESSION_ROUTE.match(path)
        if not match:
            raise _ApiError(404, f"no route {method} {path}")
        session_id, verb = match.group("id"), match.group("verb")

        if verb is None and method == "GET":
            return 200, manager.get(session_id).status()
        if verb == "telemetry" and method == "GET":
            session = manager.get(session_id)
            cursor, snapshots = session.telemetry(
                cursor=_cursor(query), wait_s=_wait_s(query)
            )
            return 200, {
                "id": session.id,
                "state": session.state,
                "cursor": cursor,
                "snapshots": snapshots,
            }
        if verb == "result" and method == "GET":
            session = manager.get(session_id)
            wait_s = _wait_s(query)
            if wait_s > 0:
                session.wait_for(("finished", "failed"), timeout_s=wait_s)
            return 200, session.result_payload()
        if verb == "actions" and method == "POST":
            body = self._body()
            if "action" not in body or "at_us" not in body:
                raise _ApiError(
                    400, "action injection needs {'action': {...}, 'at_us': t}"
                )
            record = manager.get(session_id).inject(body["action"], body["at_us"])
            return 200, {"id": session_id, "injected": record.to_dict()}
        if verb == "pause" and method == "POST":
            return 200, manager.pause(session_id).status()
        if verb == "resume" and method == "POST":
            return 200, manager.resume(session_id).status()
        if verb == "checkpoint" and method == "POST":
            label = str(self._body().get("label", ""))
            checkpoint = manager.checkpoint(session_id, label=label)
            return 200, {"id": session_id, "checkpoint": checkpoint}
        raise _ApiError(404, f"no route {method} {path}")

    def _submit(self, body: Dict[str, object]) -> Tuple[int, object]:
        start = checked(
            "submission 'start'", body.get("start", True), bool, "a bool", ServiceError
        )
        if "checkpoint" in body:
            session = self.manager.restore(body["checkpoint"], start=start)
        elif "program" in body:
            session = self.manager.submit(
                body["program"],
                start=start,
                check_invariants=checked(
                    "submission 'check_invariants'", body.get("check_invariants", True), bool,
                    "a bool", ServiceError,
                ),
            )
        else:
            raise _ApiError(
                400,
                "submission needs a 'program' (scenario-program dict) or a "
                "'checkpoint' (session-checkpoint dict)",
            )
        return 201, session.status()


def _make_handler(manager: SessionManager) -> type:
    return type("BoundHandler", (_Handler,), {"manager": manager})


class ServiceServer:
    """The composed service: manager + threaded HTTP front end."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        slice_events: int = DEFAULT_SLICE_EVENTS,
        manager: Optional[SessionManager] = None,
    ) -> None:
        if not isinstance(port, int) or isinstance(port, bool) or not 0 <= port <= 65535:
            raise ConfigError(f"key 'port' must be an integer in [0, 65535] (got {port!r})")
        self.manager = manager or SessionManager(
            workers=workers, slice_events=slice_events
        )
        self.httpd = ThreadingHTTPServer((host, port), _make_handler(self.manager))
        self.httpd.daemon_threads = True
        self.host, self.port = self.httpd.server_address[0], self.httpd.server_address[1]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceServer":
        """Serve on a background thread (tests / embedding); returns self."""
        if self._thread is not None:
            raise ServiceError("server already started")
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI path); Ctrl-C returns."""
        try:
            self.httpd.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.manager.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
