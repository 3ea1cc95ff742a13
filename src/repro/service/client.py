"""Typed stdlib client for the simulation service.

A thin, dependency-free wrapper over :mod:`http.client` that speaks the
server's JSON routes and raises :class:`ServiceApiError` with the server's
status code and message on any non-2xx reply.  Connections are per-request:
the service holds no client-side session state, so there is nothing to keep
alive, and a crashed long-poll costs one TCP handshake to retry.
"""

from __future__ import annotations

import http.client
import json
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlencode

from ..errors import ServiceError
from ..scenarios.actions import Action
from ..scenarios.program import ScenarioProgram

#: How long one :meth:`ServiceClient.wait` poll blocks server-side.
WAIT_POLL_MS = 2_000


class ServiceApiError(ServiceError):
    """A non-2xx reply from the service, carrying the HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServiceClient:
    """One service endpoint; every method is a single HTTP round trip."""

    def __init__(self, host: str, port: int, timeout_s: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s

    # -- transport -------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, object]] = None,
        query: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        if query:
            path = f"{path}?{urlencode(query)}"
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout_s)
        try:
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        finally:
            conn.close()
        try:
            data = json.loads(raw.decode("utf-8")) if raw else {}
        except (ValueError, UnicodeDecodeError) as exc:
            raise ServiceApiError(
                response.status, f"unparseable response body: {exc}"
            ) from None
        if not 200 <= response.status < 300:
            message = data.get("error") if isinstance(data, dict) else None
            raise ServiceApiError(response.status, str(message or raw[:200]))
        return data

    # -- API surface -----------------------------------------------------------
    def health(self) -> Dict[str, object]:
        return self._request("GET", "/healthz")

    def submit(
        self,
        program: object,
        start: bool = True,
        check_invariants: bool = True,
    ) -> str:
        """Submit a program (:class:`ScenarioProgram` or dict); returns the
        new session id."""
        if isinstance(program, ScenarioProgram):
            program = program.to_dict()
        reply = self._request(
            "POST",
            "/sessions",
            body={
                "program": program,
                "start": start,
                "check_invariants": check_invariants,
            },
        )
        return str(reply["id"])

    def restore(self, checkpoint: Dict[str, object], start: bool = False) -> str:
        """Rebuild a session from a checkpoint dict; returns the new id."""
        reply = self._request(
            "POST", "/sessions", body={"checkpoint": checkpoint, "start": start}
        )
        return str(reply["id"])

    def sessions(self) -> List[Dict[str, object]]:
        return list(self._request("GET", "/sessions")["sessions"])

    def status(self, session_id: str) -> Dict[str, object]:
        return self._request("GET", f"/sessions/{session_id}")

    def telemetry(
        self, session_id: str, cursor: int = 0, wait_ms: int = 0
    ) -> Tuple[int, List[Dict[str, object]]]:
        """Snapshots at seq >= cursor; long-polls up to ``wait_ms`` for new
        ones.  Returns (next_cursor, snapshots)."""
        reply = self._request(
            "GET",
            f"/sessions/{session_id}/telemetry",
            query={"cursor": cursor, "wait_ms": wait_ms},
        )
        return int(reply["cursor"]), list(reply["snapshots"])

    def inject(
        self, session_id: str, action: object, at_us: float
    ) -> Dict[str, object]:
        """Inject a program action at workload-relative virtual time."""
        if isinstance(action, Action):
            action = action.to_dict()
        return self._request(
            "POST",
            f"/sessions/{session_id}/actions",
            body={"action": action, "at_us": at_us},
        )

    def pause(self, session_id: str) -> Dict[str, object]:
        return self._request("POST", f"/sessions/{session_id}/pause", body={})

    def resume(self, session_id: str) -> Dict[str, object]:
        return self._request("POST", f"/sessions/{session_id}/resume", body={})

    def checkpoint(self, session_id: str, label: str = "") -> Dict[str, object]:
        """Pause-required serialization; returns the checkpoint dict."""
        reply = self._request(
            "POST", f"/sessions/{session_id}/checkpoint", body={"label": label}
        )
        return dict(reply["checkpoint"])

    def result(self, session_id: str, wait_ms: int = 0) -> Dict[str, object]:
        """The sealed result (digest included).  ``wait_ms`` blocks server-
        side until the session finishes or the wait expires; a 409 means it
        is still running."""
        query = {"wait_ms": wait_ms} if wait_ms else None
        return self._request("GET", f"/sessions/{session_id}/result", query=query)

    def wait(self, session_id: str, timeout_s: float = 120.0) -> Dict[str, object]:
        """Block until the session seals, then return the result payload.

        Each poll blocks server-side for up to :data:`WAIT_POLL_MS`."""
        import time

        deadline = time.monotonic() + timeout_s
        while True:
            remaining_ms = int((deadline - time.monotonic()) * 1000)
            if remaining_ms <= 0:
                raise ServiceApiError(
                    408, f"session {session_id!r} did not finish in {timeout_s}s"
                )
            try:
                return self.result(session_id, wait_ms=min(WAIT_POLL_MS, remaining_ms))
            except ServiceApiError as exc:
                if exc.status != 409:
                    raise
