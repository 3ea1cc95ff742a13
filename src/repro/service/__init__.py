"""Simulation-as-a-service control plane (stdlib-only).

``repro.service`` hosts many concurrent simulations behind one process:

* :class:`~repro.service.session.SimSession` — a scenario-program run
  decomposed into budgeted, resumable slices on the engine's incremental
  :meth:`~repro.simcore.engine.Environment.advance` loop, with live
  telemetry snapshots, mid-run action injection, and checkpoint/resume by
  deterministic replay-to-cursor.
* :class:`~repro.service.manager.SessionManager` — a worker-thread pool
  multiplexing every active session in time slices.
* :class:`~repro.service.server.ServiceServer` — the HTTP API
  (``http.server``; zero new runtime dependencies) exposing submit /
  status / telemetry / actions / pause / resume / checkpoint / result.
* :class:`~repro.service.client.ServiceClient` — the typed stdlib client
  the tests and examples drive the API with.

The paper's premise — many tenants with different priorities sharing one
NVMe-oF fabric — is a *service* premise, and this layer is its production
shape: multi-tenant traffic hitting an API whose backend is the simulator.

Each public name is imported from its submodule on first use, so a process
that only runs sessions (``import repro.service.session``) never loads the
HTTP, TLS and e-mail modules the server and client need.
"""

from importlib import import_module

#: Public name -> the submodule that defines it.
_LAZY_EXPORTS = {
    "CHECKPOINT_FORMAT": "session",
    "DEFAULT_SLICE_EVENTS": "manager",
    "ServiceApiError": "client",
    "ServiceClient": "client",
    "ServiceServer": "server",
    "SessionManager": "manager",
    "SessionNotFound": "session",
    "SessionStateError": "session",
    "SimSession": "session",
}

__all__ = sorted(_LAZY_EXPORTS)


def __getattr__(name: str) -> object:
    """Import a public name from its submodule the first time it is read."""
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
