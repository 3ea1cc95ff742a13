"""Exception hierarchy for the NVMe-oPF reproduction.

Every exception raised intentionally by the library derives from
:class:`ReproError`, so applications can catch one base class.  Subsystem
errors are separated so tests can assert on precise failure modes
(e.g. a full submission queue vs. a malformed PDU).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class ConfigError(ReproError):
    """Invalid or inconsistent configuration values."""


class SimulationError(ReproError):
    """Errors raised by the discrete-event core (``repro.simcore``)."""


class ProtocolError(ReproError):
    """NVMe-oF / NVMe-oPF protocol violations (bad PDU, unknown CID, ...)."""


class QueueFullError(ReproError):
    """A bounded queue (SQ/CQ, link buffer, ...) rejected an entry."""


class QueueEmptyError(ReproError):
    """An immediate get on an empty queue."""


class DeviceError(ReproError):
    """NVMe SSD device-model errors (bad LBA range, namespace, ...)."""


class NetworkError(ReproError):
    """Fabric errors (unknown address, link down, connection reset, ...)."""


class FaultError(ReproError):
    """Fault-injection misconfiguration (unknown fault kind, bad target, ...)."""


class RetryExhaustedError(ReproError):
    """A command failed permanently after the retry budget was spent."""


class TenantError(ReproError):
    """Multi-tenancy management errors (duplicate tenant id, unknown tenant)."""


class WorkloadError(ReproError):
    """Workload-generator misconfiguration."""


class Hdf5Error(ReproError):
    """Errors from the simplified HDF5 substrate (``repro.hdf5sim``)."""


class ScenarioProgramError(ReproError):
    """Invalid scenario-program data (``repro.scenarios``): malformed
    actions, references to tenants that never joined, unserializable
    configs, unknown registry names."""


class InvariantViolation(ReproError):
    """A machine-checked scenario invariant failed during or after replay
    (``repro.scenarios.invariants``)."""


class ServiceError(ReproError):
    """Simulation-service control-plane errors (``repro.service``): illegal
    session state transitions, malformed checkpoints, replay-to-cursor
    divergence, injection into an already-launched timeline."""


class CampaignError(ReproError):
    """A parallel sweep/campaign failed (``repro.parallel``): a work unit
    exhausted its retries, an invariant failed inside a unit, or the merge
    received duplicate/missing unit results."""
