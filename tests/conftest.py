"""Shared scenario-builder fixtures.

The golden-regression, fault, and QoS suites all exercise the same
scaled-down Figure-7 cell (1 LS + 2 TC tenants on one target, read mix,
10 Gbps, 200 ops per TC tenant, window 16, seed 1).  The builders live
here so the topology is declared once; suites layer their own knobs
(chaos schedules, retry policies, QoS policies) as overrides.

``build_fig7_cell`` is importable for module-level helpers; the
``fig7_cell`` / ``fig7_cell_config`` fixtures expose the same factories to
tests that prefer injection.

``slice_gate`` holds the service layer's worker slices until a test lets
them through, so tests that steer a live session see it in a known state.
"""

import threading

import pytest

from repro.cluster.scenario import Scenario, ScenarioConfig
from repro.workloads.mixes import tenants_for_ratio

#: The golden cell's knobs (tests/test_golden_regression.py pins digests of
#: exactly this shape — change them and every golden moves).
FIG7_CELL_DEFAULTS = dict(
    protocol="nvme-opf",
    network_gbps=10.0,
    op_mix="read",
    total_ops=200,
    window_size=16,
    seed=1,
)


def fig7_cell_config(**overrides) -> ScenarioConfig:
    """The golden cell's :class:`ScenarioConfig` with per-test overrides."""
    return ScenarioConfig(**{**FIG7_CELL_DEFAULTS, **overrides})


def build_fig7_cell(ratio: str = "1:2", **overrides) -> Scenario:
    """An unrun golden-cell :class:`Scenario` (callers invoke ``.run()``)."""
    cfg = fig7_cell_config(**overrides)
    return Scenario.two_sided(cfg, tenants_for_ratio(ratio, op_mix=cfg.op_mix))


@pytest.fixture
def fig7_cell():
    """Factory fixture: ``fig7_cell(ratio="1:2", **config_overrides)``."""
    return build_fig7_cell


@pytest.fixture
def fig7_config():
    """Factory fixture for just the config half of the golden cell."""
    return fig7_cell_config


class SliceGate:
    """Hold every :meth:`SimSession.run_slice` until the test releases it.

    A worker thread waits at the gate before it takes the session's lock,
    so the test can pause, inject or checkpoint while a slice is held.
    :meth:`step` lets exactly one slice through and waits until it has
    finished; :meth:`open` lets every slice through from then on.
    """

    def __init__(self, monkeypatch) -> None:
        from repro.service.session import SimSession

        self._cond = threading.Condition()
        self._permits = 0
        self._finished = 0
        self._open = False
        run_slice = SimSession.run_slice
        gate = self

        def gated(session, max_events):
            with gate._cond:
                gate._cond.wait_for(lambda: gate._open or gate._permits > 0)
                if not gate._open:
                    gate._permits -= 1
            try:
                return run_slice(session, max_events)
            finally:
                with gate._cond:
                    gate._finished += 1
                    gate._cond.notify_all()

        monkeypatch.setattr(SimSession, "run_slice", gated)

    def step(self, timeout_s: float = 30.0) -> None:
        """Let one slice run; return once it has finished."""
        with self._cond:
            target = self._finished + 1
            self._permits += 1
            self._cond.notify_all()
            if not self._cond.wait_for(lambda: self._finished >= target, timeout_s):
                raise AssertionError(f"no worker slice finished within {timeout_s}s")

    def open(self) -> None:
        with self._cond:
            self._open = True
            self._cond.notify_all()


@pytest.fixture
def slice_gate(monkeypatch):
    """A closed :class:`SliceGate`; opened at teardown so no worker stays held."""
    gate = SliceGate(monkeypatch)
    yield gate
    gate.open()
