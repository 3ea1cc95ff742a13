"""Tests for the CPU cost model and the FIFO core."""

import pytest

from repro.cpu import CpuCore, CpuCostModel, DEFAULT_COSTS
from repro.errors import ConfigError, SimulationError
from repro.simcore import Environment


# ------------------------------------------------------------------ costs ----
def test_cost_model_validation():
    with pytest.raises(ConfigError):
        CpuCostModel(pdu_rx=-1.0)


def test_baseline_per_request_aggregate():
    costs = CpuCostModel(
        pdu_rx=1.0, pdu_tx=1.0, cqe_build=1.0, nvme_submit=1.0, nvme_complete=1.0
    )
    assert costs.target_per_request_baseline == pytest.approx(5.0)


def test_coalesced_amortises_response_cost():
    costs = DEFAULT_COSTS
    per_1 = costs.target_per_request_coalesced(1)
    per_32 = costs.target_per_request_coalesced(32)
    assert per_32 < per_1
    assert per_32 < costs.target_per_request_baseline
    # The window-independent floor:
    floor = costs.pdu_rx + costs.nvme_submit + costs.nvme_complete + costs.retire
    assert per_32 == pytest.approx(floor + (costs.cqe_build + costs.pdu_tx) / 32)


def test_coalesced_window_validation():
    with pytest.raises(ConfigError):
        DEFAULT_COSTS.target_per_request_coalesced(0)


def test_scaled_cost_model():
    half = DEFAULT_COSTS.scaled(0.5)
    assert half.pdu_rx == pytest.approx(DEFAULT_COSTS.pdu_rx / 2)
    with pytest.raises(ConfigError):
        DEFAULT_COSTS.scaled(0)


def test_with_overrides():
    costs = DEFAULT_COSTS.with_overrides(cqe_build=9.0)
    assert costs.cqe_build == 9.0
    assert costs.pdu_rx == DEFAULT_COSTS.pdu_rx


# ------------------------------------------------------------------- core ----
def test_core_serializes_fifo():
    env = Environment()
    core = CpuCore(env)
    finish_times = []

    def record(_):
        finish_times.append(env.now)

    assert [core.run_later(cost, record) for cost in (2.0, 3.0, 1.0)] == [2.0, 5.0, 6.0]
    env.run()
    assert finish_times == [pytest.approx(2.0), pytest.approx(5.0), pytest.approx(6.0)]


def test_core_idle_gap_then_work():
    env = Environment()
    core = CpuCore(env)
    finished = []

    def record(_):
        finished.append(env.now)

    core.run_later(1.0, record)
    env.run()
    env.call_later(10.0, lambda _: core.run_later(1.0, record))  # idle gap
    env.run()
    assert finished == [pytest.approx(1.0), pytest.approx(12.0)]


def test_core_zero_cost_preserves_order():
    env = Environment()
    core = CpuCore(env)
    order = []
    core.run_later(5.0, order.append, "a")
    core.run_later(0.0, order.append, "b")
    env.run()
    assert order == ["a", "b"]


def test_core_negative_cost_rejected():
    env = Environment()
    core = CpuCore(env)
    with pytest.raises(SimulationError):
        core.run_later(-1.0, print)
    with pytest.raises(SimulationError):
        core.charge(-1.0)


def test_core_charge_advances_availability():
    env = Environment()
    core = CpuCore(env)
    finish = core.charge(4.0)
    assert finish == pytest.approx(4.0)
    assert core.backlog == pytest.approx(4.0)
    assert core.busy_time == pytest.approx(4.0)


def test_core_utilization():
    env = Environment()
    core = CpuCore(env)
    core.run_later(5.0, lambda _: env.call_later(5.0, lambda _: None))
    env.run()
    assert env.now == pytest.approx(10.0)
    assert core.utilization() == pytest.approx(0.5)


def test_core_charge_accumulates_busy_time():
    env = Environment()
    core = CpuCore(env)
    assert [core.charge(1.0), core.charge(2.0), core.charge(3.0)] == [1.0, 3.0, 6.0]
    assert core.busy_time == pytest.approx(6.0)
    assert core.backlog == pytest.approx(6.0)
