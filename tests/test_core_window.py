"""Tests for window-size selection (§IV-D)."""

import pytest

from repro.core import clamp_to_queue_depth, select_window
from repro.errors import ConfigError


def test_default_sweet_spot_on_fast_fabrics():
    assert select_window("read", 100.0) == 32
    assert select_window("read", 25.0) == 32


def test_smaller_window_on_saturated_10g():
    """Fig. 6b: large windows hurt on 10 Gbps."""
    assert select_window("read", 10.0) == 16


def test_mixed_low_concurrency_shrinks_window():
    """Fig. 7b: mixed windows have high variance with few tenants."""
    assert select_window("mixed", 100.0, tc_initiators=1) == 16
    assert select_window("mixed", 100.0, tc_initiators=4) == 32


def test_clamped_to_half_queue_depth():
    assert select_window("read", 100.0, queue_depth=16) == 8
    assert select_window("read", 100.0, queue_depth=1) == 1
    assert clamp_to_queue_depth(64, 32) == 16
    assert clamp_to_queue_depth(1, 1) == 1


def test_select_window_validation():
    with pytest.raises(ConfigError):
        select_window("scan", 100.0)
    with pytest.raises(ConfigError):
        select_window("read", 0)
    with pytest.raises(ConfigError):
        select_window("read", 100.0, tc_initiators=0)
    with pytest.raises(ConfigError):
        select_window("read", 100.0, queue_depth=0)
