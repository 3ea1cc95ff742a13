"""Tests for config presets, subsystems, and transport framing."""

import pytest

from repro.config import (
    CHAMELEON_CC,
    CLOUDLAB_CL,
    network_tuning,
    preset_for_network,
)
from repro.errors import ConfigError, DeviceError, ProtocolError
from repro.net import Fabric
from repro.nvmeof import PduTransport, Subsystem
from repro.simcore import Environment, RandomStreams
from repro.ssd import NvmeSsd, SsdProfile


# ----------------------------------------------------------------- presets ----
def test_preset_pairing_matches_table1():
    assert preset_for_network(10.0) is CHAMELEON_CC
    assert preset_for_network(25.0) is CHAMELEON_CC
    assert preset_for_network(100.0) is CLOUDLAB_CL
    with pytest.raises(ConfigError):
        preset_for_network(40.0)


def test_preset_values_match_table1():
    assert CHAMELEON_CC.cores == 24
    assert CLOUDLAB_CL.cores == 32
    assert CHAMELEON_CC.ram_gb == CLOUDLAB_CL.ram_gb == 256
    assert CHAMELEON_CC.ssd.capacity_bytes == 3200 * 1000**3
    assert CLOUDLAB_CL.ssd.capacity_bytes == 1600 * 1000**3


def test_reads_complete_faster_than_writes():
    """The asymmetry §V-B leans on, in both device profiles."""
    for preset in (CHAMELEON_CC, CLOUDLAB_CL):
        assert preset.ssd.read_mean_us < preset.ssd.write_mean_us


def test_network_tuning_scales_queues_with_rate():
    q10 = network_tuning(10.0).queue_packets
    q25 = network_tuning(25.0).queue_packets
    q100 = network_tuning(100.0).queue_packets
    assert q10 < q25 < q100


def test_device_saturates_between_10g_and_100g():
    """The calibration invariant: device ceiling above the 10G line rate's
    reach but below 100G, so 10G is network-bound and 100G device-bound."""
    from repro.units import gbps_to_bytes_per_us

    read_ceiling_mbps = CLOUDLAB_CL.ssd.read_iops_ceiling() * 4096 / 1e6
    assert read_ceiling_mbps < gbps_to_bytes_per_us(100.0)
    assert read_ceiling_mbps > gbps_to_bytes_per_us(10.0) * 0.8


# --------------------------------------------------------------- subsystem ----
def make_ssd(env):
    return NvmeSsd(env, profile=SsdProfile(), streams=RandomStreams(0))


def test_subsystem_namespace_mapping():
    env = Environment()
    sub = Subsystem("nqn.2024-06.io.repro:t0")
    ssd1, ssd2 = make_ssd(env), make_ssd(env)
    assert sub.add_device(ssd1) == 1
    assert sub.add_device(ssd2) == 2
    assert sub.resolve(1).device is ssd1
    assert sub.resolve(2).device is ssd2
    assert sub.namespace_ids == [1, 2]
    assert len(sub.devices) == 2


def test_subsystem_validation():
    with pytest.raises(ConfigError):
        Subsystem("not-an-nqn")
    env = Environment()
    sub = Subsystem("nqn.x")
    ssd = make_ssd(env)
    sub.add_namespace(1, ssd)
    with pytest.raises(ConfigError):
        sub.add_namespace(1, ssd)
    with pytest.raises(DeviceError):
        sub.resolve(9)
    with pytest.raises(DeviceError):
        sub.add_namespace(2, ssd, device_nsid=5)  # device has no nsid 5


# ---------------------------------------------------------------- transport ----
def test_transport_counts_and_dispatch():
    env = Environment()
    fabric = Fabric(env, rate_gbps=100)
    fabric.add_node("a")
    fabric.add_node("b")
    sa, sb = fabric.connect("a", "b")
    ta, tb = PduTransport(sa), PduTransport(sb)
    got = []
    tb.set_handler(got.append)

    from repro.nvmeof import CapsuleCmdPdu, Sqe
    from repro.nvmeof.capsule import OPCODE_READ

    pdu = CapsuleCmdPdu(sqe=Sqe(opcode=OPCODE_READ, cid=1))
    ta.send(pdu)
    env.run()
    assert got == [pdu]
    assert ta.pdus_sent == 1
    assert tb.pdus_received == 1
    assert ta.bytes_sent == pdu.wire_size


def test_transport_validate_mode_ships_decoded_twin():
    env = Environment()
    fabric = Fabric(env, rate_gbps=100)
    fabric.add_node("a")
    fabric.add_node("b")
    sa, sb = fabric.connect("a", "b")
    ta, tb = PduTransport(sa, validate=True), PduTransport(sb, validate=True)
    got = []
    tb.set_handler(got.append)

    from repro.nvmeof import CapsuleCmdPdu, Sqe
    from repro.nvmeof.capsule import OPCODE_WRITE

    pdu = CapsuleCmdPdu(
        sqe=Sqe(opcode=OPCODE_WRITE, cid=9, rsvd_priority=0b11, rsvd_tenant=42),
        data_len=4096,
    )
    ta.send(pdu)
    env.run()
    twin = got[0]
    assert twin is not pdu  # a re-decoded object, not the original
    assert twin.sqe.rsvd_priority == 0b11
    assert twin.sqe.rsvd_tenant == 42
    assert twin.data_len == 4096


def test_transport_requires_handler():
    env = Environment()
    fabric = Fabric(env, rate_gbps=100)
    fabric.add_node("a")
    fabric.add_node("b")
    sa, sb = fabric.connect("a", "b")
    ta, tb = PduTransport(sa), PduTransport(sb)  # no handler on tb

    from repro.nvmeof import IcReqPdu

    ta.send(IcReqPdu())
    with pytest.raises(ProtocolError):
        env.run()
