"""Tests for links, switch, and NIC demultiplexing."""

import pytest

from repro.errors import ConfigError, NetworkError
from repro.net import Fabric, Link, Nic, Packet, Switch, WIRE_OVERHEAD
from repro.simcore import Environment


def make_packet(src="a", dst="b", length=1000, kind="data", conn=1):
    return Packet(src=src, dst=dst, conn_id=conn, kind=kind, seq=0, length=length)


# -------------------------------------------------------------------- Link ----
def test_link_delivers_after_tx_plus_propagation():
    env = Environment()
    # 10 Gbps = 1250 bytes/us.  1000+78 byte frame -> 0.8624 us tx + 2 us prop.
    link = Link(env, rate_gbps=10, propagation_us=2.0, queue_packets=8)
    arrivals = []
    link.connect(lambda p: arrivals.append(env.now))
    link.send(make_packet(length=1000))
    env.run()
    assert arrivals == [pytest.approx((1000 + WIRE_OVERHEAD) / 1250.0 + 2.0)]


def test_link_serializes_back_to_back_packets():
    env = Environment()
    link = Link(env, rate_gbps=10, propagation_us=0.0, queue_packets=8)
    arrivals = []
    link.connect(lambda p: arrivals.append(env.now))
    for _ in range(3):
        link.send(make_packet(length=1250 - WIRE_OVERHEAD))  # 1 us per frame
    env.run()
    assert arrivals == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]


def test_link_droptail_when_queue_full():
    env = Environment()
    link = Link(env, rate_gbps=1, propagation_us=0.0, queue_packets=2)
    link.connect(lambda p: None)
    results = [link.send(make_packet()) for _ in range(5)]
    # First packet starts transmitting immediately (dequeued), two queue,
    # and subsequent sends while those two are still waiting get dropped.
    assert results[0] is True
    assert sum(results) == 3
    assert link.stats.dropped == 2
    env.run()
    assert link.stats.delivered == 3


def test_link_counts_data_and_ack_packets_separately():
    env = Environment()
    link = Link(env, rate_gbps=10, propagation_us=0.0, queue_packets=16)
    link.connect(lambda p: None)
    link.send(make_packet(kind="data"))
    link.send(make_packet(kind="ack", length=0))
    env.run()
    assert link.stats.data_packets == 1
    assert link.stats.ack_packets == 1


def test_link_requires_sink():
    env = Environment()
    link = Link(env, rate_gbps=10)
    with pytest.raises(ConfigError):
        link.send(make_packet())


def test_link_validation():
    env = Environment()
    with pytest.raises(ConfigError):
        Link(env, rate_gbps=0)
    with pytest.raises(ConfigError):
        Link(env, rate_gbps=10, propagation_us=-1)
    with pytest.raises(ConfigError):
        Link(env, rate_gbps=10, queue_packets=0)


# ------------------------------------------------------------------ Switch ----
def test_switch_routes_by_destination():
    env = Environment()
    sw = Switch(env, forwarding_delay_us=0.0)
    got_a, got_b = [], []
    la = Link(env, rate_gbps=10, propagation_us=0.0)
    lb = Link(env, rate_gbps=10, propagation_us=0.0)
    la.connect(lambda p: got_a.append(p))
    lb.connect(lambda p: got_b.append(p))
    sw.attach("a", la)
    sw.attach("b", lb)
    sw.receive(make_packet(src="x", dst="a"))
    sw.receive(make_packet(src="x", dst="b"))
    env.run()
    assert len(got_a) == 1 and len(got_b) == 1
    assert sw.forwarded == 2


def test_switch_unknown_destination_raises():
    env = Environment()
    sw = Switch(env)
    with pytest.raises(NetworkError):
        sw.receive(make_packet(dst="ghost"))


def test_switch_duplicate_attach_rejected():
    env = Environment()
    sw = Switch(env)
    link = Link(env, rate_gbps=10)
    sw.attach("a", link)
    with pytest.raises(NetworkError):
        sw.attach("a", link)


def test_switch_forwarding_delay_applied():
    env = Environment()
    sw = Switch(env, forwarding_delay_us=5.0)
    arrivals = []
    link = Link(env, rate_gbps=100, propagation_us=0.0)
    link.connect(lambda p: arrivals.append(env.now))
    sw.attach("a", link)
    sw.receive(make_packet(dst="a", length=0))
    env.run()
    assert arrivals[0] == pytest.approx(5.0 + WIRE_OVERHEAD / 12500.0)


# --------------------------------------------------------------------- Nic ----
def test_nic_demultiplexes_by_connection():
    env = Environment()
    link = Link(env, rate_gbps=10)
    nic = Nic(env, "host", egress=link)
    got1, got2 = [], []
    nic.register_connection(1, got1.append)
    nic.register_connection(2, got2.append)
    nic.receive(make_packet(conn=1))
    nic.receive(make_packet(conn=2))
    nic.receive(make_packet(conn=2))
    assert len(got1) == 1 and len(got2) == 2
    assert nic.rx_packets == 3


def test_nic_duplicate_connection_rejected():
    env = Environment()
    nic = Nic(env, "host", egress=Link(env, rate_gbps=10))
    nic.register_connection(1, lambda p: None)
    with pytest.raises(NetworkError):
        nic.register_connection(1, lambda p: None)


def test_nic_unknown_connection_dropped_silently():
    env = Environment()
    nic = Nic(env, "host", egress=Link(env, rate_gbps=10))
    nic.receive(make_packet(conn=99))  # must not raise
    assert nic.rx_packets == 1


def test_nic_counts_egress_drops():
    env = Environment()
    link = Link(env, rate_gbps=1, propagation_us=0.0, queue_packets=1)
    link.connect(lambda p: None)
    nic = Nic(env, "host", egress=link)
    for _ in range(5):
        nic.transmit(make_packet())
    assert nic.tx_packets == 5
    assert nic.tx_dropped == 3  # 1 transmitting + 1 queued


# ------------------------------------------------------------------ Fabric ----
def test_fabric_end_to_end_delivery():
    env = Environment()
    fabric = Fabric(env, rate_gbps=10, propagation_us=1.0, switch_delay_us=0.5)
    fabric.add_node("client")
    fabric.add_node("server")
    got = []
    a, b = fabric.connect("client", "server")
    b.deliver = got.append
    a.send_message("hello", size=100)
    env.run()
    assert got == ["hello"]


def test_fabric_duplicate_node_rejected():
    env = Environment()
    fabric = Fabric(env)
    fabric.add_node("n1")
    with pytest.raises(NetworkError):
        fabric.add_node("n1")


def test_fabric_connect_requires_attached_nodes():
    env = Environment()
    fabric = Fabric(env)
    fabric.add_node("a")
    with pytest.raises(NetworkError):
        fabric.connect("a", "ghost")
    with pytest.raises(NetworkError):
        fabric.connect("a", "a")


def test_fabric_per_node_rate_override():
    env = Environment()
    fabric = Fabric(env, rate_gbps=100)
    fabric.add_node("slow", rate_gbps=10)
    assert fabric.uplink("slow").rate_gbps == 10
    assert fabric.downlink("slow").rate_gbps == 10


def test_link_drops_are_counted():
    env = Environment()
    link = Link(env, rate_gbps=1, propagation_us=0.0, queue_packets=1)
    link.connect(lambda p: None)
    # One frame serialises and one waits in the single queue slot; the
    # full queue refuses the rest.  Those are queue drops, not fault drops.
    assert [link.send(make_packet()) for _ in range(4)] == [True, True, False, False]
    assert (link.stats.dropped, link.stats.fault_drops) == (2, 0)
    # An injected drop counts on both counters.
    link.drop_filter = lambda p: True
    assert not link.send(make_packet())
    assert (link.stats.dropped, link.stats.fault_drops) == (3, 1)


def test_rate_change_rebooks_waiting_frames_fifo_exactly_once():
    """Degrade a link with four frames waiting, then restore it mid-queue.

    Every frame is 1250 wire bytes: 1 us at the nominal 10 Gbps
    (1250 bytes/us), 2 us at half rate.  A frame already serialising keeps
    its transmit time; the waiting ones are rebooked back to back behind it.
    The degrade pushes deliveries later (their booked events must re-check
    and sleep), the restore pulls them earlier (fresh events; the stale ones
    must be skipped), and each frame still arrives exactly once, in order.
    """
    env = Environment()
    prop = 2.0
    link = Link(env, rate_gbps=10, propagation_us=prop, queue_packets=8)
    arrivals = []
    link.connect(lambda p: arrivals.append((env.now, p)))
    frames = [make_packet(length=1250 - WIRE_OVERHEAD) for _ in range(5)]
    for frame in frames:
        assert link.send(frame)
    assert link.queue_depth == 4
    env.call_at(0.5, link.set_rate_scale, 0.5)  # f0 serialising; f1..f4 wait
    env.call_at(3.5, link.set_rate_scale, 1.0)  # f2 serialising; f3, f4 wait
    env.run()

    # f0: [0, 1] at full rate.  Half rate from 0.5: f1 [1, 3], f2 [3, 5].
    # Full rate again from 3.5, behind f2: f3 [5, 6], f4 [6, 7].
    serialised_by = [1.0, 3.0, 5.0, 6.0, 7.0]
    assert [p for _, p in arrivals] == frames
    assert [t for t, _ in arrivals] == [end + prop for end in serialised_by]
    assert link.stats.data_packets == 5
    assert link.queue_depth == 0
