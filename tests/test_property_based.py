"""Property-based tests (hypothesis) for core data structures and invariants."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st


from repro.core import CidQueue, DrainGroup, pack_flags, unpack_flags
from repro.errors import ProtocolError
from repro.metrics.percentile import P2Quantile, exact_percentile
from repro.nvmeof.capsule import Cqe, OPCODE_FLUSH, OPCODE_READ, OPCODE_WRITE, Sqe
from repro.nvmeof.pdu import C2HDataPdu, CapsuleCmdPdu, CapsuleRespPdu, decode_pdu
from repro.simcore import Environment
from repro.simcore.rng import RandomStreams
from repro.ssd.latency import OP_READ, SsdProfile

# ------------------------------------------------------------ capsule codec ----

sqe_strategy = st.builds(
    Sqe,
    opcode=st.sampled_from([OPCODE_READ, OPCODE_WRITE, OPCODE_FLUSH]),
    cid=st.integers(0, 0xFFFF),
    nsid=st.integers(1, 0xFFFF),
    slba=st.integers(0, 2**63 - 1),
    nlb=st.integers(1, 0xFFFF),
    rsvd_priority=st.integers(0, 0xFF),
    rsvd_tenant=st.integers(0, 0xFF),
)


@given(sqe_strategy)
def test_sqe_roundtrip_property(sqe):
    back = Sqe.decode(sqe.encode())
    assert back.opcode == sqe.opcode
    assert back.cid == sqe.cid
    assert back.nsid == sqe.nsid
    assert back.rsvd_priority == sqe.rsvd_priority
    assert back.rsvd_tenant == sqe.rsvd_tenant
    if sqe.opcode != OPCODE_FLUSH:
        assert back.slba == sqe.slba
        assert back.nlb == sqe.nlb


@given(
    st.integers(0, 0xFFFF),
    st.integers(0, 0xFFFF),
    st.integers(0, 0xFFFF),
    st.integers(0, 0xFFFF),
    st.integers(0, 2**32 - 1),
)
def test_cqe_roundtrip_property(cid, status, sqid, sqhd, result):
    cqe = Cqe(cid=cid, status=status, sqid=sqid, sqhd=sqhd, result=result)
    assert Cqe.decode(cqe.encode()) == cqe


@given(sqe_strategy, st.integers(0, 1 << 20))
def test_capsule_cmd_pdu_roundtrip_property(sqe, data_len):
    pdu = CapsuleCmdPdu(sqe=sqe, data_len=data_len)
    back = decode_pdu(pdu.encode())
    assert back.sqe.cid == sqe.cid
    assert back.data_len == data_len
    assert back.wire_size == pdu.wire_size


@given(st.integers(0, 0xFFFF), st.booleans())
def test_capsule_resp_roundtrip_property(cid, coalesced):
    pdu = CapsuleRespPdu(cqe=Cqe(cid=cid), coalesced=coalesced)
    back = decode_pdu(pdu.encode())
    assert back.cqe.cid == cid
    assert back.coalesced == coalesced


@given(st.integers(0, 0xFFFF), st.integers(1, 1 << 24), st.integers(0, 1 << 30), st.booleans())
def test_c2h_data_roundtrip_property(cid, data_len, offset, last):
    pdu = C2HDataPdu(cid=cid, data_len=data_len, offset=offset, last=last)
    back = decode_pdu(pdu.encode())
    assert (back.cid, back.data_len, back.offset, back.last) == (cid, data_len, offset, last)


# ------------------------------------------------------------------- flags ----
@given(st.integers(0, 255))
def test_unpack_flags_never_crashes_on_valid_bits(byte):
    """Any byte either decodes to a consistent flag set or raises ProtocolError."""
    try:
        priority, draining = unpack_flags(byte)
    except ProtocolError:
        assert byte & ~0b11 or byte == 0b10  # unknown bits or LS+drain
    else:
        assert pack_flags(priority, draining) == byte


# --------------------------------------------------------------- CID queue ----
@given(st.lists(st.integers(0, 0xFFFF), unique=True, min_size=1, max_size=200),
       st.integers(0, 199))
def test_cid_queue_drain_through_is_prefix(cids, index):
    q = CidQueue()
    for cid in cids:
        q.push(cid)
    target = cids[index % len(cids)]
    drained = q.drain_through(target)
    k = cids.index(target) + 1
    assert drained == cids[:k]
    assert len(q) == len(cids) - k
    assert all(c in q for c in cids[k:])
    assert not any(c in q for c in cids[:k])
    if k < len(cids):
        assert q.drain_through(cids[-1]) == cids[k:]  # the rest, still in order


# -------------------------------------------------------------- drain group ----
@given(st.lists(st.integers(0, 0xFFFF), unique=True, min_size=1, max_size=64),
       st.randoms(use_true_random=False))
def test_drain_group_completes_iff_all_marked(cids, rnd):
    group = DrainGroup(tenant_id=0, drain_cid=cids[-1], cids=list(cids))
    order = list(cids)
    rnd.shuffle(order)
    for i, cid in enumerate(order):
        done = group.mark_complete(cid)
        assert done == (i == len(order) - 1)
    assert group.complete


# -------------------------------------------------------------- percentiles ----
@given(
    st.lists(st.floats(min_value=0.001, max_value=1e6, allow_nan=False), min_size=50,
             max_size=500),
    st.sampled_from([0.5, 0.9, 0.99]),
)
@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
def test_p2_quantile_within_sample_range(samples, q):
    est = P2Quantile(q)
    for x in samples:
        est.add(x)
    assert min(samples) <= est.value <= max(samples)


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1,
                max_size=200))
def test_exact_percentile_monotone_in_q(samples):
    p50 = exact_percentile(samples, 50)
    p90 = exact_percentile(samples, 90)
    p999 = exact_percentile(samples, 99.9)
    assert p50 <= p90 <= p999


# -------------------------------------------------------------------- rng ----
@given(st.floats(min_value=0.1, max_value=1e4), st.floats(min_value=0.0, max_value=1.5))
@settings(max_examples=25)
def test_lognormal_with_mean_hits_requested_mean(mean, cv):
    rng = RandomStreams(7).stream("x")
    profile = SsdProfile(read_mean_us=mean, read_cv=cv)
    samples = [profile.service_time(rng, OP_READ, 4096) for _ in range(4000)]
    got = sum(samples) / len(samples)
    tolerance = 0.15 * mean if cv > 0 else 1e-9
    assert abs(got - mean) <= max(tolerance, 0.15 * mean * cv + 1e-9)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20)
def test_named_streams_reproducible_and_distinct(seed):
    a1 = RandomStreams(seed).stream("alpha").random(4).tolist()
    a2 = RandomStreams(seed).stream("alpha").random(4).tolist()
    b = RandomStreams(seed).stream("beta").random(4).tolist()
    assert a1 == a2
    assert a1 != b


# -------------------------------------------------------- engine invariants ----
@given(st.lists(st.floats(min_value=0.0, max_value=1e5, allow_nan=False), min_size=1,
                max_size=50))
@settings(max_examples=30)
def test_engine_time_never_goes_backwards(delays):
    env = Environment()
    observed = []

    def proc(env, delay):
        yield env.timeout(delay)
        observed.append(env.now)

    for delay in delays:
        env.process(proc(env, delay))
    env.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


@given(st.lists(st.integers(1, 1000), min_size=1, max_size=40))
@settings(max_examples=30)
def test_store_preserves_fifo_under_any_sizes(items):
    from repro.simcore import Store

    env = Environment()
    store = Store(env)
    out = []

    def producer(env):
        for item in items:
            yield store.put(item)

    def consumer(env):
        for _ in items:
            got = yield store.get()
            out.append(got)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert out == items


# ------------------------------------------------------ TCP under random loss ----
@given(
    st.integers(0, 2**31 - 1),
    st.floats(min_value=0.0, max_value=0.15),
    st.integers(5, 40),
)
@settings(max_examples=25, deadline=None)
def test_tcp_exactly_once_in_order_under_random_loss(seed, loss_prob, n_messages):
    """Reliability invariant: any iid loss pattern on both directions still
    yields exactly-once, in-order message delivery."""
    import numpy as np

    from repro.net import Fabric

    env = Environment()
    fabric = Fabric(env, rate_gbps=10, propagation_us=1.0, queue_packets=512)
    fabric.add_node("c")
    fabric.add_node("s")
    a, b = fabric.connect("c", "s")
    rng = np.random.default_rng(seed)

    def lossy(packet):
        return bool(rng.random() < loss_prob)

    fabric.uplink("c").drop_filter = lossy
    fabric.downlink("s").drop_filter = lossy
    got = []
    b.deliver = got.append
    for i in range(n_messages):
        a.send_message(i, size=2048)
    env.run()
    assert got == list(range(n_messages))
    assert a.bytes_in_flight == 0


@given(st.integers(0, 2**31 - 1), st.integers(2, 30))
@settings(max_examples=20, deadline=None)
def test_rdma_exactly_once_in_order(seed, n_messages):
    """The RDMA binding's delivery invariant on a lossless fabric."""
    import numpy as np

    from repro.net import Fabric

    env = Environment()
    fabric = Fabric(env, rate_gbps=100, queue_packets=8192)
    fabric.add_node("c")
    fabric.add_node("s")
    a, b = fabric.connect_rdma("c", "s")
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 20000, size=n_messages)
    got = []
    b.deliver = got.append
    for i, size in enumerate(sizes):
        a.send_message(i, size=int(size))
    env.run()
    assert got == list(range(n_messages))


# --------------------------------------------------- end-to-end conservation ----
@given(st.integers(1, 2**31 - 1), st.integers(20, 120), st.sampled_from([1, 4, 16]))
@settings(max_examples=10, deadline=None)
def test_scenario_conservation_invariants(seed, total_ops, window):
    """For any seed/op-count/window: every submitted op completes exactly
    once, nothing is lost, and coalesced+individual responses cover all."""
    from repro.cluster import Scenario, ScenarioConfig
    from repro.workloads import tenants_for_ratio

    cfg = ScenarioConfig(
        protocol="nvme-opf", network_gbps=100, total_ops=total_ops,
        window_size=window, warmup_us=0, seed=seed,
    )
    sc = Scenario.two_sided(cfg, tenants_for_ratio("1:1"))
    sc.run()
    for gen in sc.generators:
        assert gen.completed == min(gen.issued, gen.config.total_ops) or gen._stopped
        assert gen.inflight == 0
        assert gen.failed == 0
    target = sc.target_nodes[0].target
    # Every command the target received was eventually completed.
    assert target.stats.requests_completed == target.stats.commands_received
