"""Tests for the NVMe SSD substrate: rings, controller, device, FTL."""

import pytest

from repro.errors import (
    ConfigError,
    DeviceError,
    QueueEmptyError,
    QueueFullError,
    SimulationError,
)
from repro.simcore import Environment, RandomStreams
from repro.ssd import (
    CompletionQueue,
    DeviceErrorInjector,
    FtlConfig,
    NvmeCommand,
    NvmeSsd,
    OP_READ,
    OP_WRITE,
    STATUS_LBA_OUT_OF_RANGE,
    SsdProfile,
    SubmissionQueue,
)
from repro.ssd.ftl import Ftl


def make_ssd(env, **profile_kwargs):
    defaults = dict(name="test-ssd", channels=4, read_mean_us=10.0, write_mean_us=15.0)
    defaults.update(profile_kwargs)
    return NvmeSsd(env, profile=SsdProfile(**defaults), streams=RandomStreams(7))


# ---------------------------------------------------------------- rings ----
def test_sq_fifo_and_capacity():
    env = Environment()
    sq = SubmissionQueue(env, depth=4)
    for i in range(3):  # depth 4 ring holds 3 entries
        sq.submit(NvmeCommand(cid=i, opcode=OP_READ))
    assert sq.is_full
    with pytest.raises(QueueFullError):
        sq.submit(NvmeCommand(cid=9, opcode=OP_READ))
    assert [sq.pop().cid for _ in range(3)] == [0, 1, 2]
    assert sq.is_empty
    with pytest.raises(QueueEmptyError):
        sq.pop()


def test_sq_wraps_around():
    env = Environment()
    sq = SubmissionQueue(env, depth=4)
    for round_ in range(5):
        for i in range(3):
            sq.submit(NvmeCommand(cid=round_ * 3 + i, opcode=OP_READ))
        got = [sq.pop().cid for _ in range(3)]
        assert got == [round_ * 3, round_ * 3 + 1, round_ * 3 + 2]


def test_cq_post_and_reap():
    env = Environment()
    from repro.ssd.queues import NvmeCompletion

    cq = CompletionQueue(env, depth=4)
    cmd = NvmeCommand(cid=5, opcode=OP_READ)
    cq.post(NvmeCompletion(5, 0, 1.0, cmd))
    got = cq.reap()
    assert got.cid == 5 and got.ok


def test_queue_depth_validation():
    env = Environment()
    with pytest.raises(ConfigError):
        SubmissionQueue(env, depth=1)
    with pytest.raises(ConfigError):
        CompletionQueue(env, depth=0)


def test_command_validation():
    with pytest.raises(ConfigError):
        NvmeCommand(cid=1, opcode="trim")
    with pytest.raises(ConfigError):
        NvmeCommand(cid=70000, opcode=OP_READ)
    with pytest.raises(ConfigError):
        NvmeCommand(cid=1, opcode=OP_READ, nlb=0)


# ----------------------------------------------------------- controller ----
def test_commands_complete_with_callbacks():
    env = Environment()
    ssd = make_ssd(env)
    qp = ssd.create_qpair(depth=64)
    done = []
    qp.on_completion = lambda c: done.append((c.cid, env.now))
    qp.read(1, slba=0, nlb=1)
    qp.read(1, slba=8, nlb=1)
    env.run()
    assert len(done) == 2
    assert all(t > 0 for _, t in done)
    assert qp.outstanding == 0


def test_channel_parallelism_bounds_concurrency():
    env = Environment()
    # Deterministic service (cv=0): 4 channels, 8 reads of 10us each
    # -> makespan 20us, not 80us.
    ssd = make_ssd(env, read_cv=0.0)
    qp = ssd.create_qpair()
    done = []
    qp.on_completion = lambda c: done.append(env.now)
    for i in range(8):
        qp.read(1, slba=i, nlb=1)
    env.run()
    assert len(done) == 8
    assert max(done) == pytest.approx(20.0)


def test_completions_can_arrive_out_of_order():
    env = Environment()
    ssd = make_ssd(env, read_cv=0.8)  # high variance to force reordering
    qp = ssd.create_qpair()
    order = []
    qp.on_completion = lambda c: order.append(c.cid)
    for i in range(64):
        qp.read(1, slba=i, nlb=1)
    env.run()
    assert sorted(order) == list(range(64))
    assert order != list(range(64))  # genuinely out of order


def test_writes_slower_than_reads_on_average():
    env = Environment()
    ssd = make_ssd(env, read_cv=0.0, write_cv=0.0)
    qp = ssd.create_qpair()
    times = {}
    qp.on_completion = lambda c: times.setdefault(c.command.opcode, env.now)
    qp.read(1, slba=0, nlb=1)
    env.run()
    read_time = times[OP_READ]
    env2 = Environment()
    ssd2 = make_ssd(env2, read_cv=0.0, write_cv=0.0)
    qp2 = ssd2.create_qpair()
    times2 = {}
    qp2.on_completion = lambda c: times2.setdefault(c.command.opcode, env2.now)
    qp2.write(1, slba=0, nlb=1)
    env2.run()
    assert times2[OP_WRITE] > read_time


def test_large_commands_take_longer():
    env = Environment()
    ssd = make_ssd(env, read_cv=0.0, extra_block_us=5.0)
    qp = ssd.create_qpair()
    done = {}
    qp.on_completion = lambda c: done.setdefault(c.cid, env.now)
    small = qp.read(1, slba=0, nlb=1)
    env.run()
    t_small = done[small.cid]
    env2 = Environment()
    ssd2 = make_ssd(env2, read_cv=0.0, extra_block_us=5.0)
    qp2 = ssd2.create_qpair()
    done2 = {}
    qp2.on_completion = lambda c: done2.setdefault(c.cid, env2.now)
    big = qp2.read(1, slba=0, nlb=8)
    env2.run()
    assert done2[big.cid] == pytest.approx(t_small + 7 * 5.0)


def test_round_robin_across_qpairs():
    env = Environment()
    ssd = make_ssd(env, channels=1, read_cv=0.0)
    qp1 = ssd.create_qpair()
    qp2 = ssd.create_qpair()
    order = []
    qp1.on_completion = lambda c: order.append(("q1", c.cid))
    qp2.on_completion = lambda c: order.append(("q2", c.cid))

    def submit_all(env):
        # Submit while channel 0 is busy so arbitration sees both SQs loaded.
        qp1.read(1, slba=0, nlb=1)
        qp1.read(1, slba=1, nlb=1)
        qp2.read(1, slba=2, nlb=1)
        qp2.read(1, slba=3, nlb=1)
        yield env.timeout(0.0)

    env.process(submit_all(env))
    env.run()
    # With single-channel serialization the controller should interleave.
    assert order[0][0] != order[1][0] or order[1][0] != order[2][0]
    assert len(order) == 4


def test_cqe_waits_in_ring_without_a_polled_host():
    env = Environment()
    ssd = make_ssd(env, read_cv=0.0)
    sq, cq = SubmissionQueue(env, depth=4), CompletionQueue(env, depth=4)
    ssd.controller.register_qpair(sq, cq)
    sq.submit(NvmeCommand(cid=3, opcode=OP_READ, slba=0, nlb=1))
    env.run()
    assert len(cq) == 1
    got = cq.reap()
    assert (got.cid, got.ok, got.completed_at) == (3, True, 10.0)


def test_non_finite_service_time_is_refused():
    env = Environment()
    ssd = make_ssd(env)
    ssd.controller.service_scale = float("inf")
    qp = ssd.create_qpair()
    with pytest.raises(SimulationError):
        qp.read(1, slba=0, nlb=1)


def test_out_of_range_lba_rejected_at_submit():
    env = Environment()
    ssd = make_ssd(env, capacity_bytes=4096 * 100)
    qp = ssd.create_qpair()
    with pytest.raises(DeviceError):
        qp.read(1, slba=99, nlb=2)
    with pytest.raises(DeviceError):
        qp.read(1, slba=-1, nlb=1)


def test_unknown_namespace_rejected():
    env = Environment()
    ssd = make_ssd(env)
    qp = ssd.create_qpair()
    with pytest.raises(DeviceError):
        qp.read(7, slba=0, nlb=1)


def test_add_namespace():
    env = Environment()
    ssd = make_ssd(env)
    ssd.add_namespace(2, blocks=1000)
    qp = ssd.create_qpair()
    done = []
    qp.on_completion = lambda c: done.append(c)
    qp.read(2, slba=999, nlb=1)
    env.run()
    assert done[0].ok
    with pytest.raises(DeviceError):
        ssd.add_namespace(2, blocks=10)


def test_error_injection_reports_failed_status():
    env = Environment()
    ssd = make_ssd(env)
    qp = ssd.create_qpair()
    DeviceErrorInjector(ssd.controller, fail_every=2)
    statuses = []
    qp.on_completion = lambda c: statuses.append(c.status)
    for i in range(4):
        qp.read(1, slba=i, nlb=1)
    env.run()
    assert statuses.count(STATUS_LBA_OUT_OF_RANGE) == 2
    assert ssd.controller.commands_failed == 2


def test_iops_ceiling_matches_profile():
    profile = SsdProfile(channels=8, read_mean_us=20.0, write_mean_us=25.0)
    assert profile.read_iops_ceiling() == pytest.approx(400_000)
    assert profile.write_iops_ceiling() == pytest.approx(320_000)


def test_profile_refuses_bad_service_parameters():
    for bad in ({"read_mean_us": -1.0}, {"write_mean_us": 0.0}, {"read_cv": -0.5},
                {"write_cv": -0.1}):
        with pytest.raises(ConfigError):
            SsdProfile(**bad)


def test_device_sustains_near_ceiling_throughput():
    env = Environment()
    ssd = make_ssd(env, channels=4, read_mean_us=10.0, read_cv=0.2)
    qp = ssd.create_qpair()
    n_total = 2000
    state = {"submitted": 0, "done": 0}

    def refill(c):
        state["done"] += 1
        if state["submitted"] < n_total:
            qp.read(1, slba=state["submitted"] % 100, nlb=1)
            state["submitted"] += 1

    qp.on_completion = refill
    for _ in range(32):
        qp.read(1, slba=0, nlb=1)
        state["submitted"] += 1
    env.run()
    measured_iops = state["done"] / env.now * 1e6
    ceiling = ssd.profile.read_iops_ceiling()
    assert measured_iops > 0.9 * ceiling


# ------------------------------------------------------------------- FTL ----
def test_ftl_no_penalty_under_buffer():
    env = Environment()
    ftl = Ftl(env, FtlConfig(buffer_bytes=1024 * 1024, drain_bytes_per_us=100.0))
    assert ftl.write_penalty(4096, service_us=10.0) == 0.0


def test_ftl_penalty_on_overflow():
    env = Environment()
    ftl = Ftl(env, FtlConfig(buffer_bytes=8192, drain_bytes_per_us=1.0))
    assert ftl.write_penalty(8192, 1.0) == 0.0  # fills buffer exactly
    penalty = ftl.write_penalty(4096, 1.0)  # 4096 bytes over -> stall
    assert penalty == pytest.approx(4096.0)


def test_ftl_drains_over_time():
    env = Environment()
    ftl = Ftl(env, FtlConfig(buffer_bytes=8192, drain_bytes_per_us=10.0))
    ftl.write_penalty(8192, 1.0)

    def later(env):
        yield env.timeout(500.0)  # 5000 bytes drained
        assert ftl.buffer_level == pytest.approx(8192 - 5000)
        # 3192 + 4096 = 7288 fits under the 8192 cap: no stall.
        assert ftl.write_penalty(4096, 1.0) == 0.0
        # A further 4096 overflows by 7288 + 4096 - 8192 = 3192 bytes.
        assert ftl.write_penalty(4096, 1.0) == pytest.approx(3192 / 10.0)

    env.process(later(env))
    env.run()


def test_ftl_gc_pauses_fire():
    env = Environment()
    cfg = FtlConfig(gc_enabled=True, gc_interval_us=100.0, gc_pause_us=50.0)
    ftl = Ftl(env, cfg)  # no rng -> deterministic interval
    total = 0.0
    for _ in range(10):
        total += ftl.write_penalty(4096, service_us=50.0)
    assert ftl.gc_pauses == 5
    assert total == pytest.approx(5 * 50.0)


def test_ftl_config_validation():
    with pytest.raises(ConfigError):
        FtlConfig(buffer_bytes=0)
    with pytest.raises(ConfigError):
        FtlConfig(drain_bytes_per_us=0)
    with pytest.raises(ConfigError):
        FtlConfig(gc_interval_us=-1)
