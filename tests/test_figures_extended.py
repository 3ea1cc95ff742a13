"""Extended smoke/format tests for the figure harnesses and flush path."""


from repro.cluster.node import InitiatorNode, TargetNode
from repro.net import Fabric
from repro.simcore import Environment, RandomStreams


# ------------------------------------------------------------ fig formats ----
def test_fig6a_includes_spdk_reference_and_all_windows():
    from repro.experiments import run_fig6a

    points = run_fig6a(windows=(1, 8), speeds=(100.0,), total_ops=80)
    protocols = [(p.protocol, p.window) for p in points]
    assert ("spdk", 0) in protocols
    assert ("nvme-opf", 1) in protocols
    assert ("nvme-opf", 8) in protocols
    assert all(p.tc_throughput_mbps > 0 for p in points)
    assert all(p.ls_mean_latency_us > 0 for p in points)


def test_fig7_format_contains_all_cells():
    from repro.experiments import format_fig7, run_fig7

    points = run_fig7(ratios=("1:1",), speeds=(100.0,), mixes=("read", "write"),
                      total_ops=60)
    text = format_fig7(points)
    assert "read" in text and "write" in text
    assert "tput +%" in text and "tail -%" in text
    assert text.count("\n") >= 5


def test_fig8_format_and_gain_helper():
    from repro.experiments import format_fig8, run_fig8

    curves = run_fig8(mixes=("read",), patterns=(2,), pairs_range=[1, 2], total_ops=60)
    text = format_fig8(curves)
    assert "panel" in text and "+%" in text


def test_fig9_format():
    from repro.experiments import format_fig9, run_fig9

    points = run_fig9(modes=("write",), patterns=(2,), n_node_pairs=1,
                      ranks_per_node_max=2, particles_per_rank=4096,
                      timesteps=1, dataset_load_us=0.0)
    text = format_fig9(points)
    assert "ranks" in text and "oPF MB/s" in text


def test_sensitivity_sweeps_return_points():
    from repro.experiments.sensitivity import (
        format_sensitivity,
        sweep_conn_switch_cost,
        sweep_cpu_cost_scale,
    )

    points = sweep_cpu_cost_scale(factors=(1.0,), total_ops=60)
    points += sweep_conn_switch_cost(values=(0.5,), total_ops=60)
    assert len(points) == 2
    assert all(p.spdk_mbps > 0 and p.opf_mbps > 0 for p in points)
    text = format_sensitivity(points)
    assert "cpu_cost_scale" in text and "conn_switch_cost" in text


def test_device_speed_sweep_is_pinned():
    # The sweep builds the Figure 6/7 topology through ScenarioSpec with the
    # drive carried by ScenarioConfig.ssd_profile; these are the MB/s of the
    # hand-built topology it replaced, bit for bit.
    from repro.experiments.sensitivity import sweep_device_speed

    points = sweep_device_speed(factors=(0.5, 2.0), total_ops=200)
    assert [(p.factor, p.spdk_mbps, p.opf_mbps) for p in points] == [
        (0.5, 928.9680560728837, 1965.9341434140017),
        (2.0, 669.9651698437862, 614.9270562180675),
    ]


# -------------------------------------------------------------- flush path ----
def make_rig(protocol):
    env = Environment()
    fabric = Fabric(env, rate_gbps=100)
    tnode = TargetNode(env, "t0", fabric, RandomStreams(41), protocol=protocol)
    inode = InitiatorNode(env, "c0", fabric)
    initiator = inode.add_initiator("app", tnode, protocol=protocol, queue_depth=16,
                                    window_size=4)
    env.run(until=initiator.connect())
    return env, initiator, tnode


def test_baseline_flush_reaches_device():
    env, initiator, tnode = make_rig("spdk")
    req = initiator.submit("flush", priority="latency")
    env.run()
    assert req.done and req.status == 0
    # A real device flush executed (50us service in the profile).
    assert req.latency > tnode.ssds[0].profile.flush_us


def test_opf_ls_flush_reaches_device():
    """A latency-sensitive flush (no drain flag) is a real device flush."""
    env, initiator, tnode = make_rig("nvme-opf")
    req = initiator.submit("flush", priority="latency")
    env.run()
    assert req.done and req.status == 0
    assert req.latency > tnode.ssds[0].profile.flush_us


def test_opf_tc_flush_queues_like_other_tc_requests():
    """A TC flush without the draining flag parks in the tenant queue and
    executes with the window, as a device flush."""
    env, initiator, tnode = make_rig("nvme-opf")
    reqs = [initiator.read(slba=i, priority="throughput") for i in range(2)]
    flush = initiator.submit("flush", priority="throughput")
    fourth = initiator.read(slba=9, priority="throughput")  # window of 4 -> drain
    env.run()
    assert all(r.done for r in reqs + [flush, fourth])
    assert tnode.ssds[0].controller.commands_completed == 4  # flush hit the device
