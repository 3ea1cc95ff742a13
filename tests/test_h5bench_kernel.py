"""Direct tests of the h5bench kernel (Figure 9's workload engine)."""

import pytest

from repro.cluster.node import InitiatorNode, TargetNode
from repro.hdf5sim import Communicator, H5File, SimRank
from repro.net import Fabric
from repro.simcore import Environment, RandomStreams
from repro.workloads.h5bench import H5BenchConfig, H5BenchKernel, aggregate_bandwidth_mbps


def make_cluster(n_ranks=2, protocol="nvme-opf", config=None):
    env = Environment()
    fabric = Fabric(env, rate_gbps=100)
    tnode = TargetNode(env, "t0", fabric, RandomStreams(19), protocol=protocol)
    inode = InitiatorNode(env, "c0", fabric)
    comm = Communicator(env, n_ranks)
    cfg = config or H5BenchConfig(
        mode="write", particles_per_rank=4096, timesteps=2,
        compute_us=10.0, dataset_load_us=50.0, queue_depth=32,
    )
    kernels = []
    connects = []
    for rank in range(n_ranks):
        initiator = inode.add_initiator(
            f"rank{rank}", tnode, protocol=protocol, queue_depth=cfg.queue_depth,
            window_size=8,
        )
        connects.append(initiator.connect())
        h5file = H5File(f"r{rank}.h5", base_lba=rank * 4096, capacity_blocks=4096)
        kernels.append(
            H5BenchKernel(env, cfg, initiator, h5file, comm, rank=rank,
                          metadata_rank=(rank == 0))
        )
    env.run(until=env.all_of(connects))
    ranks = [SimRank(env, k.rank, comm, k.body) for k in kernels]
    env.run(until=env.all_of([r.done for r in ranks]))
    env.run()
    return env, kernels, tnode


def test_write_kernel_moves_expected_bytes():
    env, kernels, _ = make_cluster()
    for kernel in kernels:
        result = kernel.result
        assert result is not None
        # 4096 particles x 8 B x 2 timesteps.
        assert result.bytes_moved == 4096 * 8 * 2
        assert result.elapsed_us > 0


def test_only_metadata_rank_issues_metadata():
    env, kernels, _ = make_cluster(n_ranks=3)
    assert kernels[0].result.metadata_ops == 2  # one per timestep
    assert kernels[1].result.metadata_ops == 0
    assert kernels[2].result.metadata_ops == 0
    assert kernels[0].vol.metadata_requests == 2


def test_read_kernel_pays_dataset_loading():
    cfg_loaded = H5BenchConfig(
        mode="read", particles_per_rank=4096, timesteps=2,
        compute_us=0.0, dataset_load_us=2_000.0, queue_depth=32,
    )
    cfg_free = H5BenchConfig(
        mode="read", particles_per_rank=4096, timesteps=2,
        compute_us=0.0, dataset_load_us=0.0, queue_depth=32,
    )
    _, loaded, _ = make_cluster(config=cfg_loaded)
    _, free, _ = make_cluster(config=cfg_free)
    slow = max(k.result.elapsed_us for k in loaded)
    fast = max(k.result.elapsed_us for k in free)
    assert slow >= fast + 2 * 2_000.0 * 0.9  # both timesteps paid the load


def test_barriers_synchronize_timesteps():
    env, kernels, _ = make_cluster(n_ranks=2)
    # Both ranks finish the whole job at the same barrier.
    ends = [k.result.elapsed_us for k in kernels]
    assert ends[0] == pytest.approx(ends[1], rel=0.01)


def test_aggregate_bandwidth_from_kernels():
    env, kernels, _ = make_cluster()
    bw = aggregate_bandwidth_mbps([k.result for k in kernels])
    assert bw > 0


def test_kernel_coalesces_on_opf_target():
    env, kernels, tnode = make_cluster()
    assert tnode.target.stats.coalesced_notifications > 0
    # Metadata writes were latency-sensitive bypasses, each answered alone.
    stats = tnode.target.stats
    assert stats.completion_notifications - stats.coalesced_notifications >= 2
