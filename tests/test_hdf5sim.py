"""Tests for the HDF5 substrate: files, datasets, VOL, MPI ranks."""

import pytest

from repro.errors import ConfigError, Hdf5Error
from repro.hdf5sim import Communicator, Dataset, H5File, METADATA_BLOCKS, SimRank
from repro.simcore import Environment


# ---------------------------------------------------------------- dataset ----
def test_dataset_geometry():
    ds = Dataset("d", n_elements=1000, element_size=8, base_lba=100)
    assert ds.nbytes == 8000
    assert ds.nblocks == 2  # 8000 / 4096 rounded up


def test_element_range_to_extent():
    ds = Dataset("d", n_elements=4096, element_size=8, base_lba=10)
    # Elements 0..511 = bytes 0..4095 = block 0.
    ext = ds.element_range_to_extent(0, 512)
    assert (ext.slba, ext.nlb) == (10, 1)
    # Elements 512..1023 = block 1.
    ext = ds.element_range_to_extent(512, 512)
    assert (ext.slba, ext.nlb) == (11, 1)
    # Straddling a boundary needs both blocks.
    ext = ds.element_range_to_extent(500, 24)
    assert (ext.slba, ext.nlb) == (10, 2)


def test_element_range_validation():
    ds = Dataset("d", n_elements=100, element_size=8, base_lba=0)
    with pytest.raises(Hdf5Error):
        ds.element_range_to_extent(90, 20)
    with pytest.raises(Hdf5Error):
        ds.element_range_to_extent(-1, 5)
    with pytest.raises(Hdf5Error):
        ds.element_range_to_extent(0, 0)


def test_io_plan_splits_into_requests():
    ds = Dataset("d", n_elements=4096 * 4, element_size=8, base_lba=0)
    plan = ds.io_plan(0, 4096 * 4, io_blocks=1)  # 32 blocks of data
    assert len(plan) == 32
    assert all(e.nlb == 1 for e in plan)
    assert [e.slba for e in plan] == list(range(32))
    plan8 = ds.io_plan(0, 4096 * 4, io_blocks=8)
    assert len(plan8) == 4
    assert plan8[0].nbytes == 8 * 4096


def test_dataset_validation():
    with pytest.raises(Hdf5Error):
        Dataset("", 10, 8, 0)
    with pytest.raises(Hdf5Error):
        Dataset("d", 0, 8, 0)
    with pytest.raises(Hdf5Error):
        Dataset("d", 10, 8, -1)


# ------------------------------------------------------------------- file ----
def test_file_allocates_contiguous_datasets():
    f = H5File("test.h5", base_lba=0, capacity_blocks=100)
    d1 = f.create_dataset("a", n_elements=512, element_size=8)  # 1 block
    d2 = f.create_dataset("b", n_elements=512, element_size=8)
    assert d1.base_lba == METADATA_BLOCKS
    assert d2.base_lba == METADATA_BLOCKS + 1
    assert f.dataset("a") is d1


def test_file_space_exhaustion():
    f = H5File("t.h5", base_lba=0, capacity_blocks=METADATA_BLOCKS + 2)
    f.create_dataset("a", n_elements=1024, element_size=8)  # 2 blocks
    with pytest.raises(Hdf5Error):
        f.create_dataset("b", n_elements=1, element_size=8)


def test_file_duplicate_dataset_rejected():
    f = H5File("t.h5", base_lba=0, capacity_blocks=100)
    f.create_dataset("a", 10, 8)
    with pytest.raises(Hdf5Error):
        f.create_dataset("a", 10, 8)
    with pytest.raises(Hdf5Error):
        f.dataset("ghost")


def test_file_too_small():
    with pytest.raises(Hdf5Error):
        H5File("t.h5", base_lba=0, capacity_blocks=METADATA_BLOCKS)


def test_metadata_region():
    f = H5File("t.h5", base_lba=50, capacity_blocks=100)
    assert f.superblock_lba == 50
    assert len(f.metadata_lbas) == METADATA_BLOCKS


# -------------------------------------------------------------------- MPI ----
def test_barrier_releases_all_ranks_together():
    env = Environment()
    comm = Communicator(env, 3)
    times = []

    def body(rank_obj):
        yield rank_obj.env.timeout(rank_obj.rank * 10.0)  # stagger arrivals
        yield rank_obj.comm.barrier()
        times.append((rank_obj.rank, rank_obj.env.now))

    _ranks = [SimRank(env, i, comm, body) for i in range(3)]
    env.run()
    assert all(t == 20.0 for _, t in times)  # all released at the last arrival


def test_barrier_reusable_across_timesteps():
    env = Environment()
    comm = Communicator(env, 2)
    log = []

    def body(rank_obj):
        for ts in range(3):
            yield rank_obj.env.timeout(1.0 + rank_obj.rank)
            yield rank_obj.comm.barrier()
            log.append((ts, rank_obj.rank))

    for i in range(2):
        SimRank(env, i, comm, body)
    env.run()
    assert comm.barriers_completed == 3
    # Within each timestep both ranks are released before the next begins.
    assert log == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]


def test_spawn_ranks():
    env = Environment()

    def body(rank_obj):
        yield rank_obj.comm.barrier()
        return rank_obj.rank

    comm = Communicator(env, 4)
    ranks = [SimRank(env, rank, comm, body) for rank in range(4)]
    env.run()
    assert [r.done.value for r in ranks] == [0, 1, 2, 3]


def test_communicator_validation():
    env = Environment()
    with pytest.raises(ConfigError):
        Communicator(env, 0)


# -------------------------------------------------------------------- VOL ----
def make_rig(protocol="nvme-opf"):
    """Minimal single-node rig for VOL tests."""
    from repro.cluster.node import InitiatorNode, TargetNode
    from repro.metrics import Collector
    from repro.net import Fabric
    from repro.simcore import RandomStreams

    env = Environment()
    streams = RandomStreams(3)
    fabric = Fabric(env, rate_gbps=100)
    tnode = TargetNode(env, "t0", fabric, streams, protocol=protocol)
    inode = InitiatorNode(env, "c0", fabric)
    collector = Collector(env)
    initiator = inode.add_initiator(
        "app", tnode, protocol=protocol, queue_depth=64, collector=collector, window_size=8
    )
    ev = initiator.connect()
    env.run(until=ev)
    return env, initiator, tnode, collector


def test_vol_write_and_read_elements():
    from repro.hdf5sim import VolConnector

    env, initiator, tnode, _ = make_rig()
    f = H5File("t.h5", base_lba=0, capacity_blocks=1000)
    ds = f.create_dataset("particles", n_elements=16 * 1024, element_size=8)  # 32 blocks
    vol = VolConnector(env, initiator, f)

    def app(env):
        yield from vol.write_elements(ds, 0, 16 * 1024, queue_depth=16)
        yield from vol.read_elements(ds, 0, 16 * 1024, queue_depth=16)
        return env.now

    p = env.process(app(env))
    env.run()
    assert p.ok
    assert vol.data_requests == 64  # 32 writes + 32 reads
    assert vol.bytes_written == 32 * 4096
    assert vol.bytes_read == 32 * 4096


def test_vol_metadata_is_latency_sensitive():
    from repro.core import Priority
    from repro.hdf5sim import VolConnector

    env, initiator, tnode, _ = make_rig()
    f = H5File("t.h5", base_lba=0, capacity_blocks=1000)
    vol = VolConnector(env, initiator, f)

    req = vol.update_metadata()
    assert req.priority is Priority.LATENCY
    env.run()
    assert req.done
    assert vol.metadata_requests == 1


def test_vol_works_on_baseline_runtime_too():
    from repro.hdf5sim import VolConnector

    env, initiator, tnode, _ = make_rig(protocol="spdk")
    f = H5File("t.h5", base_lba=0, capacity_blocks=1000)
    ds = f.create_dataset("d", n_elements=4096, element_size=8)  # 8 blocks
    vol = VolConnector(env, initiator, f)

    def app(env):
        yield from vol.write_elements(ds, 0, 4096, queue_depth=4)

    p = env.process(app(env))
    env.run()
    assert p.ok
    assert vol.data_requests == 8
