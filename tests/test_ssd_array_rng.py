"""Pinned stream-equivalence for the array-RNG service-time path.

The SSD controller draws service times through
:class:`repro.simcore.rng.NormalBuffer`, which prefetches arrays of standard
normals and exponentiates per draw.  These tests pin the contract the golden
digests depend on: the buffered draw sequence is **bit-identical** to the
scalar ``Generator.lognormal`` sequence from the same seed — across refill
boundaries, interleaved read/write means, cv=0 no-draw branches, and the
device-level wiring.
"""

import numpy as np
import pytest

from repro.simcore import Environment
from repro.simcore.rng import NormalBuffer, RandomStreams
from repro.ssd.device import NvmeSsd
from repro.ssd.latency import (
    CLOUDLAB_SSD,
    OP_FLUSH,
    OP_READ,
    OP_WRITE,
    SsdProfile,
)


# ---------------------------------------------------------------------------
# NormalBuffer vs scalar generator: bit-identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 7, 12345])
@pytest.mark.parametrize("batch", [1, 2, 5, 64])
def test_buffered_lognormal_bit_identical_to_scalar(seed, batch):
    """Small batches force many refills — the equivalence must hold across
    every refill boundary, not just inside one prefetched array."""
    scalar = np.random.default_rng(seed)
    buffered = NormalBuffer(np.random.default_rng(seed), batch=batch)
    for i in range(257):
        mu, sigma = (3.2, 0.25) if i % 2 else (1.1, 0.5)
        assert float(scalar.lognormal(mu, sigma)) == float(buffered.lognormal(mu, sigma))


def test_buffered_standard_normal_bit_identical_to_scalar():
    scalar = np.random.default_rng(42)
    buffered = NormalBuffer(np.random.default_rng(42), batch=3)
    for _ in range(20):
        assert float(scalar.standard_normal()) == float(buffered.standard_normal())


def test_buffer_rejects_nonpositive_batch():
    with pytest.raises(ValueError):
        NormalBuffer(np.random.default_rng(0), batch=0)


# ---------------------------------------------------------------------------
# Profile-level equivalence: service_time through buffer == through scalar
# ---------------------------------------------------------------------------


def test_service_time_sequence_identical_through_buffer():
    """Interleaved read/write/flush draws on one stream — the exact shape of
    the controller's per-command sampling."""
    profile = CLOUDLAB_SSD
    scalar = np.random.default_rng(11)
    buffered = NormalBuffer(np.random.default_rng(11), batch=7)
    ops = [OP_READ, OP_WRITE, OP_READ, OP_FLUSH, OP_WRITE, OP_READ, OP_FLUSH]
    for i in range(120):
        op = ops[i % len(ops)]
        nbytes = 4096 * (1 + i % 4)
        assert profile.service_time(scalar, op, nbytes) == profile.service_time(
            buffered, op, nbytes
        )


def test_flush_consumes_no_draws_through_buffer():
    profile = SsdProfile()
    buffered = NormalBuffer(np.random.default_rng(5), batch=8)
    before = (buffered._pos, buffered._n)
    assert profile.service_time(buffered, OP_FLUSH, 0) == profile.flush_us
    assert (buffered._pos, buffered._n) == before


def test_zero_cv_read_is_the_mean_and_consumes_no_draws():
    profile = SsdProfile(read_mean_us=10.0, read_cv=0.0)
    scalar = np.random.default_rng(5)
    buffered = NormalBuffer(np.random.default_rng(5), batch=8)
    for rng in (scalar, buffered):
        assert [profile.service_time(rng, OP_READ, 4096) for _ in range(3)] == [10.0] * 3
    assert (buffered._pos, buffered._n) == (0, 0)
    assert scalar.random() == np.random.default_rng(5).random()


# ---------------------------------------------------------------------------
# Device-level equivalence: a controller run draws the same sequence
# ---------------------------------------------------------------------------


def _run_device(seed, n_cmds):
    env = Environment()
    ssd = NvmeSsd(env, streams=RandomStreams(seed), name="nvme0")
    qp = ssd.create_qpair(depth=256)
    completions = []
    qp.on_completion = lambda c: completions.append(
        (c.cid, c.status, c.completed_at)
    )
    for i in range(n_cmds):
        op = OP_WRITE if i % 3 == 0 else OP_READ
        qp.submit(op, nsid=1, slba=i * 8, nlb=1 + i % 4)
    env.run()
    return completions


def test_device_run_with_buffer_matches_manual_scalar_sequence():
    """Completion times of a controller run must equal the per-command
    scalar draw sequence replayed by hand from the same named stream."""
    profile = NvmeSsd(Environment(), streams=RandomStreams(0)).profile
    n = profile.channels  # all start at t=0, one per channel
    completions = _run_device(21, n)
    assert len(completions) == n

    # Replay the draws with a scalar generator: commands execute in
    # submission order (single qpair, synchronous doorbell), so draw i
    # belongs to cid i, and with a free channel each command completes at
    # exactly its drawn service time.
    rng = RandomStreams(21).stream("ssd/nvme0")
    draws = []
    for i in range(n):
        op = OP_WRITE if i % 3 == 0 else OP_READ
        nbytes = (1 + i % 4) * profile.block_size
        draws.append(profile.service_time(rng, op, nbytes))
    by_cid = {cid: completed_at for cid, _status, completed_at in completions}
    assert by_cid == {i: draws[i] for i in range(n)}


def test_device_digest_stable_across_runs():
    assert _run_device(21, 40) == _run_device(21, 40)
