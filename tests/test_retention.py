"""What a run keeps alive per completed command: no Python object.

A run's memory should be bounded by its live state (the commands in
flight), not by its history.  These tests pin that for the places that
used to keep something per completed command: a TCP sender's framing
arrays, the command PDUs those arrays held, the metrics collector's
records, and a CID queue's memory of retired CIDs.  The scale-out runs
also check their digests, so the release changes nothing simulated.  The
last tests pin what merely running sessions imports: not the HTTP stack.
"""

import gc
import hashlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro import ScenarioConfig
from repro.cluster.scaling import build_scaleout
from repro.core.cid_queue import RETIRED_MEMORY, CidQueue
from repro.metrics import Collector
from repro.simcore import Environment
from tests.test_batched_paths import _ack, _make_socket
from tests.test_cluster_tools import SCALEOUT_DIGEST_SHA256
from tests.test_metrics import make_request

MESSAGES = 3000


def test_tcp_sender_holds_no_payload_after_a_full_ack():
    _env, _nic, sock = _make_socket()
    for i in range(MESSAGES):
        sock.send_message(f"m{i}", 100)
        _ack(sock, sock._snd_nxt)
        assert sock._msg_payloads == [] and sock._msg_ends == []
    assert sock.stats.messages_sent == MESSAGES


def test_tcp_sender_holds_a_bounded_acked_prefix_under_partial_acks():
    # Every ACK leaves the newest message unacked, so the arrays are never
    # emptied whole; the acked prefix is deleted once it holds 64 messages.
    _env, _nic, sock = _make_socket()
    held = []
    for i in range(MESSAGES):
        sock.send_message(f"m{i}", 100)
        held.append(len(sock._msg_payloads))
        _ack(sock, sock._snd_nxt - 100)
    assert max(held) <= 63 + 2  # acked ones, then the unacked and the new one
    assert sock._msg_payloads[sock._msg_head:] == [f"m{MESSAGES - 1}"]
    assert sock._segment_messages(sock._snd_una, 100) == [(MESSAGES * 100, f"m{MESSAGES - 1}")]


#: sha256 of ``metrics_digest()`` for the scale-out of
#: ``test_build_scaleout_digest_is_pinned`` (spdk) at each op count.
SCALEOUT_SPDK_DIGESTS = {
    60: SCALEOUT_DIGEST_SHA256["spdk"],
    600: "311616c4c56821ad8e9d75c8826623c91d343bf3c8067834ea21c6303d7a8a2b",
}


def _live_command_pdus_after_run(total_ops):
    cfg = ScenarioConfig(protocol="spdk", network_gbps=100.0, op_mix="rw50",
                         total_ops=total_ops, window_size=32, seed=1)
    scenario = build_scaleout(cfg, 2, 3, include_ls=True)
    result = scenario.run()
    digest = hashlib.sha256(result.metrics_digest().encode()).hexdigest()
    assert digest == SCALEOUT_SPDK_DIGESTS[total_ops]
    # ``scenario`` is still referenced: count what it keeps reachable, after
    # collecting what is already garbage.
    gc.collect()
    gc.disable()
    try:
        return Counter(type(obj).__name__ for obj in gc.get_objects())["CapsuleCmdPdu"]
    finally:
        gc.enable()


def test_scaleout_keeps_no_command_pdu_per_completed_command():
    small, large = (_live_command_pdus_after_run(n) for n in sorted(SCALEOUT_SPDK_DIGESTS))
    assert large <= small


def test_collector_tracks_no_object_per_record():
    collector = Collector(Environment())
    requests = [make_request(cid=i % 128, completed=float(i)) for i in range(MESSAGES)]
    collector.record("a", requests[0])  # registers the initiator's columns
    gc.disable()
    try:
        before = len(gc.get_objects())
        for request in requests[1:]:
            collector.record("a", request)
        grown = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert grown == 0
    summary = collector.summary("a")
    assert (summary.requests, summary.reads, summary.bytes_moved) == (
        MESSAGES, MESSAGES, MESSAGES * 4096)
    assert summary.latency.samples == [float(i) for i in range(MESSAGES)]


#: What a queue's retired-CID memory may hold at the default memory: the
#: 8 KiB bitmap and the 4,096-entry u16 ring, each with its object header.
RETIRED_BYTES_BOUND = int(16.5 * 1024)


def test_cid_queue_retired_memory_is_bounded_across_the_cid_wrap():
    # An initiator's pattern: CIDs from a wrapping counter, retired a
    # window of 32 at a time by a drain walk.
    q = CidQueue()
    cid = retirements = 0
    held = set()
    while retirements < 200_000:
        for _ in range(32):
            q.push(cid)
            cid = (cid + 1) & 0xFFFF
        retirements += len(q.drain_through((cid - 1) & 0xFFFF))
        held.add(sys.getsizeof(q._retired_bits) + sys.getsizeof(q._retired_ring))
    assert retirements // 0x10000 >= 3  # three laps of the CID space
    assert len(q._retired_ring) == RETIRED_MEMORY
    assert max(held) <= RETIRED_BYTES_BOUND
    assert q.retired_bytes == max(held)


HTTP_STACK = ("http.server", "http.client", "ssl", "email")


def _in_a_fresh_interpreter(code):
    """Run ``code`` in a new interpreter on this tree; returns its stdout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return out.stdout.strip()


def test_running_sessions_does_not_import_the_http_stack():
    loaded = _in_a_fresh_interpreter(
        "import sys, repro.service.session; "
        f"print([m for m in {HTTP_STACK!r} if m in sys.modules])"
    )
    assert loaded == "[]"


def test_service_names_still_import_from_the_package():
    defined_in = _in_a_fresh_interpreter(
        "from repro.service import ServiceServer, ServiceClient, SessionManager, SimSession; "
        "print([c.__module__ for c in (ServiceServer, ServiceClient, SessionManager, SimSession)])"
    )
    assert defined_in == str([f"repro.service.{m}" for m in ("server", "client", "manager", "session")])
    import repro.service as service

    for name in service.__all__:
        value = getattr(service, name)
        assert value is getattr(sys.modules[f"repro.service.{service._LAZY_EXPORTS[name]}"], name)
    with pytest.raises(AttributeError, match="NoSuchName"):
        service.NoSuchName
