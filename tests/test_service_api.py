"""End-to-end HTTP API test against a live server on an ephemeral port.

The acceptance path from the issue, verbatim: submit a fig7-style program
(with SLOs, so ``slo_change`` is legal) over HTTP, stream at least three
telemetry snapshots mid-run, inject an ``slo_change`` at a future virtual
time, pause + checkpoint + resume, and prove the final sealed digest is
bit-identical to running the same (amended) program directly through the
compiler.  Plus the error-mapping contract: 404 for unknown sessions, 409
for illegal transitions, 400 for malformed payloads, 413 for oversized
bodies.
"""

import http.client
import json
import socket
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from repro.errors import ConfigError, ServiceError
from repro.scenarios import ScenarioProgram, replay
from repro.scenarios.actions import Advance, SloChange
from repro.scenarios.library import fig7_cell_program
from repro.service import ServiceApiError, ServiceClient, ServiceServer
from repro.service.server import MAX_BODY_BYTES

#: Future virtual instant for the injected slo_change.  Deliberately off
#: every 100us controller-tick boundary: the amended-program equivalence is
#: exact as long as the scripted callback shares no timestamp with another
#: event (see repro.service.session — pre-launch injections are exact
#: unconditionally).
INJECT_AT_US = 3_333.3


def slo_program_dict() -> dict:
    data = fig7_cell_program().to_dict()
    data["name"] = "fig7-opf-1to2-slo"
    data["config"]["slos"] = [{"tenant": "ls0", "p99_ceiling_us": 5_000.0}]
    return data


def amended_digest() -> str:
    """The ground truth: the submitted program with the injected action
    appended, replayed directly through the compiler."""
    data = slo_program_dict()
    data["actions"] = list(data["actions"]) + [
        Advance(dt_us=INJECT_AT_US).to_dict(),
        SloChange(tenant="ls0", p99_ceiling_us=900.0).to_dict(),
    ]
    return replay(ScenarioProgram.from_dict(data)).digest()


@pytest.fixture(scope="module")
def server():
    with ServiceServer(host="127.0.0.1", port=0, workers=2, slice_events=256) as srv:
        yield srv


@pytest.fixture()
def client(server):
    return ServiceClient(server.host, server.port)


def test_e2e_submit_stream_inject_checkpoint_resume(client, slice_gate):
    truth = amended_digest()
    session_id = client.submit(slo_program_dict())

    # Stream >= 3 telemetry snapshots while the run is live, letting the
    # workers run one slice at a time until the workload is under way.
    cursor, streamed = 0, []
    while len(streamed) < 3 or streamed[-1]["phase"] != "workload":
        slice_gate.step()
        cursor, snapshots = client.telemetry(session_id, cursor=cursor, wait_ms=5_000)
        streamed.extend(snapshots)
        assert streamed and streamed[-1]["state"] not in ("finished", "failed"), (
            "the run sealed before three mid-run snapshots arrived; "
            "shrink slice_events"
        )
    assert [s["seq"] for s in streamed] == list(range(len(streamed)))
    live = streamed[-1]
    assert set(live["tenants"]) == {"ls0", "tc0", "tc1"}
    assert live["qos"]["ls0"]["slo"]["p99_ceiling_us"] == 5_000.0
    assert client.status(session_id)["state"] == "running"

    # Inject the SLO change at a future virtual instant.
    reply = client.inject(
        session_id, SloChange(tenant="ls0", p99_ceiling_us=900.0), at_us=INJECT_AT_US
    )
    assert reply["injected"]["at_us"] == INJECT_AT_US

    # Pause the running session -> checkpoint -> restore as a clone ->
    # resume both.
    assert client.pause(session_id)["state"] == "paused"
    slice_gate.open()
    checkpoint = client.checkpoint(session_id, label="e2e")
    assert checkpoint["format"] == "nvme-opf/session-checkpoint@1"
    assert checkpoint["injections"], "the injection must ride the checkpoint"
    clone_id = client.restore(json.loads(json.dumps(checkpoint)), start=True)
    assert clone_id != session_id
    assert client.resume(session_id)["state"] in ("running", "draining", "finished")

    original = client.wait(session_id, timeout_s=120.0)
    clone = client.wait(clone_id, timeout_s=120.0)
    assert original["state"] == "finished", original.get("error")
    assert clone["state"] == "finished", clone.get("error")

    # The acceptance bar: both sealed digests are bit-identical to the
    # amended program replayed directly through the compiler.
    assert original["digest"] == truth
    assert clone["digest"] == truth
    assert original["digest_sha256"] == clone["digest_sha256"]


def test_health_and_listing(client):
    health = client.health()
    assert health["ok"] is True
    session_id = client.submit(slo_program_dict(), start=False)
    sessions = {s["id"]: s for s in client.sessions()}
    assert sessions[session_id]["state"] == "created"
    assert client.status(session_id)["program"] == "fig7-opf-1to2-slo"


def test_error_mapping_404_409_400(client):
    with pytest.raises(ServiceApiError) as err:
        client.status("s404")
    assert err.value.status == 404

    session_id = client.submit(slo_program_dict(), start=False)
    with pytest.raises(ServiceApiError) as err:
        client.pause(session_id)  # created, not running
    assert err.value.status == 409
    with pytest.raises(ServiceApiError) as err:
        client.result(session_id)  # not finished
    assert err.value.status == 409

    with pytest.raises(ServiceApiError) as err:
        client.submit({"format": "nvme-opf/scenario-program@1", "name": ""})
    assert err.value.status == 400
    with pytest.raises(ServiceApiError) as err:
        client.restore({"format": "wrong"})
    assert err.value.status == 400
    with pytest.raises(ServiceApiError) as err:
        client.inject(session_id, {"op": "tenant_join", "tenant": "x",
                                   "priority": "latency"}, at_us=1.0)
    assert err.value.status == 400


def test_malformed_program_error_names_the_action(client):
    data = slo_program_dict()
    data["actions"] = list(data["actions"]) + [{"op": "slo_change"}]
    with pytest.raises(ServiceApiError) as err:
        client.submit(data)
    assert err.value.status == 400
    assert "action #3" in err.value.message
    assert "slo_change" in err.value.message


@pytest.mark.parametrize("window", ["abc", 0, True, -5, 2.5, "auto"])
def test_bad_window_size_is_a_400(client, window):
    data = slo_program_dict()
    data["config"]["window_size"] = window
    with pytest.raises(ServiceApiError) as err:
        client.submit(data)
    assert err.value.status == 400
    assert "window_size" in err.value.message


def test_raw_http_unknown_route_and_bad_json(server):
    base = server.address
    request = urllib.request.Request(f"{base}/nope")
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(request, timeout=10)
    assert err.value.code == 404

    request = urllib.request.Request(
        f"{base}/sessions",
        data=b"{not json",
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(request, timeout=10)
    assert err.value.code == 400
    body = json.loads(err.value.read().decode())
    assert "not valid JSON" in body["error"]


# -- query / body / route validation ------------------------------------------
def _post(url, data):
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}, method="POST"
    )
    return urllib.request.urlopen(request, timeout=10)


def test_query_and_body_validation(server, client):
    session_id = client.submit(slo_program_dict(), start=False)
    base = server.address

    for query in ("wait_ms=abc", "cursor=abc"):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(
                f"{base}/sessions/{session_id}/telemetry?{query}", timeout=10
            )
        assert err.value.code == 400

    # POST to a GET-only verb is an unknown route, not a silent success.
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(f"{base}/sessions/{session_id}/telemetry", b"{}")
    assert err.value.code == 404

    # The body must be a JSON *object*.
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(f"{base}/sessions", b"[1, 2]")
    assert err.value.code == 400
    assert "JSON object" in json.loads(err.value.read().decode())["error"]

    # A submission must carry a program or a checkpoint.
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(f"{base}/sessions", b"{}")
    assert err.value.code == 400
    assert "submission needs" in json.loads(err.value.read().decode())["error"]

    # Action injection needs both 'action' and 'at_us'.
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(f"{base}/sessions/{session_id}/actions", b"{}")
    assert err.value.code == 400


def test_garbled_checkpoint_submission_is_a_400(server):
    from repro.service import SimSession

    checkpoint = SimSession(ScenarioProgram.from_dict(slo_program_dict())).make_checkpoint()
    body = json.dumps({"checkpoint": dict(checkpoint, steps="abc")}).encode()
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(f"{server.address}/sessions", body)
    assert err.value.code == 400
    assert "checkpoint 'steps' must be an integer" in json.loads(err.value.read().decode())["error"]


@pytest.mark.parametrize(
    "flags",
    [{"start": "false"}, {"start": 0}, {"check_invariants": "no"}, {"check_invariants": None}],
    ids=["start-str", "start-int", "check_invariants-str", "check_invariants-null"],
)
def test_submission_flags_must_be_json_bools(server, client, flags):
    before = len(client.sessions())
    body = json.dumps({"program": slo_program_dict(), **flags}).encode()
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(f"{server.address}/sessions", body)
    assert err.value.code == 400
    (key,) = flags
    assert f"submission '{key}' must be a bool" in json.loads(err.value.read().decode())["error"]
    assert len(client.sessions()) == before  # nothing was hosted


@pytest.mark.parametrize("op", [[], {}], ids=["list", "object"])
def test_an_action_whose_op_is_not_a_string_is_a_400(client, op):
    data = slo_program_dict()
    data["actions"] = list(data["actions"]) + [{"op": op}]
    with pytest.raises(ServiceApiError) as err:
        client.submit(data)
    assert err.value.status == 400
    assert "action #3" in err.value.message and "'op' must be a string" in err.value.message

    session_id = client.submit(slo_program_dict(), start=False)
    with pytest.raises(ServiceApiError) as err:
        client.inject(session_id, {"op": op}, at_us=1.0)
    assert err.value.status == 400
    assert "action 'op' must be a string" in err.value.message


def test_checkpoint_post_accepts_an_empty_body(server, client):
    # A created session may checkpoint; no body means label "".
    session_id = client.submit(slo_program_dict(), start=False)
    request = urllib.request.Request(
        f"{server.address}/sessions/{session_id}/checkpoint", method="POST"
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        body = json.loads(response.read().decode())
    assert body["checkpoint"]["format"] == "nvme-opf/session-checkpoint@1"
    assert body["checkpoint"]["label"] == ""
    assert body["checkpoint"]["steps"] == 0


def test_bad_content_length_header(server):
    connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        connection.putrequest("POST", "/sessions")
        connection.putheader("Content-Length", "nope")
        connection.endheaders()
        response = connection.getresponse()
        assert response.status == 400
        assert b"Content-Length" in response.read()
    finally:
        connection.close()


def _raw_post_status(server, content_length: str) -> int:
    """POST ``/sessions`` with a raw ``Content-Length`` header and no body;
    the status of the reply, read to EOF (a hang fails on the timeout)."""
    with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
        sock.sendall(
            (
                "POST /sessions HTTP/1.1\r\n"
                f"Host: {server.host}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {content_length}\r\n\r\n"
            ).encode("ascii")
        )
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            reply += chunk
    status_line = reply.split(b"\r\n", 1)[0]
    return int(status_line.split()[1])


def test_negative_content_length_is_refused(server):
    assert _raw_post_status(server, "-1") == 400


def test_oversized_content_length_is_refused(server):
    assert _raw_post_status(server, str(MAX_BODY_BYTES + 1)) == 413
    assert _raw_post_status(server, "100000000000") == 413


# -- server lifecycle ---------------------------------------------------------
def test_server_config_validation_and_double_start(server):
    with pytest.raises(ConfigError, match="key 'port'"):
        ServiceServer(port=70_000)
    with pytest.raises(ConfigError, match="key 'port'"):
        ServiceServer(port=True)
    with pytest.raises(ServiceError, match="already started"):
        server.start()


def test_serve_forever_runs_until_stopped():
    srv = ServiceServer(host="127.0.0.1", port=0, workers=1, slice_events=256)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        assert ServiceClient(srv.host, srv.port).health()["ok"] is True
    finally:
        srv.stop()
        thread.join(timeout=10)
    assert not thread.is_alive()


# -- client edges -------------------------------------------------------------
def test_client_submit_accepts_program_objects(client):
    program = ScenarioProgram.from_dict(slo_program_dict())
    session_id = client.submit(program, start=False)
    assert client.status(session_id)["state"] == "created"


def test_client_wait_times_out_through_409_retries(client):
    session_id = client.submit(slo_program_dict(), start=False)
    with pytest.raises(ServiceApiError) as err:
        client.wait(session_id, timeout_s=0.5)
    assert err.value.status == 408


def test_client_surfaces_unparseable_responses():
    class Rogue(BaseHTTPRequestHandler):
        def do_GET(self):
            body = b"not json"
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, format, *args):
            pass

    rogue = HTTPServer(("127.0.0.1", 0), Rogue)
    thread = threading.Thread(target=rogue.serve_forever, daemon=True)
    thread.start()
    try:
        with pytest.raises(ServiceApiError, match="unparseable"):
            ServiceClient(*rogue.server_address).health()
    finally:
        rogue.shutdown()
        rogue.server_close()
        thread.join(timeout=10)
