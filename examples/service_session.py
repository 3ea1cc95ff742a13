#!/usr/bin/env python3
"""Simulation-as-a-service: drive a hosted run over HTTP.

Starts the control plane in-process on an ephemeral port, then acts as a
remote client:

  1. submit the library's QoS-guard scenario program as JSON, without
     starting it,
  2. inject an ``slo_change`` at a future virtual time (tightening ls0's
     ceiling mid-run, exactly like an operator amending a tenant contract),
     then start the run,
  3. long-poll live telemetry while the run progresses — per-tenant
     goodput, streaming p99, and SLO verdicts straight from the QoS plane,
  4. pause the session, serialize a checkpoint, restore it as a *new*
     session, and run both to completion,
  5. verify the two sealed digests are bit-identical — interruption,
     checkpointing, and resumption left no trace on the timeline.

The session starts only after the injection, so however fast the server
runs, the injection time is still in the future and the run is still
going when the pause arrives.

Run:  python examples/service_session.py
"""

from repro.scenarios.actions import SloChange
from repro.scenarios.library import qos_guard_program
from repro.service import ServiceClient, ServiceServer


def main() -> None:
    program = qos_guard_program()

    with ServiceServer(workers=2, slice_events=256) as server:
        client = ServiceClient(server.host, server.port)
        print(f"service up at {server.address}: {client.health()}")

        session_id = client.submit(program, start=False)
        print(f"submitted {program.name!r} as session {session_id}")

        # Tighten ls0's ceiling at a future virtual instant, then start.
        client.inject(
            session_id,
            SloChange(tenant="ls0", p99_ceiling_us=500.0),
            at_us=3_333.3,
        )
        print("injected slo_change(ls0, p99<=500us) at t=+3333.3us")
        client.resume(session_id)

        # Stream a few telemetry snapshots while the run is live.
        cursor, seen = 0, 0
        while seen < 3:
            cursor, snapshots = client.telemetry(session_id, cursor=cursor, wait_ms=2_000)
            for snap in snapshots:
                seen += 1
                qos = snap["qos"] or {}
                verdicts = {t: v["slo_violated"] for t, v in qos.items() if v["slo"]}
                print(
                    f"  t={snap['at_us']:9.1f}us phase={snap['phase']:<8} "
                    f"steps={snap['steps']:<6} slo_verdicts={verdicts}"
                )
                if snap["state"] in ("finished", "failed"):
                    seen = 3
                    break

        # Pause -> checkpoint -> restore as a second session.
        client.pause(session_id)
        checkpoint = client.checkpoint(session_id, label="demo")
        print(
            f"checkpointed at step {checkpoint['steps']} "
            f"(t={checkpoint['virtual_us']:.1f}us)"
        )
        clone_id = client.restore(checkpoint, start=True)
        client.resume(session_id)

        original = client.wait(session_id, timeout_s=120.0)
        clone = client.wait(clone_id, timeout_s=120.0)
        print(f"original session: digest sha256 {original['digest_sha256']}")
        print(f"restored session: digest sha256 {clone['digest_sha256']}")
        assert original["digest"] == clone["digest"], "resume diverged!"
        print("checkpoint/resume proof: sealed digests are bit-identical")


if __name__ == "__main__":
    main()
