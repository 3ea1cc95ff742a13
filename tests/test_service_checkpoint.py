"""Checkpoint/resume determinism over the generated program corpus.

The strongest claim the service makes: interrupting a session at ANY
checkpoint action, serializing it through JSON, and resuming in a fresh
process-worth of state produces the bit-identical sealed digest of an
uninterrupted run.  This suite proves it across five seed-generated corpus
programs (every generated program ends with a ``checkpoint`` action and
most carry mid-run ones), snapshotting at *every* checkpoint the program
fires — not just a convenient one — and replaying each snapshot to the end.

The codec is fuzzed too: a program, a checkpoint or an injection record
with one top-level field replaced by a value of another JSON type, or a
program with one key of one action replaced (its ``op`` included), must
decode or be refused with one of the errors the server answers with 400.
"""

import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, ScenarioProgramError, ServiceError
from repro.scenarios import ScenarioProgram, generate_program, replay
from repro.scenarios.actions import Advance, Checkpoint, SetWindow, TenantJoin
from repro.service import SimSession
from repro.service.session import InjectionRecord

#: Five corpus seeds: same generator the fuzz harness replays, so every
#: program here is known-valid and terminates quickly.
CORPUS_SEEDS = (1, 2, 3, 4, 5)


def drive_collecting_checkpoints(session: SimSession):
    """Run to completion, serializing the session at every checkpoint
    action its program fires; returns the JSON-round-tripped snapshots."""
    snapshots = []
    while not session.finished:
        before = len(session.compiled.checkpoints)
        session.advance(stop_on_checkpoint=True)
        if session.finished:
            break
        if len(session.compiled.checkpoints) > before:
            session.pause()
            checkpoint = session.make_checkpoint(
                label=session.compiled.checkpoints[-1].label
            )
            snapshots.append(json.loads(json.dumps(checkpoint)))
            session.resume()
    return snapshots


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_resume_from_every_checkpoint_matches_uninterrupted_run(seed):
    program = generate_program(seed)
    direct = replay(program).digest()

    session = SimSession(program, session_id=f"seed{seed}")
    snapshots = drive_collecting_checkpoints(session)
    assert session.state == "finished", session.error
    assert session.digest == direct  # single-stepping changed nothing

    # Generated programs always end with checkpoint("final"), so the suite
    # never silently degenerates to zero snapshots.
    assert snapshots, f"seed {seed} produced no checkpoints"
    labels = [snap["label"] for snap in snapshots]
    assert labels[-1] == "final"

    for snapshot in snapshots:
        restored = SimSession.from_checkpoint(
            snapshot, session_id=f"seed{seed}-{snapshot['label']}"
        )
        assert restored.state == "paused"
        restored.resume()
        restored.run_to_completion()
        assert restored.state == "finished", restored.error
        assert restored.digest == direct, (
            f"seed {seed}: resume from checkpoint {snapshot['label']!r} "
            f"(step {snapshot['steps']}) diverged from the uninterrupted run"
        )


def test_checkpoint_cursors_strictly_increase():
    program = generate_program(CORPUS_SEEDS[0])
    session = SimSession(program)
    snapshots = drive_collecting_checkpoints(session)
    steps = [snap["steps"] for snap in snapshots]
    assert steps == sorted(steps)
    assert all(b > a for a, b in zip(steps, steps[1:]))


# -- codec fuzz ---------------------------------------------------------------
#: The refusals the server answers with HTTP 400.
TYPED_REFUSALS = (ServiceError, ScenarioProgramError, ConfigError)

#: A value of some JSON type: a string, null, a list, an object, a bool, a
#: negative number, a float, or an integer past the largest float.
JSON_VALUES = st.one_of(
    st.text(max_size=4),
    st.none(),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
    st.booleans(),
    st.integers(max_value=-1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.just(10**400),
)


def _small_program() -> ScenarioProgram:
    return ScenarioProgram(
        name="codec-fuzz",
        config={"protocol": "nvme-opf", "total_ops": 60, "window_size": 8, "seed": 11},
        actions=(
            TenantJoin(tenant="ls", priority="latency", total_ops=20),
            TenantJoin(tenant="tc"),
            Advance(dt_us=200.0),
            Checkpoint(label="mid"),
        ),
    )


@functools.lru_cache(maxsize=None)
def _checkpoint_json() -> str:
    """A paused session of the small program, 300 steps in, with one
    pre-launch injection."""
    session = SimSession(_small_program())
    session.inject(SetWindow(tenant="tc", window=4), at_us=50.0)
    session.advance(max_events=300)
    session.pause()
    return json.dumps(session.make_checkpoint(label="fuzz"))


def _decodes_or_is_refused(decode, data):
    try:
        decode(data)
    except TYPED_REFUSALS:
        pass


@settings(max_examples=200, deadline=None)
@given(key=st.sampled_from(sorted(_small_program().to_dict())), value=JSON_VALUES)
def test_garbled_program_field_decodes_or_is_refused(key, value):
    data = _small_program().to_dict()
    data[key] = value
    _decodes_or_is_refused(ScenarioProgram.from_dict, data)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), value=JSON_VALUES)
def test_garbled_action_field_decodes_or_is_refused(data, value):
    program = _small_program().to_dict()
    action = data.draw(st.sampled_from(program["actions"]))
    action[data.draw(st.sampled_from(sorted(action)))] = value
    _decodes_or_is_refused(ScenarioProgram.from_dict, program)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_garbled_checkpoint_field_restores_or_is_refused(data):
    checkpoint = json.loads(_checkpoint_json())
    key = data.draw(st.sampled_from(sorted(checkpoint)))
    values = JSON_VALUES
    if key == "steps":
        # Only cursors the checkpoint itself reaches: an unbounded cursor
        # replays the whole program before it is refused.
        values = values.filter(
            lambda v: not isinstance(v, (int, float)) or isinstance(v, bool) or v <= checkpoint[key]
        )
    checkpoint[key] = data.draw(values)
    _decodes_or_is_refused(SimSession.from_checkpoint, checkpoint)


@settings(max_examples=100, deadline=None)
@given(key=st.sampled_from(["action", "at_us", "at_step", "pre_launch"]), value=JSON_VALUES)
def test_garbled_injection_record_decodes_or_is_refused(key, value):
    (record,) = json.loads(_checkpoint_json())["injections"]
    record[key] = value
    _decodes_or_is_refused(InjectionRecord.from_dict, record)
