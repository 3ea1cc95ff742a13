"""Pinned fuzz corpus: generator and replay digests are frozen per seed.

``tests/data/scenario_fuzz_corpus.json`` pins, for each of its seeds, the
sha256 of (a) the generated program's canonical JSON signature and (b) its
replay digest (metrics digest + checkpoint lines).  A drift in either means
the generator, the compiler, the engine, or the digest format changed
behaviour.  Seeds 0-19 are the first twenty programs; the seeds after them
were added because they inject a ``link.*`` fault whose timing a frame in
flight between its two hops can observe (see ``LINK_FAULT_SEEDS``).

To re-pin (or append) only the seeds named on the command line, and leave
every other entry as it is:

    PYTHONPATH=src python - SEED [SEED ...] <<'PY'
    import hashlib, json, sys
    from repro.scenarios import generate_program, replay
    path = "tests/data/scenario_fuzz_corpus.json"
    doc = json.load(open(path))
    entries = {entry["seed"]: entry for entry in doc["programs"]}
    for seed in map(int, sys.argv[1:]):
        if seed not in entries:
            entries[seed] = {"seed": seed}
            doc["programs"].append(entries[seed])
        prog = generate_program(seed)
        entries[seed].update(
            name=prog.name,
            n_actions=len(prog.actions),
            tenants=prog.tenants(),
            signature_sha256=hashlib.sha256(prog.signature().encode()).hexdigest(),
            digest_sha256=hashlib.sha256(replay(prog).digest().encode()).hexdigest(),
        )
    json.dump(doc, open(path, "w"), indent=2)
    PY

Only an intentional change of behaviour may re-pin a seed; say which seeds
and why in the commit message.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.scenarios import FaultInject, generate_program, replay

CORPUS_PATH = Path(__file__).parent / "data" / "scenario_fuzz_corpus.json"
CORPUS = json.loads(CORPUS_PATH.read_text())["programs"]


#: Pinned seeds whose programs fault a link that a frame crosses between
#: leaving its sender and reaching the switch, or between the switch and
#: its receiver, with the faults each injects.  The switch hop must see the
#: egress link as it is when the frame reaches the switch, and a degraded
#: first hop must delay the second; a change that books the switch hop when
#: the frame is sent moves these digests and none of seeds 0-19.
LINK_FAULT_SEEDS = {
    40: {("link.down", "sw->target0")},
    119: {("link.degrade", "target0->sw")},
    520: {("link.loss", "sw->client1")},
    603: {("link.down", "client0->sw"), ("link.loss", "sw->client0")},
    812: {("link.degrade", "target0->sw")},
}


def test_corpus_is_big_enough():
    assert len(CORPUS) >= 20
    assert len({entry["seed"] for entry in CORPUS}) == len(CORPUS)


@pytest.mark.parametrize("seed", sorted(LINK_FAULT_SEEDS))
def test_corpus_pins_link_faults_between_hops(seed):
    assert seed in {entry["seed"] for entry in CORPUS}
    faults = {
        (action.kind, action.component)
        for action in generate_program(seed).actions
        if isinstance(action, FaultInject) and action.kind.startswith("link.")
    }
    assert faults == LINK_FAULT_SEEDS[seed]


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: f"seed{e['seed']}")
def test_pinned_seed_reproduces_program_and_digest(entry):
    program = generate_program(entry["seed"])
    assert program.name == entry["name"]
    assert len(program.actions) == entry["n_actions"]
    assert program.tenants() == entry["tenants"]
    signature_sha = hashlib.sha256(program.signature().encode()).hexdigest()
    assert signature_sha == entry["signature_sha256"], (
        "generated program drifted — generator behaviour changed for this seed"
    )
    run = replay(program)  # raises InvariantViolation on any breach
    digest_sha = hashlib.sha256(run.digest().encode()).hexdigest()
    assert digest_sha == entry["digest_sha256"], (
        "replay digest drifted — compiler/engine behaviour changed for this seed"
    )


#: Seeds whose programs clear a tenant's SLO (``slo_change`` with no
#: bounds) while a violation interval is open.  The interval must close at
#: the tenant's last tracked tick, or ``slo-accounting`` finds the closed
#: intervals far longer than the billed violation time.
SLO_CLEARED_MID_VIOLATION_SEEDS = (3153, 3865, 4753, 5754)


@pytest.mark.parametrize("seed", SLO_CLEARED_MID_VIOLATION_SEEDS)
def test_slo_cleared_mid_violation_replays_clean(seed):
    replay(generate_program(seed), check_invariants=True)
