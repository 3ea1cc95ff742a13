"""Pinned fuzz corpus: generator and replay digests are frozen per seed.

``tests/data/scenario_fuzz_corpus.json`` pins, for 20 seeds, the sha256 of
(a) the generated program's canonical JSON signature and (b) its replay
digest (metrics digest + checkpoint lines).  A drift in either means the
generator, the compiler, the engine, or the digest format changed behaviour
— if the change is intentional, regenerate the corpus:

    PYTHONPATH=src python - <<'PY'
    import hashlib, json
    from repro.scenarios import generate_program, replay
    doc = json.load(open("tests/data/scenario_fuzz_corpus.json"))
    for entry in doc["programs"]:
        prog = generate_program(entry["seed"])
        entry["signature_sha256"] = hashlib.sha256(prog.signature().encode()).hexdigest()
        entry["digest_sha256"] = hashlib.sha256(replay(prog).digest().encode()).hexdigest()
        entry["n_actions"] = len(prog.actions)
        entry["tenants"] = prog.tenants()
    json.dump(doc, open("tests/data/scenario_fuzz_corpus.json", "w"), indent=2)
    PY

and say so in the commit message.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.scenarios import generate_program, replay

CORPUS_PATH = Path(__file__).parent / "data" / "scenario_fuzz_corpus.json"
CORPUS = json.loads(CORPUS_PATH.read_text())["programs"]


def test_corpus_is_big_enough():
    assert len(CORPUS) >= 20
    assert len({entry["seed"] for entry in CORPUS}) == len(CORPUS)


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
