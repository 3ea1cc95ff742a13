"""Differential serial-vs-parallel harness for ``repro.parallel``.

The headline guarantee of the parallel runner: fanning work out to a
process pool changes *nothing* about the results.  Every suite here pins
byte-for-byte equality between a serial (``workers=0``, in-process) run
and a pooled run — for the Figure 7/8/9 harnesses and the fuzz campaign
(each of which is one unit list run through ``run_campaign``), the pinned
20-seed fuzz corpus, a chaos fault-matrix cell, and the golden-pinned
library program — plus a Hypothesis proof that the merge is invariant
under completion order.

The pool size comes from ``REPRO_TEST_WORKERS`` (CI sets 4; the default
of 2 keeps single-core dev boxes fast).  Determinism must hold for any
value, so the suites only read it, never branch on it.
"""

import hashlib
import json
import os
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CampaignError, ConfigError
from repro.experiments.fig7 import fig7_units, run_fig7
from repro.experiments.fig8 import fig8_units, run_fig8
from repro.experiments.fig9 import fig9_units, run_fig9
from repro.experiments.fuzz import fuzz_units, run_fuzz
from repro.parallel import (
    FAULT_MATRIX,
    CampaignResult,
    UnitResult,
    WorkUnit,
    fault_matrix_units,
    merge_results,
    program_units,
    register_executor,
    run_units,
)
from repro.scenarios.compiler import ProgramRunEnvelope
from tests.test_golden_regression import GOLDEN_OPF_DIGEST_SHA256

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))

CORPUS_PATH = Path(__file__).parent / "data" / "scenario_fuzz_corpus.json"

#: A deliberately staggered executor: later-submitted units finish first,
#: so pooled completion order is the reverse of submission order.
def _sleepy_executor(payload):
    time.sleep(payload["sleep_s"])
    return f"slept={payload['sleep_s']!r} tag={payload['tag']}", {"tag": payload["tag"]}


register_executor("test-sleepy", _sleepy_executor, replace=True)


# -- figure sweeps -------------------------------------------------------------


class TestFig7Differential:
    GRID = dict(ratios=("1:1", "1:2"), speeds=(10.0,), mixes=("read",), total_ops=80)

    def test_campaign_digest_is_bit_identical_to_serial(self):
        units = fig7_units(**self.GRID)
        serial = run_units(units, workers=0)
        pooled = run_units(units, workers=WORKERS)
        assert serial.ok and pooled.ok
        assert pooled.campaign_digest() == serial.campaign_digest()
        # Not just the digest: every unit's full metrics rendering matches.
        for s, p in zip(serial.results, pooled.results):
            assert p.unit_id == s.unit_id
            assert p.digest == s.digest
            assert p.data == s.data

    def test_points_match_the_serial_harness_exactly(self):
        serial_points = run_fig7(**self.GRID)
        pooled_points = run_fig7(workers=WORKERS, print_table=True, **self.GRID)
        assert pooled_points == serial_points

    def test_unit_digest_matches_a_direct_scenario_run(self):
        from tests.conftest import build_fig7_cell

        units = fig7_units(**self.GRID)
        unit = next(
            u for u in units if u.unit_id == "fig7/read/10G/1:2/nvme-opf"
        )
        campaign = run_units([unit], workers=WORKERS)
        direct = build_fig7_cell(
            ratio="1:2",
            total_ops=80,
            window_size=unit.payload["config"]["window_size"],
        ).run()
        assert campaign.results[0].digest == direct.metrics_digest()


class TestFig8Fig9Differential:
    FIG8 = dict(
        mixes=("read",),
        patterns=(1, 2),
        n_node_pairs=2,
        per_node_range=[1, 2],
        pairs_range=[1, 2],
        total_ops=60,
    )
    FIG9 = dict(
        modes=("write", "read"),
        patterns=(2,),
        n_node_pairs=2,
        ranks_per_node_max=2,
        particles_per_rank=16 * 1024,
        timesteps=1,
        dataset_load_us=2_000.0,
    )

    def test_fig8_curves_match_the_serial_harness_exactly(self):
        serial_curves = run_fig8(**self.FIG8)
        pooled_curves = run_fig8(workers=WORKERS, print_table=True, **self.FIG8)
        assert pooled_curves == serial_curves
        units = fig8_units(**self.FIG8)
        assert (
            run_units(units, workers=WORKERS).campaign_digest()
            == run_units(units, workers=0).campaign_digest()
        )

    def test_fig9_points_match_the_serial_harness_exactly(self):
        serial_points = run_fig9(**self.FIG9)
        pooled_points = run_fig9(workers=WORKERS, print_table=True, **self.FIG9)
        assert pooled_points == serial_points
        units = fig9_units(**self.FIG9)
        assert (
            run_units(units, workers=WORKERS).campaign_digest()
            == run_units(units, workers=0).campaign_digest()
        )


# -- the pinned fuzz corpus ----------------------------------------------------


class TestFuzzDifferential:
    def test_parallel_campaign_reproduces_the_pinned_corpus(self):
        corpus = json.loads(CORPUS_PATH.read_text())["programs"]
        seeds = [entry["seed"] for entry in corpus]
        assert seeds == sorted(seeds)
        n = max(seeds) + 1
        units = fuzz_units(n, base_seed=min(seeds), determinism_stride=0)
        campaign = run_units(units, workers=WORKERS)
        campaign.raise_on_failure()
        by_seed = {}
        for result in campaign.results:
            by_seed.update(result.data["seeds"])
        for entry in corpus:
            got = by_seed[entry["seed"]]
            assert got["signature_sha256"] == entry["signature_sha256"], (
                f"seed {entry['seed']}: generated program drifted in the worker"
            )
            assert got["digest_sha256"] == entry["digest_sha256"], (
                f"seed {entry['seed']}: replay digest drifted in the worker"
            )

    def test_parallel_fuzz_result_is_field_identical_to_serial(self):
        serial = run_fuzz(n_programs=30, base_seed=0)
        pooled = run_fuzz(n_programs=30, base_seed=0, workers=WORKERS, print_table=True)
        assert dict(pooled.action_counts) == dict(serial.action_counts)
        assert pooled.determinism_checks == serial.determinism_checks
        assert [(f.seed, f.kind, f.message) for f in pooled.failures] == [
            (f.seed, f.kind, f.message) for f in serial.failures
        ]
        assert pooled.ok == serial.ok
        assert pooled.base_seed == serial.base_seed
        assert pooled.n_programs == serial.n_programs

    def test_run_fuzz_workers_flag_routes_through_the_pool(self, monkeypatch):
        """``workers`` keeps its command-line meaning: 0 and 1 run the
        units in-process, N > 1 on a pool of N."""
        import repro.parallel.pool as pool

        seen = []
        real = pool.run_units

        def spy(units, workers=0, **kwargs):
            seen.append(workers)
            return real(units, workers=workers, **kwargs)

        monkeypatch.setattr(pool, "run_units", spy)
        results = [run_fuzz(n_programs=12, base_seed=5, workers=w) for w in (0, 1, WORKERS)]
        assert seen == [0, 0, WORKERS if WORKERS > 1 else 0]
        for result in results[1:]:
            assert dict(result.action_counts) == dict(results[0].action_counts)
            assert result.determinism_checks == results[0].determinism_checks


# -- chaos fault-matrix cells --------------------------------------------------


class TestFaultMatrixDifferential:
    @pytest.mark.parametrize("kind", ["target_crash", "link_loss_burst"])
    def test_chaos_cell_digest_is_bit_identical_to_serial(self, kind):
        units = fault_matrix_units(kinds=[kind], total_ops=120)
        serial = run_units(units, workers=0)
        pooled = run_units(units, workers=WORKERS)
        assert serial.ok and pooled.ok
        assert pooled.campaign_digest() == serial.campaign_digest()
        assert pooled.results[0].digest == serial.results[0].digest
        # Chaos cells recover: the retry policy reports, never loses, ops.
        assert pooled.results[0].data["failed_ops"] == 0

    def test_full_matrix_runs_every_fault_kind_in_kind_order(self):
        campaign = run_units(fault_matrix_units(total_ops=100), workers=WORKERS)
        campaign.raise_on_failure()
        assert [r.unit_id for r in campaign.results] == [
            f"faults/{kind}" for kind in sorted(FAULT_MATRIX)
        ]
        for result in campaign.results:
            assert result.data["goodput_ops"] > 0


# -- golden pins ---------------------------------------------------------------


def _library_envelope(name):
    """Replay one library program in a worker process."""
    campaign = run_units(program_units(names=[name]), workers=WORKERS)
    campaign.raise_on_failure()
    return ProgramRunEnvelope(**campaign.results[0].data["envelope"])


class TestGoldenPins:
    def test_worker_replay_hits_the_pre_hardening_golden_pin(self):
        """The library fig7 program replayed in a *worker process* must
        reproduce the digest pinned before chaos hardening landed — the
        strongest cross-process determinism statement we can make."""
        envelope = _library_envelope("fig7-opf-1to2")
        assert envelope.digest_sha256 == GOLDEN_OPF_DIGEST_SHA256

    def test_envelope_matches_in_process_replay(self):
        from repro.scenarios import replay
        from repro.scenarios.library import fig7_cell_program

        envelope = _library_envelope("fig7-opf-1to2")
        run = replay(fig7_cell_program())
        assert envelope.digest == run.digest()
        assert envelope.signature_sha256 == hashlib.sha256(
            run.program.signature().encode()
        ).hexdigest()


# -- merge determinism ---------------------------------------------------------


def _fake_results(n: int, rnd_attempts) -> list:
    return [
        UnitResult(
            unit_id=f"u{i:03d}",
            kind="test-sleepy",
            ok=(i % 7 != 3),
            digest=f"digest-{i}",
            data={"i": i},
            error_kind="" if i % 7 != 3 else "InvariantViolation",
            error="" if i % 7 != 3 else f"unit u{i:03d} breached",
            attempts=rnd_attempts[i],
        )
        for i in range(n)
    ]


class TestMergeDeterminism:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(min_value=1, max_value=24))
    def test_merge_is_invariant_under_completion_order(self, data, n):
        """For ANY permutation of arrival order — and any provenance noise
        (attempts, pids, elapsed) — the merged order and the campaign
        digest are identical."""
        units = [WorkUnit(f"u{i:03d}", "test-sleepy", {}) for i in range(n)]
        attempts = data.draw(
            st.lists(st.integers(1, 3), min_size=n, max_size=n)
        )
        results = _fake_results(n, attempts)
        shuffled = data.draw(st.permutations(results))
        merged = merge_results(units, shuffled)
        reference = merge_results(units, results)
        assert [r.unit_id for r in merged] == [r.unit_id for r in reference]
        noisy = CampaignResult(results=merged, workers=8)
        clean = CampaignResult(results=reference, workers=0)
        assert noisy.campaign_digest() == clean.campaign_digest()

    def test_merge_rejects_duplicates(self):
        units = [WorkUnit("a", "test-sleepy", {})]
        result = UnitResult(unit_id="a", kind="test-sleepy", ok=True)
        with pytest.raises(CampaignError, match="duplicate"):
            merge_results(units, [result, result])

    def test_merge_rejects_unknown_units(self):
        units = [WorkUnit("a", "test-sleepy", {})]
        with pytest.raises(CampaignError, match="unknown unit"):
            merge_results(units, [UnitResult(unit_id="b", kind="test-sleepy", ok=True)])

    def test_merge_rejects_missing_units(self):
        units = [WorkUnit("a", "test-sleepy", {}), WorkUnit("b", "test-sleepy", {})]
        with pytest.raises(CampaignError, match="no result"):
            merge_results(units, [UnitResult(unit_id="a", kind="test-sleepy", ok=True)])

    def test_real_pool_reversed_completion_order_merges_identically(self):
        """Units engineered to complete in reverse submission order still
        merge into submission order with a serial-identical digest."""
        units = [
            WorkUnit(
                unit_id=f"sleepy/{i}",
                kind="test-sleepy",
                payload={"sleep_s": 0.3 - 0.09 * i, "tag": i},
            )
            for i in range(3)
        ]
        serial = run_units(units, workers=0)
        pooled = run_units(units, workers=3)
        assert [r.data["tag"] for r in pooled.results] == [0, 1, 2]
        assert pooled.campaign_digest() == serial.campaign_digest()


# -- argument validation -------------------------------------------------------


class TestValidation:
    def test_negative_workers_is_a_config_error_naming_the_key(self):
        with pytest.raises(ConfigError, match="'workers'"):
            run_units([], workers=-1)

    def test_bool_workers_is_rejected(self):
        with pytest.raises(ConfigError, match="'workers'"):
            run_units([], workers=True)

    def test_oversized_workers_is_rejected(self):
        with pytest.raises(ConfigError, match="'workers'"):
            run_units([], workers=1000)

    def test_bad_max_retries_is_a_config_error_naming_the_key(self):
        with pytest.raises(ConfigError, match="'max_retries'"):
            run_units([], max_retries=-1)

    def test_duplicate_unit_ids_are_rejected(self):
        units = [WorkUnit("same", "test-sleepy", {}), WorkUnit("same", "test-sleepy", {})]
        with pytest.raises(ConfigError, match="duplicate unit_id"):
            run_units(units)

    def test_unknown_kind_is_rejected_before_any_fork(self):
        with pytest.raises(ConfigError, match="unknown kind"):
            run_units([WorkUnit("u", "no-such-kind", {})], workers=WORKERS)

    def test_empty_unit_id_is_rejected(self):
        with pytest.raises(ConfigError, match="'unit_id'"):
            WorkUnit("", "test-sleepy", {})

    def test_fuzz_units_validate_seed_range_keys(self):
        with pytest.raises(ConfigError, match="'count'"):
            fuzz_units(0)
        with pytest.raises(ConfigError, match="'base_seed'"):
            fuzz_units(10, base_seed=-1)

    def test_failing_cell_is_a_campaign_error_naming_its_unit(self):
        with pytest.raises(CampaignError, match="fig7/read/10G/1:1/spdk"):
            run_fig7(ratios=("1:1",), speeds=(10.0,), mixes=("read",), total_ops=0)

    def test_bool_workers_is_rejected_by_the_harnesses(self):
        with pytest.raises(ConfigError, match="'workers'"):
            run_fuzz(n_programs=1, workers=True)

    def test_fuzz_cli_validates_workers_and_seed_range(self):
        from repro.experiments.fuzz import main

        assert main(["--count", "0"]) == 2
        assert main(["--count", "10", "--workers", "-3"]) == 2
        assert main(["--count", "10", "--base-seed", "-1"]) == 2

    def test_runner_cli_rejects_bad_workers(self):
        from repro.experiments.runner import main

        assert main(["table1", "--workers", "-1"]) == 2

    def test_fault_matrix_rejects_unknown_kind(self):
        with pytest.raises(ConfigError, match="'kinds'"):
            fault_matrix_units(kinds=["no_such_fault"])


class TestWorkersCliCpuCap:
    """``--workers`` beyond the machine's CPU count is a ConfigError (CLI)."""

    def test_runner_cli_rejects_oversubscription(self, capsys):
        from repro.experiments.runner import main

        over = (os.cpu_count() or 1) + 1
        if over > 64:
            pytest.skip("cpu_count + 1 exceeds MAX_WORKERS; cap hit first")
        assert main(["table1", "--workers", str(over)]) == 2
        err = capsys.readouterr().err
        assert "CPU count" in err and "'workers'" in err

    def test_fuzz_cli_rejects_oversubscription(self, capsys):
        from repro.experiments.fuzz import main

        over = (os.cpu_count() or 1) + 1
        assert main(["--count", "3", "--workers", str(over)]) == 2
        err = capsys.readouterr().err
        assert "CPU count" in err and "'workers'" in err
