"""Fault tolerance of the parallel campaign runner.

Two failure families, two contracts:

* **Transient worker trouble** — an executor raising an unexpected
  exception, or the worker process dying mid-unit — is retried (once by
  default) on a fresh process; after a pool breakage, retries run in
  per-unit isolation so a deterministic crasher can only break itself.
* **Deterministic domain failures** — invariant violations, bad configs,
  any :class:`ReproError` — are *never* retried (re-running would fail
  identically); they fail the whole campaign with the offending unit and
  seed named.

These suites register throwaway executor kinds at import time; the fork
start method makes them visible inside worker processes.
"""

import os
import pickle
import traceback

import pytest

from repro.errors import CampaignError, InvariantViolation
from repro.parallel import WorkUnit, register_executor, run_campaign, run_units

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))


def _flaky_executor(payload):
    """Fails the first attempt (recorded via a marker file that survives
    the process boundary), succeeds on the retry."""
    marker = payload["marker"]
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("attempt 1\n")
        if payload.get("die"):
            os._exit(3)  # simulate the worker process dying mid-unit
        raise RuntimeError("transient failure on first attempt")
    return f"recovered tag={payload['tag']}", {"tag": payload["tag"]}


def _always_raises(payload):
    raise RuntimeError("this executor never succeeds")


def _always_dies(payload):
    os._exit(3)


def _steady(payload):
    return f"steady tag={payload['tag']}", {"tag": payload["tag"]}


def _breaches_invariant(payload):
    raise InvariantViolation(
        f"cid-retirement breached in {payload['where']} (seed {payload['seed']})"
    )


register_executor("test-flaky", _flaky_executor, replace=True)
register_executor("test-always-raises", _always_raises, replace=True)
register_executor("test-always-dies", _always_dies, replace=True)
register_executor("test-steady", _steady, replace=True)
register_executor("test-breaches-invariant", _breaches_invariant, replace=True)


def _steady_units(n):
    return [
        WorkUnit(f"steady/{i}", "test-steady", {"tag": i}) for i in range(n)
    ]


class TestRetryOnTransientFailure:
    def test_raising_worker_is_retried_once_and_reported(self, tmp_path):
        units = _steady_units(2) + [
            WorkUnit(
                "flaky/raise",
                "test-flaky",
                {"marker": str(tmp_path / "raise.marker"), "tag": 99},
            )
        ]
        campaign = run_units(units, workers=WORKERS)
        assert campaign.ok
        flaky = campaign.result_for("flaky/raise")
        assert flaky.attempts == 2, "first attempt failed, retry succeeded"
        assert campaign.retried == {"flaky/raise": 2}
        assert flaky.data == {"tag": 99}

    def test_dying_worker_is_retried_on_a_fresh_pool(self, tmp_path):
        units = _steady_units(2) + [
            WorkUnit(
                "flaky/die",
                "test-flaky",
                {"marker": str(tmp_path / "die.marker"), "tag": 7, "die": True},
            )
        ]
        campaign = run_units(units, workers=WORKERS)
        assert campaign.ok
        flaky = campaign.result_for("flaky/die")
        assert flaky.attempts >= 2
        assert flaky.data == {"tag": 7}
        # Collateral units caught in the pool breakage were re-run too and
        # still produced their (deterministic) outputs.
        for i in range(2):
            assert campaign.result_for(f"steady/{i}").data == {"tag": i}

    def test_serial_path_retries_raising_units_too(self, tmp_path):
        unit = WorkUnit(
            "flaky/serial",
            "test-flaky",
            {"marker": str(tmp_path / "serial.marker"), "tag": 1},
        )
        campaign = run_units([unit], workers=0)
        assert campaign.ok
        assert campaign.result_for("flaky/serial").attempts == 2


class TestExhaustedRetries:
    def test_persistent_raiser_fails_the_campaign_with_the_unit_named(self):
        units = _steady_units(1) + [WorkUnit("bad/raiser", "test-always-raises", {})]
        campaign = run_units(units, workers=WORKERS)
        assert not campaign.ok
        bad = campaign.result_for("bad/raiser")
        assert bad.error_kind == "RuntimeError"
        assert bad.attempts == 2, "one retry, then condemned"
        assert campaign.result_for("steady/0").ok
        with pytest.raises(CampaignError, match="bad/raiser"):
            campaign.raise_on_failure()

    def test_persistent_crasher_is_condemned_without_collateral_damage(self):
        """A unit that always kills its worker breaks the shared pool once;
        the retry round isolates each unit in its own pool, so only the
        crasher is condemned and every innocent unit completes."""
        units = _steady_units(3) + [WorkUnit("bad/crasher", "test-always-dies", {})]
        campaign = run_units(units, workers=WORKERS)
        assert [r.unit_id for r in campaign.failures] == ["bad/crasher"]
        bad = campaign.result_for("bad/crasher")
        assert bad.error_kind == "BrokenProcessPool"
        assert bad.error  # a message, not an empty string
        for i in range(3):
            assert campaign.result_for(f"steady/{i}").ok
        with pytest.raises(CampaignError, match="bad/crasher"):
            campaign.raise_on_failure()

    def test_zero_retries_condemns_on_first_failure(self):
        campaign = run_units(
            [WorkUnit("bad/raiser", "test-always-raises", {})],
            workers=1,
            max_retries=0,
        )
        assert not campaign.ok
        assert campaign.result_for("bad/raiser").attempts == 1


class TestDeterministicFailures:
    def test_invariant_violation_is_not_retried_and_names_the_seed(self):
        """An invariant breach is a finding, not bad luck: no retry, and
        the campaign fails naming the unit and the offending seed."""
        units = _steady_units(1) + [
            WorkUnit(
                "fuzz/seed-0042",
                "test-breaches-invariant",
                {"where": "program fuzz-0042", "seed": 42},
            )
        ]
        campaign = run_units(units, workers=WORKERS)
        assert not campaign.ok
        bad = campaign.result_for("fuzz/seed-0042")
        assert bad.error_kind == "InvariantViolation"
        assert bad.attempts == 1, "deterministic failures are never retried"
        assert "seed 42" in bad.error
        with pytest.raises(CampaignError) as exc_info:
            campaign.raise_on_failure()
        message = str(exc_info.value)
        assert "fuzz/seed-0042" in message and "seed 42" in message

    def test_bad_scenario_config_fails_deterministically(self):
        unit = WorkUnit(
            "scenario/bad-config",
            "scenario",
            {"config": {"protocol": "no-such-protocol"}},
        )
        campaign = run_units([unit], workers=WORKERS)
        bad = campaign.result_for("scenario/bad-config")
        assert not bad.ok
        assert bad.error_kind == "ConfigError"
        assert bad.attempts == 1

    def test_failure_digest_line_is_stable_across_serial_and_parallel(self):
        """Failed units digest identically serial vs pooled — campaigns
        with deterministic failures still differential-test cleanly."""
        units = [
            WorkUnit(
                "fuzz/seed-0042",
                "test-breaches-invariant",
                {"where": "program fuzz-0042", "seed": 42},
            )
        ]
        serial = run_units(units, workers=0)
        pooled = run_units(units, workers=WORKERS)
        assert serial.campaign_digest() == pooled.campaign_digest()


class TestFuzzCampaignFailureReporting:
    def test_fuzz_cli_exits_nonzero_when_any_seed_fails(self, monkeypatch, capsys):
        """``python -m repro.experiments.fuzz`` must fail the build when a
        seed breaches invariants — CI keys off the exit code."""
        import repro.experiments.fuzz as fuzz_mod

        failing = fuzz_mod.FuzzResult(base_seed=0, n_programs=10)
        failing.failures.append(
            fuzz_mod.FuzzFailure(3, "InvariantViolation", "books do not balance")
        )

        monkeypatch.setattr(
            fuzz_mod, "run_fuzz", lambda **kwargs: failing
        )
        assert fuzz_mod.main(["--count", "10"]) == 1

    def test_fuzz_cli_exits_zero_on_a_clean_campaign(self):
        from repro.experiments.fuzz import main

        assert main(["--count", "3"]) == 0


class TestCampaignErrorCarriesTheCause:
    """``run_campaign`` (every figure and fuzz campaign) fails naming the
    unit and chains the unit's own exception, so a simulator bug keeps
    its traceback whichever way the campaign ran."""

    def test_in_process_failure_runs_once_and_chains_its_exception(self):
        units = _steady_units(1) + [WorkUnit("bad/raiser", "test-always-raises", {})]
        with pytest.raises(
            CampaignError, match=r"bad/raiser \[RuntimeError after 1 attempt"
        ) as exc_info:
            run_campaign(units, workers=1)
        cause = exc_info.value.__cause__
        assert isinstance(cause, RuntimeError)
        assert "_always_raises" in "".join(traceback.format_tb(cause.__traceback__))

    def test_in_process_domain_failure_chains_its_exception(self):
        unit = WorkUnit(
            "fuzz/seed-0042",
            "test-breaches-invariant",
            {"where": "program fuzz-0042", "seed": 42},
        )
        with pytest.raises(CampaignError, match="fuzz/seed-0042") as exc_info:
            run_campaign([unit], workers=0)
        assert isinstance(exc_info.value.__cause__, InvariantViolation)

    def test_pooled_failure_chains_the_worker_traceback(self):
        with pytest.raises(
            CampaignError, match=r"bad/raiser \[RuntimeError after 2 attempt"
        ) as exc_info:
            run_campaign(
                [WorkUnit("bad/raiser", "test-always-raises", {})],
                workers=max(WORKERS, 2),
            )
        cause = exc_info.value.__cause__
        assert isinstance(cause, RuntimeError)
        assert "_always_raises" in str(cause.__cause__)

    def test_the_cause_does_not_cross_a_process_boundary(self):
        campaign = run_units([WorkUnit("bad/raiser", "test-always-raises", {})])
        failed = campaign.result_for("bad/raiser")
        assert isinstance(failed.cause, RuntimeError)
        copy = pickle.loads(pickle.dumps(failed))
        assert copy.cause is None
        assert copy == failed
