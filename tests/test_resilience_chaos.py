"""End-to-end chaos scenarios: the CI contract, exercised as tests.

The smoke scenario (crash 1 of N=3 mid-run) must recover via eviction
with nonzero time-to-detect / time-to-recover and a bounded loss delta;
the same seed with recovery disabled must fail.  One recovered run is
shared module-wide — these are the most expensive tests in the suite.
"""

import json

import pytest

from repro.cli import main
from repro.resilience import SCENARIOS, run_scenario


@pytest.fixture(scope="module")
def smoke():
    return run_scenario("smoke", seed=0, recovery=True)


@pytest.fixture(scope="module")
def smoke_norec():
    return run_scenario("smoke", seed=0, recovery=False)


class TestSmokeScenario:
    def test_recovers(self, smoke):
        assert smoke.failures == []
        assert smoke.recovered

    def test_sim_metrics_are_positive(self, smoke):
        assert smoke.sim["time_to_detect"] > 0
        assert smoke.sim["time_to_recover"] > 0
        assert 0 < smoke.sim["throughput_lost"] < 1
        assert [r["kind"] for r in smoke.sim["detected"]] == ["pipeline_crash"]

    def test_numerics_recovered_by_eviction(self, smoke):
        num = smoke.numerics
        assert num["pipelines_after"] == 2
        assert num["time_to_detect_rounds"] > 0
        assert num["time_to_recover_rounds"] > 0
        assert abs(num["loss_delta"]) <= num["loss_tolerance"]
        # Post-recovery framework still matches the sequential oracle bitwise.
        assert num["oracle_divergence"] == 0.0

    def test_timeline_names_the_recovery(self, smoke):
        assert any("evict" in line for line in smoke.timeline)

    def test_without_recovery_the_same_seed_fails(self, smoke_norec):
        assert not smoke_norec.recovered
        assert any("no recovery policy" in f for f in smoke_norec.failures)

    def test_deterministic_in_the_seed(self, smoke):
        again = run_scenario("smoke", seed=0, recovery=True)
        assert again.to_dict() == smoke.to_dict()


@pytest.mark.parametrize("name", sorted(set(SCENARIOS) - {"smoke"}))
def test_deterministic_in_the_seed(name):
    """Every other scenario's report depends only on (scenario, seed):
    two runs serialize to the same bytes, checkpoint location included."""
    first, again = (
        json.dumps(run_scenario(name, seed=0).to_dict(), indent=2, default=float)
        for _ in range(2)
    )
    assert first == again


def test_fault_free_rounds_match_the_trainer():
    """Without a fault, the chaos loop is the trainer's loop: the same
    metric history and the same reference, bit for bit."""
    from repro.core.trainer import AvgPipeTrainer
    from repro.resilience.chaos import _train_rounds, tiny_chaos_spec

    spec = tiny_chaos_spec()
    run = _train_rounds(spec, 0, 3, 3)
    trainer = AvgPipeTrainer(spec, seed=0, num_pipelines=3, max_epochs=3)
    result = trainer.train()
    assert [m.hex() for m in run.history] == [m.hex() for m in result.metric_history]
    ours, theirs = run.trainer.framework.reference, trainer.framework.reference
    assert ours.keys() == theirs.keys()
    assert all(ours[k].tobytes() == theirs[k].tobytes() for k in ours)


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_scenario("meteor-strike")


def test_scenario_catalogue_covers_every_fault_class():
    kinds = {s.kind for s in SCENARIOS.values()}
    assert kinds == {"pipeline_crash", "device_crash", "device_slowdown",
                     "link_partition"}


class TestChaosCli:
    def test_recovered_run_exits_zero(self, capsys):
        assert main(["chaos", "--scenario", "smoke", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "RECOVERED" in out

    def test_no_recovery_exits_nonzero(self, capsys):
        assert main(["chaos", "--scenario", "smoke", "--seed", "0",
                     "--no-recovery"]) == 1
        out = capsys.readouterr().out
        assert "UNRECOVERED" in out

    def test_json_output_is_machine_readable(self, capsys):
        assert main(["chaos", "--scenario", "smoke", "--seed", "0",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "smoke"
        assert payload["recovered"] is True
        assert payload["sim"]["time_to_detect"] > 0

    def test_list_exits_zero(self, capsys):
        assert main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out
