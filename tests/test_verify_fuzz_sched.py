"""The job-arrival fuzzer axis: invariant audits and CLI wiring.

Draw determinism and the zero-count switch are checked for every axis
in ``tests/test_verify_fuzz.py``."""

import pytest

from repro.verify import SCHED_AXIS, run_axis, run_case, sched_fuzz_configs


def test_fuzz_cases_hold_all_invariants():
    """Nine seeded clusters across all three policies and memory regimes:
    every invariant audit must come back clean."""
    results = run_axis(SCHED_AXIS, 9, seed=0)
    assert len(results) == 9
    for r in results:
        assert r.ok, f"{r.config.describe()}: {r.problems}"
    # the batch must actually exercise the interesting paths
    tallies = [r.tallies for r in results]
    assert any(t["rejected"] > 0 for t in tallies), "no tight-memory rejections seen"
    assert any(t["preemptions"] > 0 for t in tallies), "no preemptions seen"
    assert any(t["resizes"] > 0 for t in tallies), "no elastic resizes seen"


def test_tight_memory_rejections_are_genuine():
    """Find a tight-memory case with rejections; the audit inside
    the scheduler audit already proves each rejection infeasible — here we
    just pin that the regime produces them at all."""
    for cfg in sched_fuzz_configs(30, seed=0):
        if cfg.memory_regime != "tight":
            continue
        result = run_case(SCHED_AXIS, cfg)
        assert result.ok, result.problems
        if result.tallies["rejected"] > 0:
            return
    pytest.fail("no tight-memory config produced a rejection in 30 draws")


def test_cli_verify_runs_the_sched_axis(capsys):
    from repro.cli import main

    code = main(["verify", "--quick", "--fuzz", "0", "--sched-fuzz", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "sched-fuzz: 3 clusters" in out
