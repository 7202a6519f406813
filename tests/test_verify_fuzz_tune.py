"""The run-store fuzzer axis: contract audits and CLI wiring.

Draw determinism and the zero-count switch are checked for every axis
in ``tests/test_verify_fuzz.py``."""

import dataclasses

from repro.verify import TUNE_AXIS, run_axis, run_case, tune_fuzz_configs


def test_fuzz_cases_hold_all_contracts():
    """One full rotation of every mutation kind: crash-freedom, fallback
    correctness, OOM vetoes, round-trips, and determinism all clean."""
    results = run_axis(TUNE_AXIS, 10, seed=0)
    assert len(results) == 10
    for r in results:
        assert r.ok, f"{r.config.describe()}: {r.problems}"
    # the batch must exercise both sides of the fallback
    assert any(r.tallies["residual"] for r in results), "no store residual-ranked"
    assert any(r.tallies["fallback"] for r in results), "no store fell back to analytic"


def test_empty_mutation_reports_analytic_fallback():
    cfg = next(c for c in tune_fuzz_configs(5, seed=0) if c.mutation == "empty")
    result = run_case(TUNE_AXIS, cfg)
    assert result.ok, result.problems
    assert result.tallies == {"records": 0, "residual": 0, "fallback": 1}


def test_oom_mutation_still_decides():
    """A store of OOM-flagged records must veto without ever crashing or
    leaving the grid."""
    cfg = next(
        c for c in tune_fuzz_configs(5, seed=0) if c.mutation == "oom-flagged"
    )
    result = run_case(TUNE_AXIS, cfg)
    assert result.ok, result.problems
    assert result.tallies["records"] > 0


def test_detects_order_dependent_residual_fit(monkeypatch):
    """The determinism audit is live: make the fit order-sensitive and the
    fuzzer must flag it (this is the bug class the audit exists for)."""
    from repro.tune.residual import ResidualModel

    true_fit = ResidualModel.fit.__func__
    calls = {"n": 0}

    def skewed_fit(cls, records, context=None, **kwargs):
        model = true_fit(cls, records, context=context, **kwargs)
        calls["n"] += 1
        if calls["n"] % 2 == 0:  # every second fit drifts
            return dataclasses.replace(
                model,
                exact={k: v * (1.0 + 1e-9) for k, v in model.exact.items()},
            )
        return model

    monkeypatch.setattr(ResidualModel, "fit", classmethod(skewed_fit))
    flagged = []
    for cfg in tune_fuzz_configs(10, seed=0):
        if cfg.mutation == "empty":
            continue
        result = run_case(TUNE_AXIS, cfg)
        flagged.extend(result.problems)
        if flagged:
            break
    assert flagged, "fuzzer missed an order-dependent residual fit"


def test_cli_verify_runs_the_tune_axis(capsys):
    from repro.cli import main

    code = main(["verify", "--quick", "--fuzz", "0", "--sched-fuzz", "0",
                 "--tune-fuzz", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "tune-fuzz: 5 stores" in out
