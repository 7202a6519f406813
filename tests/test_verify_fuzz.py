"""The fuzz protocol and its simulator axis.

Protocol: every axis draws a reproducible, seed-sensitive budget, a
crashing audit becomes a labelled finding instead of aborting ``repro
verify``, and a zero count disables the axis.  Simulator axis: every
drawn config passes, the OOM prediction is an iff, and an injected
causality violation is detected."""

import pytest

import repro.verify.fuzz as fuzz_module
import repro.verify.fuzz_sched as fuzz_sched
from repro.verify.fuzz import (
    AXES,
    SIM_AXIS,
    fuzz_configs,
    inject_causality_violation,
    run_axis,
    run_case,
    run_config,
)


def _check_sched_draw(configs):
    assert [c.policy for c in configs] == ["fifo", "priority", "fair"] * 3
    for cfg in configs:
        assert 2 <= cfg.nodes <= 4
        assert 1 <= cfg.gpus_per_node <= 2
        assert 3 <= cfg.num_jobs <= 8
        assert 0.3 <= cfg.mean_interarrival <= 3.0
        assert cfg.memory_regime in ("roomy", "tight", "uneven")


#: (count, seed, axis-specific check) per axis
_DRAWS = {
    "fuzz": (10, 4, None),
    "sched-fuzz": (9, 0, _check_sched_draw),
}


@pytest.mark.parametrize("axis", AXES, ids=lambda a: a.name)
def test_draw_is_deterministic_and_seed_sensitive(axis):
    count, seed, check = _DRAWS[axis.name]
    a = axis.draw(count, seed)
    assert a == axis.draw(count, seed)
    assert a != axis.draw(count, seed + 1)
    if check is not None:
        check(a)


#: (owner, attribute, failing call) per axis: the call each audit makes
#: that used to escape as a bare traceback naming no case
_CRASH_SITES = {
    "fuzz": (fuzz_module, "check_trace_causality", 1),
    "sched-fuzz": (fuzz_sched, "_run_once", 2),  # the determinism re-run
}


@pytest.mark.parametrize("axis", AXES, ids=lambda a: a.name)
def test_crashing_case_is_a_labelled_finding(axis, monkeypatch, capsys):
    """An exception inside one case's audit must not abort ``repro verify``:
    it becomes ``raised <Type>: <msg>`` on that case and verify exits 1."""
    from repro.cli import main

    owner, attr, crash_on = _CRASH_SITES[axis.name]
    real = getattr(owner, attr)
    calls = {"n": 0}

    def crashing(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == crash_on:
            raise RuntimeError("injected crash")
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attr, crashing)
    argv = ["verify", "--quick"]
    for other in AXES:
        argv += [f"--{other.name}", "1" if other is axis else "0"]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 1
    cfg = axis.draw(1, 0)[0]
    assert f"{axis.name.upper()} {cfg.describe()}: raised RuntimeError: injected crash" in out
    assert f"{axis.name}: 1 " in out


@pytest.mark.parametrize("axis", AXES, ids=lambda a: a.name)
def test_count_zero_disables_the_axis(axis, capsys):
    from repro.cli import main

    argv = ["verify", "--quick"]
    for other in AXES:
        argv += [f"--{other.name}", "0" if other is axis else "1"]
    code = main(argv)
    summaries = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    assert code == 0
    assert axis.name not in summaries
    assert all(other.name in summaries for other in AXES if other is not axis)


def test_fuzz_budget_passes():
    findings = run_axis(SIM_AXIS, 15, seed=0)
    assert len(findings) == 15
    for f in findings:
        assert f.ok, f.config.describe() + "\n" + "\n".join(f.problems)


def test_fuzz_covers_both_memory_regimes():
    configs = fuzz_configs(40, seed=1)
    regimes = {c.memory_regime for c in configs}
    assert regimes == {"fits", "oom"}
    placements = {c.placement for c in configs}
    assert "chimera" in placements or "interleaved" in placements


def test_oom_regime_actually_ooms():
    cfg = next(c for c in fuzz_configs(60, seed=2) if c.memory_regime == "oom")
    result = run_case(SIM_AXIS, cfg)
    assert result.tallies["oom"] == 1
    assert result.ok, "\n".join(result.problems)


def test_fits_regime_checks_spans():
    cfg = next(c for c in fuzz_configs(60, seed=2) if c.memory_regime == "fits")
    result = run_case(SIM_AXIS, cfg)
    assert result.tallies["oom"] == 0
    assert result.tallies["spans"] > 0
    assert result.ok, "\n".join(result.problems)


def _run_clean_case(seed=3):
    cfg = next(
        c for c in fuzz_configs(60, seed=seed)
        if c.memory_regime == "fits" and c.num_stages >= 2 and c.placement == "straight"
    )
    return run_config(cfg)


def test_clean_trace_is_causally_sound():
    assert _run_clean_case().causality() == []


def test_injected_violation_is_detected():
    run = _run_clean_case()
    msg = inject_causality_violation(run.runner.trace)
    assert "rewound" in msg
    problems = run.causality()
    assert problems, "tampered trace passed the causality check"
    assert any("before" in p for p in problems)


def test_missing_span_is_detected():
    run = _run_clean_case(seed=6)
    spans = run.runner.trace.compute_spans()
    run.runner.trace.spans.remove(spans[len(spans) // 2])
    problems = run.causality()
    assert any("expected" in p or "no recorded dependency" in p for p in problems)
