"""CLI: parser wiring and the fast commands end to end."""

import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_plan_defaults(self):
        args = build_parser().parse_args(["plan", "awd"])
        assert args.workload == "awd"
        assert args.max_pipelines == 4

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "resnet"])

    def test_timeline_defaults(self):
        args = build_parser().parse_args(["timeline"])
        assert args.schedule == "advance_fp"
        assert args.micro == 8

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_timeline_renders(self, capsys):
        code = main(["timeline", "--workload", "awd", "--schedule", "1f1b", "--micro", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "GPU 1" in out
        assert "iteration time" in out

    def test_plan_awd(self, capsys):
        code = main(["plan", "awd", "--iterations", "1", "--max-pipelines", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "parallel pipelines" in out
        assert "time per batch" in out

    def test_plan_hetero_prints_time_per_batch(self, capsys, monkeypatch):
        """An iteration advances N batches, so the per-batch row is the
        tuner's measured iteration time divided by N."""
        from repro.core.tuner import ProfilingTuner

        outcomes = []
        tune = ProfilingTuner.tune

        def recording(self, *args, **kwargs):
            outcomes.append(tune(self, *args, **kwargs))
            return outcomes[-1]

        monkeypatch.setattr(ProfilingTuner, "tune", recording)
        code = main(["plan", "awd", "--hetero", "straggler-node"])
        out = capsys.readouterr().out
        assert code == 0
        (outcome,) = outcomes
        assert outcome.n > 1  # per iteration and per batch differ
        printed = float(re.search(r"time per batch \(ms\)\s+([\d.]+)", out).group(1))
        assert printed == pytest.approx(
            outcome.measured_batch_time / outcome.n * 1e3, abs=0.005
        )

    def test_figure_unknown(self, capsys):
        code = main(["figure", "fig99"])
        assert code == 2
        assert "unknown figure" in capsys.readouterr().out

    def test_figure_fig07(self, capsys):
        code = main(["figure", "fig07"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig07" in out


class TestVerify:
    def test_verify_defaults(self):
        args = build_parser().parse_args(["verify"])
        assert args.fuzz == 25
        assert args.tol == 1e-9
        assert args.inject == "none"

    def test_verify_quick_passes(self, capsys):
        code = main(["verify", "--quick", "--fuzz", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all checks passed" in out
        assert "worst |delta| = 0" in out

    def test_verify_fails_on_corrupted_schedule(self, capsys):
        code = main(["verify", "--quick", "--fuzz", "0", "--inject", "swapped-bwd"])
        out = capsys.readouterr().out
        assert code == 1
        assert "SANITIZER" in out
        assert "FAILED" in out

    def test_verify_fails_on_injected_causality_violation(self, capsys):
        code = main(["verify", "--quick", "--fuzz", "0", "--inject", "causality"])
        out = capsys.readouterr().out
        assert code == 1
        assert "CAUSALITY" in out


class TestSched:
    def test_sched_defaults(self):
        args = build_parser().parse_args(["sched"])
        assert args.scenario == "smoke"
        assert args.policy == "fair"
        assert args.seed == 0

    def test_sched_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sched", "--scenario", "weekend"])

    def test_sched_list(self, capsys):
        code = main(["sched", "--list"])
        out = capsys.readouterr().out
        assert code == 0
        assert "smoke" in out and "rush" in out and "hetero" in out

    def test_sched_smoke_fair_passes(self, capsys):
        code = main(["sched", "--scenario", "smoke", "--policy", "fair", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Verdict: PASS" in out
        assert "cluster utilization" in out
        assert "queue wait p95 (s)" in out
        assert "cross-check" in out

    def test_sched_json_and_artifacts(self, tmp_path, capsys):
        import json

        code = main([
            "sched", "--scenario", "smoke", "--policy", "fair", "--seed", "0",
            "--no-crosscheck", "--json", "--out", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out[: out.rindex("}") + 1])
        assert payload["passed"] is True
        assert payload["util_improved"] is True
        assert (tmp_path / "sched_smoke_fair.log").exists()
        verdict = json.loads((tmp_path / "sched_verdict.json").read_text())
        assert verdict["candidate"]["policy"] == "fair"

    def test_sched_fifo_without_baseline_is_healthy(self, capsys):
        """No baseline → no self-comparison: the report must carry the
        single run's tables, not a verdict that can only read FAIL."""
        code = main(["sched", "--scenario", "smoke", "--policy", "fifo",
                     "--no-crosscheck"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Verdict" not in out
        assert "improved" not in out
        assert "Run complete" in out and "policy=fifo" in out
        assert out.count("Jobs — scenario=smoke") == 1
