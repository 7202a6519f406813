"""Command-line interface.

    python -m repro plan gnmt                 # tune (M, N, advance) and simulate
    python -m repro baselines bert            # simulate the five baselines
    python -m repro train awd --epochs 10     # real elastic-averaging training
    python -m repro figure fig17              # regenerate one paper figure
    python -m repro timeline --schedule 1f1b  # render a schedule timeline
    python -m repro verify --quick            # oracle + sanitizer + fuzzer
    python -m repro chaos --scenario smoke    # fault injection + recovery
    python -m repro sched --scenario smoke --policy fair  # multi-job elastic scheduler
    python -m repro report --out obs_out      # instrumented run + Chrome trace
    python -m repro calibrate gnmt            # simulator calibration matrix

Every command prints plain-text tables (no plotting dependencies) and is
deterministic for a given seed.
"""

from __future__ import annotations

import argparse
import sys

MIB = 2**20


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.core import AvgPipe
    from repro.utils import format_table

    if getattr(args, "hetero", None):
        return _cmd_plan_hetero(args)
    system = AvgPipe(args.workload)
    plan = system.plan(
        memory_limit_bytes=args.memory_mib * MIB if args.memory_mib else None,
        n_candidates=list(range(1, args.max_pipelines + 1)),
    )
    result = system.simulate(plan, iterations=args.iterations, render_timeline=args.timeline)
    rows = [
        ["partition", str(plan.partition.boundaries)],
        ["micro-batches (M)", plan.num_micro],
        ["parallel pipelines (N)", plan.num_pipelines],
        ["advance forward depth", plan.advance],
        ["tuning cost (sim s)", round(plan.tuning_cost, 3)],
        ["time per batch (ms)", round(result.time_per_batch * 1e3, 2)],
        ["peak device memory (MiB)", round(max(result.peak_memory) / MIB, 1)],
        ["average GPU utilization", round(result.avg_utilization, 3)],
    ]
    print(format_table(["metric", "value"], rows, title=f"AvgPipe plan — {args.workload}"))
    if args.timeline:
        print()
        print(result.timeline)
    return 0


def _cmd_plan_hetero(args: argparse.Namespace) -> int:
    """Plan against a canned heterogeneous cluster variant.

    Runs the joint balanced-partition/placement search, then the paper's
    profiling tuner on the heterogeneous spec with per-device memory
    budgets, and reports the full plan.
    """
    from repro.core.simcfg import calibration_for
    from repro.core.tuner import ProfilingTuner
    from repro.schedules import AdvanceFPSchedule
    from repro.utils import format_table

    cal = calibration_for(args.workload)
    cspec = cal.cluster_spec(args.hetero)
    costs = cal.layer_costs()
    partition, placement = cal.hetero_plan(args.hetero, costs)
    profiler = cal.profiler(
        AdvanceFPSchedule(2),
        variant=args.hetero,
        costs=costs,
        partition=partition,
        placement=placement,
    )
    budget = args.memory_mib * MIB if args.memory_mib else None
    limits = (
        [min(budget, cap) for cap in cspec.memory_vector()]
        if budget
        else list(cspec.memory_vector())
    )
    tuner = ProfilingTuner(profiler, limits)
    outcome = tuner.tune(n_candidates=list(range(1, args.max_pipelines + 1)))
    rows = [
        ["hetero variant", args.hetero],
        ["device speeds", str(cspec.speed_vector())],
        ["partition", str(partition.boundaries)],
        ["placement (stage -> device)", str(placement)],
        ["micro-batches (M)", outcome.m],
        ["parallel pipelines (N)", outcome.n],
        ["tuning cost (sim s)", round(outcome.tuning_cost, 3)],
        ["time per batch (ms)",
         round(outcome.measured_batch_time / max(outcome.n, 1) * 1e3, 2)],
    ]
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=f"AvgPipe hetero plan — {args.workload} on {args.hetero}",
        )
    )
    return 0


def _cmd_baselines(args: argparse.Namespace) -> int:
    from repro.experiments import avgpipe_matched_to, run_all_baselines
    from repro.utils import format_table

    rows = []
    for run in run_all_baselines(args.workload, iterations=args.iterations):
        rows.append([
            run.display,
            run.num_micro if run.num_micro is not None else "-",
            "OOM" if run.oom else round(run.time_per_batch * 1e3, 1),
            "OOM" if run.oom else round(run.peak_memory / MIB, 1),
            "-" if run.oom else round(run.result.avg_utilization, 2),
        ])
    matched = avgpipe_matched_to(args.workload, args.match)
    note = f" (budget x{matched.budget_relaxation:.2f})" if matched.budget_relaxation > 1 else ""
    rows.append([
        f"{matched.variant} M={matched.num_micro} N={matched.num_pipelines}{note}",
        matched.num_micro,
        round(matched.time_per_batch * 1e3, 1),
        round(matched.peak_memory / MIB, 1),
        round(matched.result.avg_utilization, 2),
    ])
    print(
        format_table(
            ["system", "M", "ms/batch", "peak MiB", "avg util"],
            rows,
            title=f"Baselines vs AvgPipe — {args.workload}",
        )
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.core import AvgPipe

    system = AvgPipe(args.workload)
    plan = system.plan(n_candidates=list(range(1, args.max_pipelines + 1)))
    trainer = system.trainer(plan, seed=args.seed, max_epochs=args.epochs)
    print(
        f"Training {args.workload} with N={plan.num_pipelines} parallel pipelines "
        f"(target: {system.spec.metric_name} {'>=' if system.spec.metric_mode == 'max' else '<='} "
        f"{system.spec.target})"
    )
    result = trainer.train()
    for epoch, metric in enumerate(result.metric_history):
        print(f"  epoch {epoch + 1}: {system.spec.metric_name} = {metric:.3f}")
    status = "reached" if result.reached_target else "did not reach"
    print(f"{status} the target in {result.epochs_run} epochs")
    return 0 if result.reached_target else 1


def _cmd_figure(args: argparse.Namespace) -> int:
    import repro.experiments as exp

    registry = {
        "fig02": exp.run_fig02,
        "fig07": exp.run_fig07,
        "fig11": exp.run_fig11,
        "fig12": exp.run_fig12,
        "fig13": exp.run_fig13,
        "fig14": exp.run_fig14,
        "fig15": exp.run_fig15,
        "fig16": exp.run_fig16,
        "fig17": exp.run_fig17,
        "fig18": exp.run_fig18,
        "fig19": exp.run_fig19,
        "hetero": exp.run_hetero,
    }
    if args.name not in registry:
        print(f"unknown figure {args.name!r}; available: {', '.join(sorted(registry))}")
        return 2
    data = registry[args.name]()
    _print_figure(args.name, data)
    return 0


def _print_figure(name: str, data) -> None:
    """Best-effort plain rendering of a figure harness result."""
    from dataclasses import asdict, is_dataclass

    from repro.utils import format_table

    rows = data.get("rows") if isinstance(data, dict) else None
    if rows and is_dataclass(rows[0]):
        dicts = [asdict(r) for r in rows]
        headers = [k for k in dicts[0] if not isinstance(dicts[0][k], (tuple, list, str)) or k in ("workload", "system", "schedule", "method", "note", "variant", "strategy", "boundaries", "placement")]
        table = [[d.get(h, "") for h in headers] for d in dicts]
        print(format_table(headers, table, title=name))
    else:
        import pprint

        pprint.pprint(data)
    for key, value in (data.items() if isinstance(data, dict) else []):
        if key != "rows" and isinstance(value, (int, float)):
            print(f"{key}: {value:.3f}")


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.core.simcfg import calibration_for
    from repro.schedules import schedule_by_name

    cal = calibration_for(args.workload)
    profiler = cal.profiler(
        schedule_by_name(args.schedule, advance=args.advance),
        activation_recompute=args.recompute,
    )
    result = profiler.run_setting(args.micro, args.pipelines, iterations=1, render_timeline=True)
    if result.oom is not None:
        print(f"OOM: {result.oom}")
        return 1
    print(result.timeline)
    print(f"\niteration time: {result.batch_time * 1e3:.1f} ms; "
          f"peak memory: {max(result.peak_memory) / MIB:.1f} MiB")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Run the verification subsystem: sanitizer, oracle, fuzzer."""
    from repro.verify import (
        AXES,
        VERIFIED_SCHEDULES,
        check_schedule,
        corrupt_schedule,
        inject_causality_case,
        run_axis,
        run_differential_sweep,
    )

    failures = 0

    # ---- schedule sanitizer -------------------------------------------- #
    grid = [(2, 2), (2, 4), (3, 6), (4, 8)] if not args.quick else [(2, 4), (4, 8)]
    lint_checked = 0
    for name, factory in VERIFIED_SCHEDULES.items():
        schedule = factory()
        if args.inject in ("swapped-bwd", "dropped-bwd", "dup-fwd", "cross-deadlock"):
            schedule = corrupt_schedule(schedule, args.inject)
        for num_stages, num_micro in grid:
            violations = check_schedule(schedule, num_stages, num_micro)
            lint_checked += 1
            for v in violations:
                failures += 1
                print(f"SANITIZER {name} K={num_stages} M={num_micro}: {v}")
    print(f"sanitizer: {lint_checked} (schedule, K, M) combinations linted")

    # ---- differential oracle ------------------------------------------- #
    if args.quick:
        reports = run_differential_sweep(
            stages=(2, 3), micros=(2, 4), pipelines=(1, 2), seed=args.seed
        )
    else:
        reports = run_differential_sweep(seed=args.seed)
    worst = max(r.worst() for r in reports)
    for r in reports:
        if not r.ok(args.tol):
            failures += 1
            print(f"ORACLE diverged beyond {args.tol}: {r}")
    print(f"oracle: {len(reports)} differential checks, worst |delta| = {worst:.3g}")

    # ---- fuzz axes: one draw -> audit loop ---------------------------- #
    for axis in AXES:
        count = getattr(args, axis.name.replace("-", "_"))
        if count is None:
            count = axis.quick if args.quick else axis.full
        if count <= 0:
            continue
        findings = run_axis(axis, count, seed=args.seed)
        for f in findings:
            for p in f.problems:
                failures += 1
                print(f"{axis.name.upper()} {f.config.describe()}: {p}")
        print(f"{axis.name}: {axis.summarize(findings)}")

    if args.inject == "causality":
        note, finding = inject_causality_case(seed=args.seed)
        print("inject:", note)
        for p in finding.problems:
            failures += 1
            print(f"CAUSALITY {finding.config.describe()}: {p}")

    if failures:
        print(f"verify: FAILED with {failures} violation(s)")
        return 1
    print("verify: all checks passed")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run one seeded fault scenario end to end and print the report."""
    from repro.resilience import SCENARIOS, run_scenario

    if args.list:
        for name, scenario in sorted(SCENARIOS.items()):
            print(f"{name:12s} {scenario.description}")
        return 0
    report = run_scenario(args.scenario, seed=args.seed, recovery=not args.no_recovery)
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2, default=float))
    else:
        print(report.render())
    return 0 if report.recovered else 1


def _cmd_sched(args: argparse.Namespace) -> int:
    """Multi-job scheduler: run a canned scenario under one policy and
    compare against the static FIFO baseline."""
    from repro.sched import (
        SCHED_SCENARIOS,
        SchedVerdict,
        crosscheck_result,
        render_report,
        run_scenario,
    )

    if args.list:
        for name, scenario in sorted(SCHED_SCENARIOS.items()):
            devices = scenario.nodes * scenario.gpus_per_node
            print(f"{name:8s} {devices:2d} devices, {scenario.num_jobs:2d} jobs  "
                  f"{scenario.description}")
        return 0

    candidate = run_scenario(args.scenario, args.policy, seed=args.seed)
    if args.policy == "fifo" or args.no_baseline:
        baseline = candidate
    else:
        baseline = run_scenario(args.scenario, "fifo", seed=args.seed)
    crosschecks = []
    if not args.no_crosscheck:
        crosschecks = crosscheck_result(candidate, seed=args.seed)
    verdict = SchedVerdict(
        baseline=baseline, candidate=candidate, crosschecks=crosschecks
    )

    if args.json:
        import json

        print(json.dumps(verdict.to_dict(), indent=2, default=float))
    else:
        print(render_report(verdict))
    if args.out:
        import json
        import os

        os.makedirs(args.out, exist_ok=True)
        log_path = os.path.join(args.out, f"sched_{args.scenario}_{args.policy}.log")
        with open(log_path, "w") as fh:
            fh.write(candidate.log_text() + "\n")
        with open(os.path.join(args.out, "sched_verdict.json"), "w") as fh:
            json.dump(verdict.to_dict(), fh, indent=2, default=float)
        print(f"\nwrote {log_path}, sched_verdict.json")
    if baseline is candidate:
        # no comparison requested: succeed if the run itself was healthy
        return 0 if all(c.ok for c in crosschecks) else 1
    return 0 if verdict.passed else 1


def _cmd_report(args: argparse.Namespace) -> int:
    """Instrumented short run: metrics + Chrome trace + run report."""
    import os

    from repro.obs import build_run_report

    report, exporter = build_run_report(
        workload=args.workload,
        baseline=args.baseline,
        iterations=args.iterations,
        seed=args.seed,
        train_epochs=0 if args.no_train else args.train_epochs,
    )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        trace_path = os.path.join(args.out, "trace.json")
        exporter.write(trace_path)
        with open(os.path.join(args.out, "run_report.json"), "w") as fh:
            fh.write(report.to_json())
        with open(os.path.join(args.out, "run_report.md"), "w") as fh:
            fh.write(report.to_markdown())
        print(f"wrote {trace_path} ({report.trace_events} events), "
              f"run_report.json, run_report.md")
        print()
    print(report.to_markdown())
    print(exporter.device_summary())
    if not report.eq1_match:
        print("report: Eq.-1 registry decomposition DIVERGES from the trace recorder")
        return 1
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    """Print the calibration matrix; publish calibrate.* gauges."""
    from repro.core.calibrate import (
        calibration_with_overrides,
        render_calibration,
        run_calibration,
    )
    from repro.core.simcfg import SIM_CALIBRATIONS
    from repro.obs import MetricRegistry

    workloads = [args.workload] if args.workload else sorted(SIM_CALIBRATIONS)
    registry = MetricRegistry()
    for name in workloads:
        cal = calibration_with_overrides(
            name,
            activation_byte_scale=args.act_scale,
            param_byte_scale=args.param_scale,
            memory_capacity_mib=args.cap_mib,
        )
        rows = run_calibration(cal, registry=registry)
        print(render_calibration(cal, rows))
        print()
    if args.json:
        import json

        print(json.dumps(registry.snapshot(), indent=1, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="tune and simulate AvgPipe on a workload")
    p.add_argument("workload", choices=["gnmt", "bert", "awd"])
    p.add_argument("--memory-mib", type=float, default=None, help="memory budget per device")
    p.add_argument("--max-pipelines", type=int, default=4)
    p.add_argument("--iterations", type=int, default=3)
    p.add_argument("--timeline", action="store_true", help="render the ASCII timeline")
    p.add_argument("--hetero", default=None, metavar="VARIANT",
                   choices=["mixed-gen", "straggler-node", "asym-links"],
                   help="plan against a canned heterogeneous cluster variant "
                        "(balanced partition + placement search)")
    p.set_defaults(fn=_cmd_plan)

    p = sub.add_parser("baselines", help="simulate the paper's five baselines")
    p.add_argument("workload", choices=["gnmt", "bert", "awd"])
    p.add_argument("--match", default="gpipe", choices=["pytorch", "gpipe", "pipedream", "pipedream-2bw", "dapple"],
                   help="which baseline AvgPipe's memory budget is matched to")
    p.add_argument("--iterations", type=int, default=3)
    p.set_defaults(fn=_cmd_baselines)

    p = sub.add_parser("train", help="real elastic-averaging training")
    p.add_argument("workload", choices=["gnmt", "bert", "awd"])
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-pipelines", type=int, default=3)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("figure", help="regenerate one paper figure")
    p.add_argument("name", help="fig02, fig07, fig11..fig19, hetero")
    p.set_defaults(fn=_cmd_figure)

    p = sub.add_parser("timeline", help="render a schedule timeline")
    p.add_argument("--workload", default="bert", choices=["gnmt", "bert", "awd"])
    p.add_argument("--schedule", default="advance_fp",
                   choices=["afab", "gpipe", "1f1b", "dapple", "2bw", "advance_fp", "pipedream"])
    p.add_argument("--advance", type=int, default=2)
    p.add_argument("--micro", type=int, default=8)
    p.add_argument("--pipelines", type=int, default=1)
    p.add_argument("--recompute", action="store_true",
                   help="enable activation recomputation (GPipe re-materialization)")
    p.set_defaults(fn=_cmd_timeline)

    p = sub.add_parser("verify", help="differential oracle + schedule sanitizer + sim fuzzer")
    p.add_argument("--fuzz", type=int, default=25, help="number of fuzzed simulator configs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9,
                   help="max tolerated |delta| between pipeline and oracle")
    p.add_argument("--quick", action="store_true", help="reduced sweep for CI smoke runs")
    p.add_argument("--sched-fuzz", type=int, default=None, metavar="N",
                   help="number of fuzzed multi-job scheduler clusters "
                        "(default: 9, or 3 with --quick; 0 disables)")
    p.add_argument("--inject", default="none",
                   choices=["none", "swapped-bwd", "dropped-bwd", "dup-fwd",
                            "cross-deadlock", "causality"],
                   help="deliberately corrupt a schedule or trace; verify must then fail")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("chaos", help="seeded fault injection + recovery scenarios")
    p.add_argument("--scenario", default="smoke",
                   choices=["smoke", "blackout", "straggler", "partition"],
                   help="named fault scenario (see --list)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-recovery", action="store_true",
                   help="disable recovery policies; a detected failure then "
                        "stays unrecovered and the exit code is non-zero")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.add_argument("--list", action="store_true", help="list scenarios and exit")
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser("sched", help="multi-job elastic scheduler vs static FIFO")
    p.add_argument("--scenario", default="smoke",
                   choices=["smoke", "rush", "hetero"],
                   help="canned seeded arrival scenario (see --list)")
    p.add_argument("--policy", default="fair",
                   choices=["fifo", "priority", "fair"],
                   help="scheduling policy for the candidate run")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-baseline", action="store_true",
                   help="skip the static FIFO comparison run")
    p.add_argument("--no-crosscheck", action="store_true",
                   help="skip the real-trainer elastic-oracle numerics replay")
    p.add_argument("--json", action="store_true", help="emit the verdict as JSON")
    p.add_argument("--out", default=None,
                   help="directory for the event log + sched_verdict.json")
    p.add_argument("--list", action="store_true", help="list scenarios and exit")
    p.set_defaults(fn=_cmd_sched)

    p = sub.add_parser("report", help="instrumented run: metrics, Chrome trace, run report")
    p.add_argument("--workload", default="bert", choices=["gnmt", "bert", "awd"])
    p.add_argument("--baseline", default="gpipe",
                   choices=["gpipe", "pipedream", "pipedream-2bw", "dapple"],
                   help="which pipelined baseline to instrument (fig02 config)")
    p.add_argument("--iterations", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-epochs", type=int, default=1,
                   help="epochs for the real-numerics telemetry phase")
    p.add_argument("--no-train", action="store_true",
                   help="skip the numerics phase (simulation telemetry only)")
    p.add_argument("--out", default=None,
                   help="directory for trace.json / run_report.{json,md}")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("calibrate",
                       help="baseline/AvgPipe calibration matrix + calibrate.* gauges")
    p.add_argument("workload", nargs="?", default=None,
                   choices=["gnmt", "bert", "awd"],
                   help="one workload (default: all)")
    p.add_argument("--act-scale", type=float, default=None,
                   help="override activation_byte_scale")
    p.add_argument("--param-scale", type=float, default=None,
                   help="override param_byte_scale")
    p.add_argument("--cap-mib", type=float, default=None,
                   help="override per-device memory capacity (MiB)")
    p.add_argument("--json", action="store_true",
                   help="also dump the calibrate.* gauge snapshot as JSON")
    p.set_defaults(fn=_cmd_calibrate)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
