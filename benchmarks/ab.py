#!/usr/bin/env python3
"""Paired A/B of one end-to-end workload: a reference commit against the
working tree, on this machine.

    python3 benchmarks/ab.py --workload W [--ref REF] [--pairs 10] [--seed 0]

Run from inside the repository.  Side A is REF (default ``HEAD``),
exported with ``git archive``; side B is the working tree's tracked files
as they are on disk.  Both are copied into one temporary directory, so
neither runs from a checkout with an older history of caches.  Each side
runs its own ``benchmarks/e2e/run.py --workload W --seed S`` for the
``run_seconds`` of the working tree's BENCHMARK.json (the same for both
sides), in ABBA order: pair i runs A first when i is
even and B first when it is odd, so slow drift of the machine falls on
both sides alike.

For every end-to-end metric it prints each side's median and quartiles,
how many pairs B won (ties count for neither side), the median per-pair
ratio B/A with a bootstrap 95% interval, and a verdict by the rule for
claiming a gain in a small sandbox: B wins at least nine tenths of the
pairs and the medians differ by more than the distance between A's
quartiles.  ``loss`` is the same rule with A winning; anything else is
``no claim``.  Each run's user + sys CPU seconds (its process
tree, from ``RUSAGE_CHILDREN``) and its correctness line are listed
below the table.  The exit status is 1 when a run fails its checks.
"""

from __future__ import annotations

import argparse
import io
import json
import pathlib
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
if __package__ in (None, ""):  # run as a script
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e.compare import render, summary  # noqa: E402

#: Share of pairs the winning side must take (choosing-metrics, section 8).
WIN_SHARE = 0.9
BOOTSTRAP_RESAMPLES = 10_000


def run_order(pairs: int) -> list[tuple[int, str]]:
    """(pair, side) in the order the runs happen: A B, B A, A B, ..."""
    order = []
    for i in range(pairs):
        order += [(i, "A"), (i, "B")] if i % 2 == 0 else [(i, "B"), (i, "A")]
    return order


def wins(a: list[float], b: list[float], better: str) -> tuple[int, int]:
    """Pairs won by (A, B); a tie counts for neither."""
    b_better = sum((y < x) if better == "lower" else (y > x) for x, y in zip(a, b))
    a_better = sum((x < y) if better == "lower" else (x > y) for x, y in zip(a, b))
    return a_better, b_better


def bootstrap_ratio(a: list[float], b: list[float], resamples: int = BOOTSTRAP_RESAMPLES,
                    seed: int = 0) -> tuple[float, float, float]:
    """Median of the per-pair ratios b/a, and the 2.5th and 97.5th
    percentiles of that median over pairs resampled with replacement."""
    ratios = [y / x for x, y in zip(a, b)]
    rng = random.Random(seed)
    medians = sorted(
        statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(resamples)
    )
    lo = medians[int(0.025 * (resamples - 1))]
    hi = medians[int(0.975 * (resamples - 1))]
    return statistics.median(ratios), lo, hi


def verdict(a: list[float], b: list[float], better: str) -> str:
    """``gain`` when B wins at least WIN_SHARE of the pairs and the medians
    differ, in B's favour, by more than A's quartile distance; ``loss``
    for the same with A winning; else ``no claim``."""
    a_wins, b_wins = wins(a, b, better)
    med_a, q1_a, q3_a, _ = summary(a)
    med_b = statistics.median(b)
    if abs(med_b - med_a) <= q3_a - q1_a:
        return "no claim"
    b_ahead = med_b < med_a if better == "lower" else med_b > med_a
    if b_ahead and b_wins >= WIN_SHARE * len(a):
        return "gain"
    if not b_ahead and a_wins >= WIN_SHARE * len(a):
        return "loss"
    return "no claim"


def report(runs: dict[str, list[dict]], metrics: list[dict]) -> str:
    """The per-metric table for the runs of sides A and B, pair by pair."""
    table = []
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        a = [r["metrics"][name]["value"] for r in runs["A"]]
        b = [r["metrics"][name]["value"] for r in runs["B"]]
        med_a, q1_a, q3_a, _ = summary(a)
        med_b, q1_b, q3_b, _ = summary(b)
        ratio, lo, hi = bootstrap_ratio(a, b)
        table.append([
            name, f"{med_a:.5g} [{q1_a:.5g}, {q3_a:.5g}]", f"{med_b:.5g} [{q1_b:.5g}, {q3_b:.5g}]",
            f"{wins(a, b, better)[1]}/{len(a)}", f"{ratio:.4f} [{lo:.4f}, {hi:.4f}]",
            verdict(a, b, better),
        ])
    header = ["metric", "A median [q1, q3]", "B median [q1, q3]", "B wins", "B/A [95% CI]",
              "verdict"]
    return render(header, table)


# --------------------------------------------------------------------- #
# copies and runs


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def copy_ref(ref: str, dest: pathlib.Path) -> None:
    """Export commit ``ref`` into ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", ref))) as tar:
        tar.extractall(dest, filter="data")


def copy_worktree(dest: pathlib.Path) -> None:
    """Copy the working tree's tracked files, as they are on disk."""
    for name in _git("ls-files", "-z").decode().split("\0"):
        src = ROOT / name
        if name and src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_once(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py`` run in ``tree``: its result line plus ``cpu_s``."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--out", str(tree / "out")],
        cwd=tree, capture_output=True, text=True,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise SystemExit(f"run.py in {tree} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["cpu_s"] = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--ref", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {"A": pathlib.Path(tmp, "A"), "B": pathlib.Path(tmp, "B")}
        copy_ref(args.ref, trees["A"])
        copy_worktree(trees["B"])
        runs: dict[str, list[dict]] = {"A": [None] * args.pairs, "B": [None] * args.pairs}
        for pair, side in run_order(args.pairs):
            runs[side][pair] = run_once(trees[side], args.workload, args.seed, seconds)
            print(f"pair {pair} {side}: {runs[side][pair]['metrics']['pass_s']['value']:.4f} s",
                  file=sys.stderr, flush=True)

    ref = _git("rev-parse", "--short", args.ref).decode().strip()
    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs in ABBA order, {seconds:g} s "
          f"per run; A = {args.ref} ({ref}), B = working tree")
    print(report(runs, config["end_to_end"]))
    print()
    names = [m["name"] for m in config["end_to_end"]]
    table = [
        [str(pair), side, *(f"{r['metrics'][n]['value']:.5g}" for n in names),
         f"{r['cpu_s']:.2f}", f"{r['correct']}/{r['failed']}"]
        for pair, side in run_order(args.pairs) for r in [runs[side][pair]]
    ]
    print(render(["pair", "side", *names, "cpu_s", "correct/failed"], table))
    ok = all(r["correct"] and not r["failed"] for side in runs.values() for r in side)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
