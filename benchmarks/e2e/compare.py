#!/usr/bin/env python3
"""Compare two benchmark series, or check one series' spread.

    python3 benchmarks/e2e/compare.py A.json [B.json]

Series files come from ``series.py``.  For every workload and end-to-end
metric this prints the median and quartiles (``statistics.quantiles``
with n=4) and the bound from BENCHMARK.json.

With one file the verdict is ``steady`` when the quartile distance is
within a third of the bound, ``ok`` within the bound, else
``unresolved``.  With two, B is judged against A: ``unresolved`` when
either side's quartile distance exceeds the bound, ``regressed`` when
B's median is worse than A's by more than the bound, else ``ok``.
``setup_s`` is judged on its median alone: its spread is the start-up
noise of fresh interpreters, which the benchmark does not gate.  The
exit status is 1 when any row is neither ``ok`` nor ``steady``.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
UNGATED_SPREAD = ("setup_s",)


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def worsening(a: float, b: float, better: str) -> float:
    """How much worse b is than a, as a share of a (negative = better)."""
    change = (b - a) / a
    return change if better == "lower" else -change


def rows(a: dict, b: dict | None, metrics: list[dict]) -> list[list[str]]:
    out = []
    for workload, entry in a["workloads"].items():
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            gated = name not in UNGATED_SPREAD
            med_a, q1_a, q3_a, spread_a = summary([r["metrics"][name] for r in entry["runs"]])
            if b is None:
                verdict = ("steady" if spread_a <= bound / 3
                           else "ok" if spread_a <= bound or not gated else "unresolved")
                out.append([workload, name, f"{med_a:.5g}", f"[{q1_a:.5g}, {q3_a:.5g}]",
                            f"{100 * spread_a:.1f}%", f"{100 * bound:.0f}%", verdict])
                continue
            runs_b = b["workloads"][workload]["runs"]
            med_b, q1_b, q3_b, spread_b = summary([r["metrics"][name] for r in runs_b])
            change = worsening(med_a, med_b, metric["better"])
            if gated and max(spread_a, spread_b) > bound:
                verdict = "unresolved"
            elif change > bound:
                verdict = "regressed"
            else:
                verdict = "ok"
            out.append([workload, name, f"{med_a:.5g}", f"{med_b:.5g}", f"[{q1_b:.5g}, {q3_b:.5g}]",
                        f"{100 * spread_a:.1f}%/{100 * spread_b:.1f}%", f"{100 * change:+.1f}%",
                        f"{100 * bound:.0f}%", verdict])
    return out


def render(header: list[str], table: list[list[str]]) -> str:
    widths = [max(len(row[i]) for row in [header] + table) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in [header] + table]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    a = json.loads(pathlib.Path(argv[0]).read_text())
    b = json.loads(pathlib.Path(argv[1]).read_text()) if len(argv) == 2 else None
    table = rows(a, b, config["end_to_end"])
    if b is None:
        header = ["workload", "metric", "median", "[q1, q3]", "spread", "bound", "verdict"]
    else:
        header = ["workload", "metric", "median A", "median B", "B [q1, q3]",
                  "spread A/B", "change", "bound", "verdict"]
    print(render(header, table))
    return 0 if all(row[-1] in ("ok", "steady") for row in table) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
