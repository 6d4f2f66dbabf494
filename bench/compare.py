"""``--compare A.json B.json``: is B worse than A by more than the bound?

One row per (workload, end-to-end metric the workload exercises) with
both medians and quartiles and the ratio B/A — its base, A, is named in
the header.  Verdicts:

* ``regressed`` — B's median is worse than A's by more than the
  metric's bound in ``BENCHMARK.json``;
* ``unresolved`` — not regressed, but the run-to-run spread (distance
  between the quartiles over the median) of either side is wider than
  the bound, so "no regression" cannot be told from noise: take more
  repeats, do not read it as unchanged;
* ``improved`` / ``unchanged`` — otherwise.

Outcome metrics (dollars, miss rate, edge cut, failed share) are pure
functions of the inputs: when both sets ran the same seed and size they
are held to 1e-9 instead of the bound.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Metrics that do not depend on the clock.
DETERMINISTIC = ("deadline_miss_rate", "user_cost_dollars", "edge_cut_ratio", "failed_share")
EXACT = 1e-9


def _spread(entry: dict) -> float:
    if entry["q3"] == entry["q1"]:
        return 0.0
    return abs(entry["q3"] - entry["q1"]) / abs(entry["median"])


def _show(cell: dict) -> str:
    return f"{cell['median']:.6g} [{cell['q1']:.6g}, {cell['q3']:.6g}]"


def judge(metric: dict, a: dict, b: dict, same_inputs: bool) -> tuple[str, float]:
    """Verdict and the ratio B/A for one (workload, metric) cell."""
    base, new = a["median"], b["median"]
    ratio = new / base if base else float("inf")
    worse = (new - base) if metric["better"] == "lower" else (base - new)
    relative = worse / abs(base) if base else float("inf")
    bound = metric["bound"]
    if same_inputs and metric["name"] in DETERMINISTIC:
        bound = EXACT
    if relative > bound:
        return "regressed", ratio
    if max(_spread(a), _spread(b)) > bound:
        return "unresolved", ratio
    if relative < -bound:
        return "improved", ratio
    return "unchanged", ratio


def report(a: dict, b: dict, contract: dict, strict: bool = False) -> int:
    """Print the comparison; returns the process exit code.

    *strict* (``--self-check``) also fails on ``unresolved``: two sets of
    one commit must agree within the benchmark's own bounds.
    """
    metrics = {m["name"]: m for m in contract["end_to_end"]}
    same_inputs = (a["seed"], a["seconds"]) == (b["seed"], b["seconds"])
    print(
        f"base A: seed {a['seed']}, {a['repeats']} runs, {a['started']}   "
        f"B: seed {b['seed']}, {b['repeats']} runs, {b['started']}"
    )
    header = (
        f"{'workload':18s} {'metric':20s} {'A median [q1, q3]':>36s} "
        f"{'B median [q1, q3]':>36s} {'B/A':>8s}  {'bound':>6s}  verdict"
    )
    print(header)
    bad = 0
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            print(f"{name:18s} missing from B")
            bad += 1
            continue
        for metric_name, cell_a in entry_a["end_to_end"].items():
            cell_b = entry_b["end_to_end"].get(metric_name)
            if cell_b is None or metric_name not in metrics:
                print(f"{name:18s} {metric_name:20s} missing from B or BENCHMARK.json")
                bad += 1
                continue
            verdict, ratio = judge(metrics[metric_name], cell_a, cell_b, same_inputs)
            if verdict == "regressed" or (strict and verdict == "unresolved"):
                bad += 1
            print(
                f"{name:18s} {metric_name:20s} {_show(cell_a):>36s} {_show(cell_b):>36s} "
                f"{ratio:8.4f}  {metrics[metric_name]['bound']:6.2f}  {verdict}"
            )
        if entry_b["failed"] > entry_a["failed"]:
            print(f"{name:18s} failed ops rose {entry_a['failed']} -> {entry_b['failed']}")
            bad += 1
        if not entry_b["correct"]:
            print(f"{name:18s} B failed a correctness gate: {entry_b['problems'][:3]}")
            bad += 1
        if same_inputs and entry_a["inputs"] != entry_b["inputs"]:
            print(f"{name:18s} same seed but different generated inputs")
            bad += 1
    print("ratios are B/A (base = A)")
    print("OK" if not bad else f"{bad} problem(s)")
    return 1 if bad else 0


def main(path_a: str, path_b: str, contract: dict) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    return report(a, b, contract)
