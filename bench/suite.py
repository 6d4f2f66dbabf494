"""Single runs, full sets of runs, and the tables they print."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench.runner import OUT_DIR, ROOT, driver_line, run_once
from bench.stats import quartiles

SET_SCHEMA = 1


# ----------------------------------------------------------------------
# One run in this process (what the driver invokes)
# ----------------------------------------------------------------------
def single(name, seed, seconds, trace, record_path, untraced_wall_s) -> int:
    record = run_once(name, seed, seconds, trace, untraced_wall_s)
    print_record(record)
    if record_path:
        Path(record_path).write_text(json.dumps(record))
    # Last line of stdout: the result object the driver parses.
    print(driver_line(record), flush=True)
    return 0 if record["correct"] else 1


def print_record(record: dict) -> None:
    kind = "traced" if record["traced"] else "untraced"
    print(
        f"# {record['workload']} seed={record['seed']} seconds={record['seconds']:g} "
        f"({kind}) timed wall {record['wall_s']:.3f} s"
    )
    for key, value in record["inputs"].items():
        print(f"#   input {key} = {value}")
    native = set(record.get("native", ()))
    for name, entry in record["metrics"].items():
        note = ""
        if not record["traced"]:
            n = record["samples"].get(name)
            note = f"  n={n}" if n else ""
            if name not in native:
                note = "  (not exercised here: stand-in, see README)"
        print(f"{name:32s} {entry['value']:>16.6g} {entry['unit']}{note}")
    if record["traced"]:
        print_layer_table(record)
    print(
        f"# attempted {record['attempted']}, failed {record['failed']}, "
        f"correct {record['correct']}"
    )
    for problem in record["problems"]:
        print(f"# GATE FAILED: {problem}")


def print_layer_table(record: dict) -> None:
    wall = record["wall_s"]
    print(f"# where a second goes — {record['workload']} (self time per layer)")
    for layer, seconds in sorted(record["layer_seconds"].items(), key=lambda kv: -kv[1]):
        print(f"#   {layer:14s} {seconds:9.3f} s  {100 * seconds / wall:6.2f} %")
    print(
        f"#   {'sum':14s} {sum(record['layer_seconds'].values()):9.3f} s  "
        f"{100 * record['layer_sum_over_wall']:6.2f} % of the timed wall "
        f"({record['spans']} spans)"
    )
    for label, table in record["layer_split"].items():
        total = sum(table.values())
        if not total:
            continue
        shares = ", ".join(
            f"{layer} {100 * s / total:.1f} %"
            for layer, s in sorted(table.items(), key=lambda kv: -kv[1])
        )
        print(f"#   bursts {label.replace('_', ' ')}: {total:.3f} s — {shares}")


# ----------------------------------------------------------------------
# A full set: every workload, fresh child process per run
# ----------------------------------------------------------------------
def _child(name, seed, seconds, trace, untraced_wall_s=None) -> dict:
    """Run one workload in a fresh interpreter; returns its record."""
    OUT_DIR.mkdir(exist_ok=True)
    fd, path = tempfile.mkstemp(prefix="record-", suffix=".json", dir=OUT_DIR)
    os.close(fd)
    command = [
        sys.executable, "-m", "bench",
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(int(trace)),
        "--record", path,
    ]
    if untraced_wall_s is not None:
        command += ["--untraced-wall", repr(untraced_wall_s)]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        text = Path(path).read_text()
        if not text:
            raise RuntimeError(
                f"{name}: child exited {done.returncode} without a record\n{done.stderr}"
            )
        return json.loads(text)
    finally:
        os.unlink(path)


def run_set(seed, seconds, repeats, contract, traced_only=False) -> dict:
    """One set of runs: ``repeats`` untraced + one traced per workload."""
    bounds = {m["name"]: m for m in contract["end_to_end"]}
    result = {
        "schema": SET_SCHEMA,
        "seed": seed,
        "seconds": seconds,
        "repeats": repeats,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "cpus": os.cpu_count(),
        "workloads": {},
    }
    for spec in contract["workloads"]:
        name = spec["name"]
        runs = []
        if not traced_only:
            for i in range(repeats):
                print(f"[{name}] untraced run {i + 1}/{repeats} ...", flush=True)
                runs.append(_child(name, seed, seconds, trace=False))
        walls = [r["wall_s"] for r in runs]
        untraced_wall = quartiles(walls)[1] if walls else None
        print(f"[{name}] traced run ...", flush=True)
        traced = _child(name, seed, seconds, trace=True, untraced_wall_s=untraced_wall)
        print_layer_table(traced)
        every = runs + [traced]
        entry = {
            "inputs": every[0]["inputs"],
            "correct": all(r["correct"] for r in every),
            "problems": [p for r in every for p in r["problems"]],
            "attempted": every[0]["attempted"],
            "failed": max(r["failed"] for r in every),
            "samples": runs[0]["samples"] if runs else {},
            "end_to_end": {},
            "per_layer": traced["metrics"],
            "layer_seconds": traced["layer_seconds"],
            "layer_sum_over_wall": traced["layer_sum_over_wall"],
            "layer_split": traced["layer_split"],
            "traced_wall_s": traced["wall_s"],
            "untraced_wall_s": untraced_wall,
        }
        if any(r["inputs"] != every[0]["inputs"] for r in every):
            entry["correct"] = False
            entry["problems"].append("repeats did not see the same generated inputs")
        for metric in (runs[0]["native"] if runs else ()):
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            entry["end_to_end"][metric] = {
                "unit": bounds[metric]["unit"],
                "values": values,
                "q1": q1,
                "median": med,
                "q3": q3,
                "n": entry["samples"].get(metric),
            }
        result["workloads"][name] = entry
    return result


def print_set(result: dict) -> None:
    print(
        f"\n== set of {result['repeats']} untraced + 1 traced run per workload, "
        f"seed {result['seed']}, {result['seconds']:g} s =="
    )
    for name, entry in result["workloads"].items():
        print(f"\n{name}  (inputs {entry['inputs']})")
        for metric, e in entry["end_to_end"].items():
            n = f"  n={e['n']}" if e["n"] else ""
            print(
                f"  {metric:22s} {e['median']:>14.6g} {e['unit']:6s}"
                f" [q1 {e['q1']:.6g}, q3 {e['q3']:.6g}] over {len(e['values'])} runs{n}"
            )
        for metric, e in entry["per_layer"].items():
            print(f"  {metric:32s} {e['value']:>14.6g} {e['unit']}")
        print(
            f"  attempted {entry['attempted']}, failed {entry['failed']}, "
            f"correct {entry['correct']}"
        )
        for problem in entry["problems"]:
            print(f"  GATE FAILED: {problem}")


def main(seed, seconds, repeats, contract, out, traced_only=False) -> int:
    result = run_set(seed, seconds, repeats, contract, traced_only)
    print_set(result)
    path = Path(out) if out else OUT_DIR / f"set-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1))
    print(f"\nwrote {path}")
    return 0 if all(e["correct"] for e in result["workloads"].values()) else 1


def self_check(seed, seconds, repeats, contract) -> int:
    """Two full sets of the same commit must agree within the bounds."""
    from bench import compare

    sets = []
    for label in ("first", "second"):
        print(f"== self-check: {label} set ==", flush=True)
        result = run_set(seed, seconds, repeats, contract)
        path = OUT_DIR / f"self-check-{label}.json"
        path.write_text(json.dumps(result, indent=1))
        sets.append(result)
    return compare.report(sets[0], sets[1], contract, strict=True)
