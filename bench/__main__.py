"""Command line of the benchmark.

One run, the way the driver calls it (last line of stdout is the result)::

    python3 -m bench --workload serve_mixed --seed 42 --seconds 20 --trace 0

A full set — every workload in a fresh child process, ``--repeats``
(default 5) untraced runs for the end-to-end numbers and one traced run
for the per-layer numbers — written as one JSON::

    python3 -m bench                      # -> bench/out/set-<stamp>.json
    python3 -m bench --trace              # traced runs only: where a second goes
    python3 -m bench --compare A.json B.json
    python3 -m bench --self-check         # two sets back to back, compared
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None, help="timed-region budget")
    parser.add_argument(
        "--trace",
        nargs="?",
        type=int,
        const=1,
        default=0,
        choices=(0, 1),
        help="1 = traced run (per-layer metrics); bare --trace means 1",
    )
    parser.add_argument("--repeats", type=int, default=5, help="untraced runs per workload")
    parser.add_argument("--out", help="where a full set is written")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--self-check", action="store_true")
    # Plumbing between a full set and its child processes.
    parser.add_argument("--record", help=argparse.SUPPRESS)
    parser.add_argument("--untraced-wall", type=float, default=None, help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"bench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from bench import compare, suite
    from bench.runner import load_contract

    contract = load_contract()
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    if args.compare:
        return compare.main(args.compare[0], args.compare[1], contract)
    if args.self_check:
        return suite.self_check(args.seed, seconds, args.repeats, contract)
    if args.workload is None:
        return suite.main(
            args.seed, seconds, args.repeats, contract, args.out, traced_only=bool(args.trace)
        )
    known = [w["name"] for w in contract["workloads"]]
    if args.workload not in known:
        print(f"bench: unknown workload {args.workload!r}; one of {known}", file=sys.stderr)
        return 2
    return suite.single(
        args.workload, args.seed, seconds, bool(args.trace), args.record, args.untraced_wall
    )


if __name__ == "__main__":
    sys.exit(main())
