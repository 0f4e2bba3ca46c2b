"""Append one run set of perfbench results to the benchmark history.

perfbench (``perfbench/run.py``) prints one JSON object as the last line
of its output.  Save each run's output to a file, then append the set as
one line of ``benchmarks/history/perfbench.jsonl``::

    python3 benchmarks/history/append.py --commit d23613f --side parent \\
        --workload dashboard --seeds 101 runs/parent-dashboard-*.txt \\
        --traced runs/parent-dashboard-traced.txt

The line records the commit, the side of the comparison (``parent`` or
``change``; a change measured before it is committed gives its parent's
commit with ``--side change``), the workload, the seeds, the number of
runs, whether every run was correct, and for each end-to-end metric its
values, median and quartiles.  ``--traced`` adds the per-layer metrics
of one ``--trace 1`` run.  Standard library only; the history is never
rewritten.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List

HISTORY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "perfbench.jsonl")


def last_json(path: str) -> Dict:
    """The JSON object on the last non-empty line of *path*."""
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty output")
    return json.loads(lines[-1])


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median and inclusive quartiles (one value is its own quartiles)."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def entry(args: argparse.Namespace) -> Dict:
    runs = [last_json(path) for path in args.outputs]
    metrics: Dict[str, Dict] = {}
    for name in sorted({name for run in runs for name in run["metrics"]}):
        measured = [run["metrics"][name] for run in runs if name in run["metrics"]]
        values = [metric["value"] for metric in measured]
        metrics[name] = {"unit": measured[0]["unit"], "values": values, **quartiles(values)}
    line = {
        "commit": args.commit,
        "side": args.side,
        "workload": args.workload,
        "seeds": args.seeds,
        "seconds": args.seconds,
        "runs": len(runs),
        "correct": all(run["correct"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }
    if args.traced:
        traced = last_json(args.traced)
        line["per_layer"] = {
            name: metric["value"] for name, metric in sorted(traced["metrics"].items())
        }
    if args.note:
        line["note"] = args.note
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", required=True, help="commit the runs measured")
    parser.add_argument("--side", required=True, choices=("parent", "change"))
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seeds", required=True, type=lambda text: [int(s) for s in text.split(",")],
        help="comma-separated perfbench seeds of the runs",
    )
    parser.add_argument("--seconds", type=int, default=16, help="perfbench --seconds")
    parser.add_argument("--traced", help="output of one --trace 1 run")
    parser.add_argument("--note", help="free text, e.g. the host the runs used")
    parser.add_argument("--history", default=HISTORY, help="file to append to")
    parser.add_argument("outputs", nargs="+", help="saved outputs of --trace 0 runs")
    args = parser.parse_args(argv)
    line = entry(args)
    with open(args.history, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")
    print(
        f"appended {args.side} {args.workload}: {line['runs']} run(s), "
        f"correct={line['correct']}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
