"""Summarize benchmark results across seeds.

Reads the ``result-<workload>-seed<n>-trace<t>.json`` files that ``run.py``
leaves in ``.bench_out/`` and prints, for every workload and metric, the
median, the quartiles and the spread (quartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives them), end-to-end metrics from
untraced runs and per-layer metrics from traced ones.  With ``--write PATH``
it also stores the summary as JSON, e.g. as a baseline for later comparisons:

    python3 bench/summarize.py --write bench/BENCH_seed.json
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent.parent / ".bench_out"


def summarize(trace: int) -> dict:
    summary = {}
    for path in sorted(OUT_DIR.glob(f"result-*-seed*-trace{trace}.json")):
        record = json.loads(path.read_text())
        entry = summary.setdefault(record["workload"], {"seeds": [], "failed": 0, "attempted": 0,
                                                        "digests": {}, "environment": record["environment"],
                                                        "values": {}})
        entry["seeds"].append(record["seed"])
        entry["failed"] += record["failed"]
        entry["attempted"] += record["attempted"]
        entry["digests"][str(record["seed"])] = record["digest"]
        for name, metric in record["metrics"].items():
            entry["values"].setdefault(name, {"unit": metric["unit"], "values": []})["values"].append(metric["value"])
    for entry in summary.values():
        entry["seeds"].sort()
        entry["metrics"] = {}
        for name, data in entry.pop("values").items():
            values = data["values"]
            med = statistics.median(values)
            row = {"unit": data["unit"], "median": med, "runs": len(values)}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                row.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
            entry["metrics"][name] = row
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", help="also write the summary as JSON to this path")
    args = parser.parse_args()
    summary = {"end_to_end": summarize(0), "per_layer": summarize(1)}
    for kind, workloads in summary.items():
        for workload, entry in workloads.items():
            print(f"{kind} {workload}: seeds {entry['seeds']}, failed {entry['failed']}/{entry['attempted']}")
            for name, row in entry["metrics"].items():
                spread = row.get("spread")
                spread_text = f"spread {spread:.3f}" if spread is not None else ""
                print(f"  {name:48s} median {row['median']:.6g} {row['unit']}  {spread_text}")
    if args.write:
        Path(args.write).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
