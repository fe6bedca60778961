"""Summarize the run records in .bench_out/ into one trajectory point.

    python3 perfbench/summarize.py > point.json

For each workload: the median over untraced runs of every end-to-end metric
and of the measured (unscaled) unit seconds; the median labels_per_s and
failed_frac over all their units; and the per-layer metrics of the traced
runs (median over runs). Add the printed point to trajectory.json, together
with the figures it replaces.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / ".bench_out"


def main():
    runs = defaultdict(lambda: {0: [], 1: []})
    env = None
    for path in sorted(OUT.glob("*-seed*-trace*.json")):
        record = json.loads(path.read_text())
        runs[record["workload"]][record["args"]["trace"]].append(record)
        env = env or record["env"]
    if env is None:
        sys.exit(f"no run records in {OUT}")
    point = {"env": {k: v for k, v in env.items() if k != "seed"}, "workloads": {}}
    for workload, by_trace in sorted(runs.items()):
        plain, traced = by_trace[0], by_trace[1]
        units = [u for r in plain for u in r["units"]]
        entry = {"runs": len(plain), "seeds": sorted(r["args"]["seed"] for r in plain),
                 "units": len(units)}
        if plain:
            for name in plain[0]["metrics"]:
                entry[name] = statistics.median(r["metrics"][name]["value"] for r in plain)
            entry["measured_wall_s"] = statistics.median(
                statistics.median(u["wall_s"] for u in r["units"] if "wall_s" in u) for r in plain)
        rates = [u["labels"] / u["wall_s"] for u in units if u.get("labels")]
        if rates:
            entry["labels_per_s"] = statistics.median(rates)
        entry["failed_frac"] = sum(bool(u.get("problems")) for u in units) / max(len(units), 1)
        if traced:
            entry["per_layer"] = {
                name: statistics.median(r["metrics"][name]["value"] for r in traced)
                for name in traced[0]["metrics"]
            }
        point["workloads"][workload] = entry
    json.dump(point, sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
