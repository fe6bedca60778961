"""Self-test of the benchmark on tiny problem sizes.

    python3 perfbench/smoke.py

Checks that BENCHMARK.json is well formed and names the workloads and
metrics the code reports, that every workload's tiny unit (the ungated one's
too) passes its output checks untraced and traced, and that a corrupted
output (a wrong ledger count, a shifted estimate, a failed report) or a
raising unit is counted as a failure.
Exits 1 on the first failed check.
"""

import csv
import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

import run  # sets the thread environment and sys.path before numpy loads

import layertrace  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def require(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def check_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    require(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}, "BENCHMARK.json keys")
    require([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
            "BENCHMARK.json workloads match workloads.WORKLOADS")
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    require(len(names) == len(set(names)), "metric names are unique")
    for m in spec["end_to_end"] + spec["per_layer"]:
        require(NAME.match(m["name"]) is not None, f"metric name {m['name']!r}")
        require(UNIT.match(m["unit"]) is not None, f"unit {m['unit']!r}")
        require(m["better"] in ("lower", "higher"), f"better of {m['name']}")
    for m in spec["end_to_end"]:
        require(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    require(bounds["setup_s"] == max(bounds.values()), "setup_s has the largest bound")
    print("ok: BENCHMARK.json")
    return spec


def declared(spec, key):
    return {m["name"]: m["unit"] for m in spec[key]}


def reported(metrics):
    return {name: unit for name, (_, unit) in metrics.items()}


class Corrupted:
    """A workload whose outputs are altered between call() and collect()."""

    def __init__(self, wl, corrupt):
        self.wl = wl
        self.corrupt = corrupt
        self.speed_kernel = wl.speed_kernel

    def call(self, i):
        raw = self.wl.call(i)
        self.corrupt(raw)
        return raw

    def collect(self, i, raw):
        return self.wl.collect(i, raw)


def wrong_csv_ledger(raw):
    path = raw[1] / "results.csv"
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[0]["label_calls"] = str(int(rows[0]["label_calls"]) + 1)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def wrong_ledger(raw):
    raw[1].label_calls += 1


def shifted_estimate(raw):
    key = next(k for k in raw if k[1] == "excess")
    raw[key] += 0.1


def failed_report(raw):
    path = raw[1] / "verify_report.json"
    report = json.loads(path.read_text())
    report["passed"] = False
    path.write_text(json.dumps(report))


CORRUPTIONS = {
    "dense-learn-d10": wrong_csv_ledger,
    "dense-ladder-ball-d50": wrong_ledger,
    "sparse-epoch-d50": wrong_ledger,
    "estimators-d10": shifted_estimate,
    "verify-d10": failed_report,
}


class Raising:
    speed_kernel = "python"

    def call(self, i):
        raise FloatingPointError("deliberate")

    def collect(self, i, raw):
        raise AssertionError("unreachable")


def main():
    spec = check_benchmark_json()
    run.OUT.mkdir(exist_ok=True)
    for name, cls in (workloads.WORKLOADS | workloads.UNGATED).items():
        workdir = Path(tempfile.mkdtemp(prefix=f"smoke-{name}-", dir=run.OUT))
        try:
            wl = cls(tiny=True)
            tracer = layertrace.Tracer()
            tracer.install()
            with tracer.root("setup"):
                wl.prepare(0, workdir)
            setup_layers = tracer.snapshot()
            tracer.uninstall()
            untraced = run.measure(wl, 0)
            require(not untraced[0].get("problems"), f"{name}: {untraced[0].get('problems')}")
            tracer.install()
            try:
                traced = [run.run_unit(wl, 0, tracer)]
            finally:
                tracer.uninstall()
            require(not traced[0].get("problems"), f"{name} traced: {traced[0].get('problems')}")
            layers = run.per_layer(traced, untraced, 1.0, setup_layers)
            require(reported(layers) == declared(spec, "per_layer"),
                    f"{name}: per-layer metrics differ from BENCHMARK.json")
            share = layers["trace.layer_share"][0]
            require(0.5 < share <= 1.0, f"{name}: layers cover {share:.3f} of the traced unit")
            e2e = run.end_to_end(untraced, [1.0])
            require(reported(e2e) == declared(spec, "end_to_end"),
                    f"{name}: end-to-end metrics differ from BENCHMARK.json")
            require(all(value > 0 for value, _ in e2e.values()), f"{name}: a zero end-to-end metric")

            bad = run.measure(Corrupted(wl, CORRUPTIONS[name]), 0)
            require(len(bad) == 1 and bad[0].get("problems"),
                    f"{name}: corrupted output was not counted as failed")
            print(f"ok: {name} (unit {untraced[0]['wall_s']:.2f} s, layers cover {share:.3f}; "
                  f"corrupted output caught: {bad[0]['problems'][0][:60]})")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    raised = run.measure(Raising(), 0)
    require(raised[0].get("problems") and "wall_s" not in raised[0],
            "a raising unit was not counted as failed")
    print("ok: a raising unit counts as failed")
    print("smoke PASS")


if __name__ == "__main__":
    main()
