"""halfband benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory, never from an installed copy. A run times units of the
workload back to back until S seconds have passed (at least one unit), and
checks every unit's outputs. It prints a readable report, then as its last
line one JSON object with the keys correct, attempted, failed and metrics.

With --trace 0 the metrics are the end-to-end ones (tracing off):
  setup_s      median set-up time, in this process and in two fresh ones
  wall_s       median wall time per unit
  peak_rss_mb  peak resident memory of this process
Both times are in reference seconds: measured seconds rescaled by the host
CPU speed sampled while they ran (hostspeed.py), because the speed of a
shared host drifts by half within minutes. Each workload names the speed
kernel that tracks its units; on estimators-d10 it is none, and its
reference seconds are measured seconds. The report also gives the
measured seconds, labels_per_s (labels answered per measured second, from
the query ledger) on the learning workloads, and failed_frac.

With --trace 1 the run times untraced units for S/2 seconds, then the same
units again with timing shims installed (layertrace.py), and the metrics are
the per-layer ones: per unit, the calls and self time of each traced
function, module totals, and the tracing overhead. Spans and the full record
go to .bench_out/ in the checkout.
"""

import os

# one BLAS/OpenMP thread; must be set before numpy is first imported
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hostspeed  # noqa: E402
import layertrace  # noqa: E402  (neither imports the package)

SETUP_PROBES = 2  # fresh processes per run, besides this one


def git_revision():
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "halfband").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(seed):
    import numpy
    import scipy

    return {
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "threads": {key: os.environ.get(key) for key in THREAD_ENV},
    }


def probe_setup(name, seed, workdir):
    """Set-up reference seconds (import and prepare) measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), "--workload", name,
         "--seed", str(seed), "--workdir", str(workdir)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_unit(wl, i, tracer):
    """Time one unit (traced when tracer is given) and check its outputs."""
    record = {"unit": i, "traced": tracer is not None}
    try:
        if tracer is None:
            with hostspeed.HostSpeed(wl.speed_kernel) as speed:
                raw = wl.call(i)
        else:
            # the speed sampler's time (about 0.5%) lands in whichever span it interrupts
            before = tracer.snapshot()
            with hostspeed.HostSpeed(wl.speed_kernel) as speed, tracer.root("unit") as root:
                raw = wl.call(i)
            record["unattributed_s"] = root.self_s
            record["layers"] = layertrace.diff_stats(tracer.snapshot(), before)
        record["wall_s"] = speed.busy_s
        record["ref_s"] = speed.ref_s
        outcome = wl.collect(i, raw)
    except Exception:  # a failing unit is counted, and the run goes on
        record["problems"] = [traceback.format_exc(limit=3)]
        return record
    record.update(labels=outcome.labels, ex_calls=outcome.ex_calls, problems=outcome.problems)
    return record


def measure(wl, seconds, tracer=None):
    """Units i = 0, 1, ... until `seconds` have passed; always at least one."""
    records = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        records.append(run_unit(wl, len(records), tracer))
    return records


def median_of(records, key):
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else None


def end_to_end(records, setup_samples):
    """Times are reference seconds (hostspeed.py); raw wall seconds go to the report."""
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (median_of(records, "ref_s"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(traced, untraced, import_s, setup_layers):
    """Per-unit means over the traced units, plus tracing overhead and coverage."""
    n = len(traced)
    total = {name: [0, 0.0] for name in setup_layers}  # calls, self seconds
    for rec in traced:
        for name, (calls, self_s) in rec["layers"].items():
            total[name][0] += calls
            total[name][1] += self_s
    metrics = {}
    module_self = dict.fromkeys(layertrace.MODULES, 0.0)
    for name, (calls, self_s) in total.items():
        metrics[f"{name}.calls"] = (calls / n, "count")
        metrics[f"{name}.self_s"] = (self_s / n, "s")
        module_self[name.split(".")[0]] += self_s / n
    for module, self_s in module_self.items():
        metrics[f"{module}.self_s"] = (self_s, "s")

    def per_call(name, scale):
        calls, self_s = total[name]
        return self_s / calls * scale if calls else 0.0

    metrics["oracles.BandSampler.draw.us_per_call"] = (
        per_call("oracles.BandSampler.draw", 1e6), "us")
    metrics["oracles.query_label.us_per_call"] = (per_call("oracles.query_label", 1e6), "us")
    metrics["sparse.bregman_step.ms_per_call"] = (per_call("sparse.bregman_step", 1e3), "ms")
    steps = total["sparse.bregman_step"][0]
    metrics["sparse.project_l1_ball.calls_per_step"] = (
        total["sparse.project_l1_ball"][0] / steps if steps else 0.0, "count")
    labels = sum(r.get("labels", 0) for r in traced)
    metrics["oracles.ledger.ex_per_label"] = (
        sum(r.get("ex_calls", 0) for r in traced) / labels if labels else 0.0, "ratio")
    metrics["schedules.schedule_for.setup_self_s"] = (setup_layers["schedules.schedule_for"][1], "s")
    metrics["setup.import_s"] = (import_s, "s")
    # overhead in reference seconds, so that host speed drift between the phases cancels
    traced_wall = median_of(traced, "ref_s")
    plain_wall = median_of(untraced, "ref_s")
    unattributed = statistics.fmean(r["unattributed_s"] for r in traced)
    mean_wall = statistics.fmean(r["wall_s"] for r in traced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["trace.overhead_frac"] = ((traced_wall - plain_wall) / plain_wall, "ratio")
    metrics["trace.unattributed_s"] = (unattributed, "s")
    metrics["trace.layer_share"] = (1.0 - unattributed / mean_wall, "ratio")
    return metrics


def report(wl, args, records, metrics, setup_samples):
    done = [r for r in records if "wall_s" in r]
    failed = [r for r in records if r.get("problems")]
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"units {len(records)} ({len(done)} timed)")
    if not args.trace:
        print(f"  setup_s       {metrics['setup_s'][0]:12.4f} s     median of {len(setup_samples)}, "
              f"at reference speed")
        print(f"  wall_s        {metrics['wall_s'][0]:12.4f} s     median of {len(done)} units, "
              f"at reference speed; measured {median_of(done, 'wall_s'):.4f} s")
        labelled = [r for r in done if r.get("labels")]
        if labelled:
            rate = statistics.median(r["labels"] / r["wall_s"] for r in labelled)
            print(f"  labels_per_s  {rate:12.1f} 1/s   "
                  f"median of {len(labelled)} units, {labelled[0]['labels']} labels per unit")
        print(f"  peak_rss_mb   {metrics['peak_rss_mb'][0]:12.1f} MB    1 process")
    else:
        for name, (value, unit) in metrics.items():
            print(f"  {name:48s} {value:14.6g} {unit}")
    print(f"  failed_frac   {len(failed) / len(records):12.4f}       "
          f"{len(failed)} of {len(records)} units")
    for rec in failed:
        print(f"  unit {rec['unit']} failed: {rec['problems']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    setup = hostspeed.HostSpeed()
    with setup:
        import halfband
        import workloads

        import_s = time.perf_counter() - setup.t0
        if not Path(halfband.__file__).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"halfband was imported from {halfband.__file__}, not {ROOT / 'src'}")
        known = workloads.WORKLOADS | workloads.UNGATED
        if args.workload not in known:
            parser.error(f"--workload must be one of {sorted(known)}")
        wl = known[args.workload]()
        OUT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
        tracer = layertrace.Tracer() if args.trace else None
        if tracer is None:
            wl.prepare(args.seed, workdir)
    try:
        if tracer is None:
            setup_samples = [setup.ref_s]
            for k in range(SETUP_PROBES):
                probe_dir = workdir / f"probe{k}"
                probe_dir.mkdir()
                setup_samples.append(probe_setup(wl.name, args.seed, probe_dir))
            records = measure(wl, args.seconds)
            metrics = end_to_end(records, setup_samples)
        else:
            tracer.install()
            with tracer.root("setup"):
                wl.prepare(args.seed, workdir)
            setup_layers = tracer.snapshot()
            tracer.uninstall()
            setup_samples = []  # set-up is timed untraced, in --trace 0 runs
            untraced = measure(wl, args.seconds / 2)
            tracer.install()
            try:
                traced = [run_unit(wl, i, tracer) for i in range(len(untraced))]
            finally:
                tracer.uninstall()
            records = untraced + traced
            if not all("wall_s" in r for r in records):
                raise SystemExit("a unit raised before finishing; no per-layer figures")
            metrics = per_layer(traced, untraced, import_s, setup_layers)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if any(value is None for value, _ in metrics.values()):
        raise SystemExit("no unit finished; no metrics to report")
    failed = sum(1 for r in records if r.get("problems"))
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    report(wl, args, records, metrics, setup_samples)
    record = {
        "workload": wl.name,
        "args": vars(args),
        "env": env,
        "setup_samples_s": setup_samples,
        "units": [{k: v for k, v in r.items() if k != "layers"} for r in records],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    if tracer is not None:
        record["spans"] = tracer.spans
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
