"""Experiment driver: runs, schedule sweeps, verification, previews.

Configs are JSON; command-line flags override file values. Every replicate
gets the substream default_rng((seed, replicate)), so reruns are
bit-for-bit identical except wall-clock columns.
"""

import argparse
import csv
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import distributions as dists
from . import schedules
from .diagnostics import excess_error, verify_lemma_suite
from .errors import BandTooThinError, InvalidInputError, NumericalError
from .geometry import angle
from .learner import LearnerConfig, learn
from .oracles import geometric_tsybakov, make_ground_truth, massart, massart_band
from .schedules import PROFILES, iteration_count, schedule_for

CSV_COLUMNS = [
    "seed",
    "replicate",
    "family",
    "d",
    "s",
    "noise_kind",
    "eta",
    "tau",
    "B",
    "alpha",
    "A",
    "regime",
    "epsilon",
    "delta",
    "profile",
    "label_calls",
    "ex_calls",
    "init_labels",
    "main_labels",
    "final_angle",
    "final_excess",
    "feasibility_gap",
    "error",
    "wall_time_s",
]

SWEEP_COLUMNS = [
    "axis",
    "value",
    "x",
    "rate",
    "init_labels",
    "main_labels",
    "total_labels",
    "dense_total_labels",
    "k0",
    "k_eps",
    "N",
    "m",
    "eps0",
]

SWEEP_AXES = ("eta", "epsilon", "alpha", "B", "d", "s")

# noise kind -> (constructor, its config fields in argument order)
NOISE_KINDS = {
    "massart": (massart, ("eta",)),
    "massart_band": (massart_band, ("eta", "tau")),
    "geometric_tsybakov": (geometric_tsybakov, ("B", "alpha")),
}


def noise_from_config(raw):
    kind = raw.get("kind")
    if kind not in NOISE_KINDS:
        raise InvalidInputError(f"unknown noise kind {kind!r}")
    make, fields = NOISE_KINDS[kind]
    missing = [f for f in fields if f not in raw]
    if missing:
        raise InvalidInputError(f"noise kind {kind!r} needs field(s) {missing}")
    return make(*(float(raw[f]) for f in fields))


def dist_from_config(raw):
    family = raw.get("family", "gaussian")
    d = int(raw.get("d", 0))
    params = raw.get("params")
    if params is not None:
        # named overrides merged onto the family defaults, canonical order
        base = dict(zip(("L", "R", "U", "beta"), dists.default_params(family, d)))
        unknown = set(params) - set(base)
        if unknown:
            raise InvalidInputError(f"unknown dist params {sorted(unknown)}")
        base.update({k: float(v) for k, v in params.items()})
        params = (base["L"], base["R"], base["U"], base["beta"])
    return dists.make_distribution(family, d, params=params)


def profile_from_config(cfg):
    name = cfg.get("profile", "desk")
    if name not in PROFILES:
        raise InvalidInputError(f"unknown profile {name!r}; choose from {sorted(PROFILES)}")
    profile = PROFILES[name]
    override = cfg.get("multipliers")
    if override:
        unknown = set(override) - {f.name for f in dataclasses.fields(profile)}
        if unknown:
            raise InvalidInputError(f"unknown multipliers {sorted(unknown)}")
        profile = dataclasses.replace(profile, **{k: float(v) for k, v in override.items()})
    return name, profile


def load_config(path, overrides):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InvalidInputError(f"config {path} must hold a JSON object")
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    if "dist" not in cfg or "noise" not in cfg:
        raise InvalidInputError("config needs 'dist' and 'noise' sections")
    if "seed" not in cfg or cfg["seed"] is None:
        raise InvalidInputError("a seed is mandatory; pass --seed or set it in the config")
    if not _is_int(cfg["seed"]) or cfg["seed"] < 0:
        raise InvalidInputError(f"seed must be a nonnegative integer, got {cfg['seed']!r}")
    replicates = cfg.get("replicates", 1)
    if not _is_int(replicates) or replicates < 1:
        raise InvalidInputError(f"replicates must be an integer >= 1, got {replicates!r}")
    return cfg


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def tsybakov_A_for(cfg, noise, dist):
    # plain-Tsybakov schedules need an explicit coefficient; default 1.0
    if cfg.get("regime") == "TNC" and cfg.get("tsybakov_A") is None:
        return 1.0
    value = cfg.get("tsybakov_A")
    return None if value is None else float(value)


def learner_config(cfg, replicate):
    dist = dist_from_config(cfg["dist"])
    noise = noise_from_config(cfg["noise"])
    _, profile = profile_from_config(cfg)
    return LearnerConfig(
        dist=dist,
        noise=noise,
        epsilon=float(cfg.get("epsilon", 0.1)),
        delta=float(cfg.get("delta", 0.05)),
        seed=(int(cfg["seed"]), int(replicate)),
        sparse_s=None if cfg.get("sparse_s") is None else int(cfg["sparse_s"]),
        regime=cfg.get("regime"),
        A=tsybakov_A_for(cfg, noise, dist),
        profile=profile,
        trace_angles=bool(cfg.get("trace", False)),
        max_attempts=None if cfg.get("max_attempts") is None else int(cfg["max_attempts"]),
    )


def run_one(cfg, replicate):
    config = learner_config(cfg, replicate)
    profile_name, _ = profile_from_config(cfg)
    noise_raw = cfg["noise"]
    row = {col: "" for col in CSV_COLUMNS}
    row.update(
        seed=int(cfg["seed"]),
        replicate=int(replicate),
        family=config.dist.family,
        d=config.dist.d,
        s="" if config.sparse_s is None else config.sparse_s,
        noise_kind=noise_raw["kind"],
        eta=noise_raw.get("eta", ""),
        tau=noise_raw.get("tau", ""),
        B=noise_raw.get("B", ""),
        alpha=noise_raw.get("alpha", ""),
        A="" if config.A is None else config.A,
        epsilon=config.epsilon,
        delta=config.delta,
        profile=profile_name,
    )
    start = time.perf_counter()
    try:
        result = learn(config)
    except (BandTooThinError, NumericalError) as exc:
        row["error"] = str(exc)
        row["regime"] = cfg.get("regime") or schedules.regime_for_noise(config.noise)
        row["wall_time_s"] = time.perf_counter() - start
        return row, []
    row["wall_time_s"] = time.perf_counter() - start
    mc_rng = np.random.default_rng((int(cfg["seed"]), int(replicate), 907))
    mc_n = int(cfg.get("excess_mc_samples", 200000))
    excess = excess_error(
        result.v,
        config.dist,
        config.noise,
        result.truth,
        rng=mc_rng,
        n=mc_n,
        method="auto",
    )
    row.update(
        regime=result.schedule.regime,
        label_calls=result.ledger.label_calls,
        ex_calls=result.ledger.ex_calls,
        init_labels=result.schedule.init_label_total(),
        main_labels=result.schedule.main_label_total(),
        final_angle=angle(result.v, result.truth.w_star),
        final_excess=excess,
        feasibility_gap=result.max_feasibility_gap,
    )
    if result.max_feasibility_gap > 1e-9:
        raise InvalidInputError(
            f"iterate feasibility violated by {result.max_feasibility_gap:g}"
        )
    trace_lines = [dict(entry, replicate=int(replicate)) for entry in result.trace]
    return row, trace_lines


def _quantiles(values):
    arr = np.asarray(values, dtype=float)
    return {
        "min": float(arr.min()),
        "q25": float(np.quantile(arr, 0.25)),
        "median": float(np.quantile(arr, 0.5)),
        "q75": float(np.quantile(arr, 0.75)),
        "max": float(arr.max()),
    }


def cmd_run(cfg, out_dir):
    replicates = int(cfg.get("replicates", 1))
    rows, traces = [], []
    for rep in range(replicates):
        row, trace_lines = run_one(cfg, rep)
        rows.append(row)
        traces.extend(trace_lines)
        status = "failed: " + row["error"] if row["error"] else (
            f"labels={row['label_calls']} angle={row['final_angle']:.3e} "
            f"excess={row['final_excess']:.3e}"
        )
        print(f"replicate {rep}: {status}")
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "results.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    good = [r for r in rows if not r["error"]]
    summary = {
        "replicates": replicates,
        "failures": replicates - len(good),
        "labels": _quantiles([r["label_calls"] for r in good]) if good else None,
        "final_angle": _quantiles([r["final_angle"] for r in good]) if good else None,
        "final_excess": _quantiles([r["final_excess"] for r in good]) if good else None,
    }
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if cfg.get("trace"):
        with open(out_dir / "trace.jsonl", "w") as fh:
            for line in traces:
                fh.write(json.dumps(line, sort_keys=True) + "\n")
    print(f"wrote {csv_path}")
    return 0


def _sweep_point_config(cfg, axis, value):
    point = json.loads(json.dumps(cfg))  # deep copy of plain JSON data
    if axis == "eta":
        point["noise"]["eta"] = value
    elif axis == "epsilon":
        point["epsilon"] = value
    elif axis == "alpha":
        point["noise"]["alpha"] = value
    elif axis == "B":
        point["noise"]["B"] = value
    elif axis == "d":
        point["dist"]["d"] = int(value)
        point["dist"].pop("params", None)  # defaults are dimension dependent
    elif axis == "s":
        point["sparse_s"] = int(value)
    else:
        raise InvalidInputError(f"sweep axis must be one of {SWEEP_AXES}")
    return point


def _schedule_for_cfg(point, sparse_s="keep"):
    dist = dist_from_config(point["dist"])
    noise = noise_from_config(point["noise"])
    _, profile = profile_from_config(point)
    s = point.get("sparse_s") if sparse_s == "keep" else sparse_s
    return schedule_for(
        noise,
        dist,
        float(point.get("epsilon", 0.1)),
        float(point.get("delta", 0.05)),
        profile,
        sparse_s=None if s is None else int(s),
        regime=point.get("regime"),
        A=tsybakov_A_for(point, noise, dist),
    )


def _normalized_rate(point, sched):
    """Per-epoch label count at proximity scale epsilon over its d-polylog factor."""
    dist = dist_from_config(point["dist"])
    eps, delta, dim = sched.epsilon, sched.delta, sched.dim_factor
    T = iteration_count(sched.regime, eps, dist, delta, sched.profile, dim, **sched.params)
    return T / (dim * math.log(1.0 / (delta * eps)) ** 3)


def _linear_fit(x, y):
    coef = np.polyfit(x, y, 1)
    pred = np.polyval(coef, x)
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


def cmd_sweep(cfg, out_dir):
    sweep = cfg.get("sweep") or {}
    axis = sweep.get("axis")
    values = sweep.get("values") or []
    if axis not in SWEEP_AXES:
        raise InvalidInputError(f"sweep axis must be one of {SWEEP_AXES}")
    if not values:
        raise InvalidInputError("sweep needs a nonempty values grid")
    rows = []
    for value in values:
        point = _sweep_point_config(cfg, axis, value)
        sched = _schedule_for_cfg(point)
        if axis == "eta":
            x = 1.0 / (1.0 - 2.0 * float(value))
        elif axis == "epsilon":
            x = 1.0 / float(value)
        elif axis == "d":
            x = math.log(float(value))
        else:
            x = float(value)
        dense_total = ""
        if point.get("sparse_s") is not None:
            dense_total = _schedule_for_cfg(point, sparse_s=None).total_label_budget()
        rows.append(
            {
                "axis": axis,
                "value": value,
                "x": x,
                "rate": _normalized_rate(point, sched),
                "init_labels": sched.init_label_total(),
                "main_labels": sched.main_label_total(),
                "total_labels": sched.total_label_budget(),
                "dense_total_labels": dense_total,
                "k0": sched.k0,
                "k_eps": sched.k_eps,
                "N": sched.N,
                "m": sched.m,
                "eps0": sched.eps0,
            }
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "sweep.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)

    summary = {"axis": axis, "points": len(rows)}
    if len(rows) < 3:
        summary["warning"] = "need at least 3 grid points for a slope fit; slope omitted"
    elif axis in ("eta", "epsilon"):
        # label-rate exponent: log-log fit of the normalized per-epoch rate
        slope, intercept, r2 = _linear_fit(
            np.log([r["x"] for r in rows]), np.log([r["rate"] for r in rows])
        )
        summary.update(fit="loglog-rate", slope=slope, intercept=intercept, r_squared=r2)
    elif axis == "d":
        # full label totals grow linearly in ln d when the schedule is sparse
        slope, intercept, r2 = _linear_fit(
            [r["x"] for r in rows], [float(r["total_labels"]) for r in rows]
        )
        summary.update(fit="linear-in-log-d", slope=slope, intercept=intercept, r_squared=r2)
    else:
        slope, intercept, r2 = _linear_fit(
            np.log([float(r["value"]) for r in rows]),
            np.log([float(r["total_labels"]) for r in rows]),
        )
        summary.update(fit="loglog-total", slope=slope, intercept=intercept, r_squared=r2)
    with open(out_dir / "sweep_summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(summary, indent=2, sort_keys=True))
    print(f"wrote {csv_path}")
    return 0


def cmd_verify(cfg, out_dir):
    dist = dist_from_config(cfg["dist"])
    noise = noise_from_config(cfg["noise"]) if cfg.get("noise") else None
    rng = np.random.default_rng(int(cfg["seed"]))
    certify = dists.certify_parameters(dist, rng, samples=int(cfg.get("certify_samples", 10**5)))
    truth = make_ground_truth(dist.d, rng, s=cfg.get("sparse_s"))
    lemmas = verify_lemma_suite(
        dist, truth, rng, noise=noise, samples=int(cfg.get("verify_samples", 10**6))
    )
    report = {
        "passed": bool(certify["passed"] and lemmas["passed"]),
        "certify": certify,
        "lemmas": lemmas,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "verify_report.json"
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    failed = [c["check"] for c in certify["checks"] if not c["passed"]]
    failed += [c["check"] for c in lemmas["checks"] if not c["passed"]]
    print(f"verify: {'PASS' if report['passed'] else 'FAIL'} ({len(failed)} failing checks)")
    for name in failed:
        print(f"  failing: {name}")
    print(f"wrote {path}")
    return 0 if report["passed"] else 1


def cmd_preview(cfg, out_dir):
    sched = _schedule_for_cfg(cfg)
    payload = sched.to_dict()
    print(json.dumps(payload, indent=2, sort_keys=True))
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "preview_schedule.json", "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="halfband",
        description="Label-efficient active learning of noisy halfspaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep", "verify", "preview-schedule"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--profile", default=None, choices=sorted(PROFILES))
        p.add_argument("--replicates", type=int, default=None)
        p.add_argument("--trace", action="store_true", default=None,
                       help="write a per-epoch JSONL trace")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    overrides = {
        "seed": args.seed,
        "profile": args.profile,
        "replicates": args.replicates,
        "trace": args.trace,
        "out": args.out,
    }
    try:
        cfg = load_config(args.config, overrides)
        out_dir = Path(cfg.get("out") or "runs")
        if args.command == "run":
            return cmd_run(cfg, out_dir)
        if args.command == "sweep":
            return cmd_sweep(cfg, out_dir)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir)
        return cmd_preview(cfg, out_dir if cfg.get("out") else None)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
