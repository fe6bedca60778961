"""Experiment driver: runs, schedule sweeps, verification, previews.

Configs are JSON. The flags --seed and --out override the file's values
and are read by the same rules: argparse reads no value. Every replicate
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
from .diagnostics import excess_error, suite_bandwidth, verify_lemma_suite
from .errors import BandTooThinError, InvalidInputError, InvariantError, NumericalError
from .geometry import MAX_COUNT, angle, choice, integer, real
from .learner import LearnerConfig, learn
from .oracles import NoiseModel, make_ground_truth, noise_fields
from .schedules import PROFILES, REGIMES, Profile, iteration_count
from .schedules import schedule_for  # noqa: F401  unused; perfbench/layertrace.py patches it here

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

# sweep axis -> (config section it edits, None for top level; key; the fit's x-value of a
# grid value). A grid value is read by its key's own rule, in its point's config.
SWEEP_AXES = {
    "eta": ("noise", "eta", lambda v: 1.0 / (1.0 - 2.0 * v)),
    "epsilon": (None, "epsilon", lambda v: 1.0 / v),
    "alpha": ("noise", "alpha", float),
    "B": ("noise", "B", float),
    "d": ("dist", "d", math.log),
    "s": (None, "sparse_s", float),
}

# every top-level key a config may hold
CONFIG_KEYS = (
    "seed", "dist", "noise", "epsilon", "delta", "profile", "multipliers", "replicates",
    "sparse_s", "regime", "excess_mc_samples", "out", "sweep",
    "certify_samples", "verify_samples",
)

REQUIRED = object()  # _get default for a key that must be present and non-null

_KIND_NAMES = {str: "a string", dict: "an object", list: "a list"}


def _read(value, kind, name, lo=None, hi=None):
    """value checked as `kind`; errors name the dotted key `name`.

    An int is geometry.integer's, in [lo, hi]; a float is geometry.real's and
    finite, since Python's json reads NaN and Infinity; a table of names (a
    dict or tuple) takes one of them (geometry.choice).
    """
    if isinstance(kind, (dict, tuple)):
        return choice(name, value, kind)
    if kind is int:
        return integer(name, value, lo, hi)
    if kind is float:
        value = real(name, value)
        if not math.isfinite(value):
            raise InvalidInputError(f"{name} must be a finite number, got {value!r}")
        return value
    if not isinstance(value, kind):
        raise InvalidInputError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def _get(section, key, kind, default=None, lo=None, hi=None, where=""):
    """section[key] read as `kind`; null or absent means default."""
    value = section.get(key)
    if value is None:
        if default is REQUIRED:
            raise InvalidInputError(f"config needs {where}{key}")
        return default
    return _read(value, kind, where + key, lo, hi)


def _known(section, keys, where=""):
    unknown = sorted(set(section) - set(keys))
    if unknown:
        raise InvalidInputError(f"unknown config keys {[where + k for k in unknown]}")


def noise_from_config(raw):
    kind = _get(raw, "kind", str, REQUIRED, where="noise.")
    fields = noise_fields(kind)
    _known(raw, ("kind", *fields), "noise.")
    return NoiseModel(kind, **{f: _get(raw, f, float, REQUIRED, where="noise.") for f in fields})


def dist_from_config(raw):
    _known(raw, ("family", "d", "params"), "dist.")
    family = _get(raw, "family", str, "gaussian", where="dist.")
    d = _get(raw, "d", int, REQUIRED, lo=2, hi=dists.MAX_D, where="dist.")
    params = _get(raw, "params", dict, where="dist.")
    if params is not None:
        # named overrides merged onto the family defaults, canonical order
        names = ("L", "R", "U", "beta")
        _known(params, names, "dist.params.")
        defaults = dists.default_params(family, d)
        params = tuple(
            _get(params, k, float, v, where="dist.params.") for k, v in zip(names, defaults)
        )
    return dists.make_distribution(family, d, params=params)


def profile_from_config(cfg):
    name = _get(cfg, "profile", PROFILES, "desk")
    override = _get(cfg, "multipliers", dict, {})
    _known(override, [f.name for f in dataclasses.fields(Profile)], "multipliers.")
    values = {k: _get(override, k, float, where="multipliers.") for k in override}
    values = {k: v for k, v in values.items() if v is not None}
    return name, dataclasses.replace(PROFILES[name], **values)


def sweep_from_config(raw, noise, cfg):
    """(axis, ((value, RunSpec, its schedule without sparse_s or None), ...)) of cfg's sweep."""
    _known(raw, ("axis", "values"), "sweep.")
    axis = _get(raw, "axis", SWEEP_AXES, REQUIRED, where="sweep.")
    section, key, _ = SWEEP_AXES[axis]
    if section == "noise" and key not in noise_fields(noise.kind):
        raise InvalidInputError(f"sweep.axis {axis!r} is not a field of noise kind {noise.kind!r}")
    values = _get(raw, "values", list, REQUIRED, where="sweep.")
    if not values:
        raise InvalidInputError("sweep.values must be a nonempty list")
    points = []
    for i, value in enumerate(values):
        if value is None:  # in its point's config, a null would leave the key at its default
            raise InvalidInputError(f"sweep.values[{i}] must not be null")
        try:
            points.append(parse_spec(_sweep_point_config(cfg, axis, value), "preview-schedule"))
        except InvalidInputError as exc:
            raise InvalidInputError(f"sweep.values[{i}]: {exc}") from exc
    dense = [p.learner.sparse_s and dataclasses.replace(p.learner, sparse_s=None).schedule()
             for p in points]
    return axis, tuple(zip(values, points, dense))


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """One checked config; subcommands read it instead of the JSON."""

    learner: LearnerConfig  # at the base seed
    replicates: int
    profile_name: str
    out: str | None
    excess_mc_samples: int
    certify_samples: int
    verify_samples: int
    schedule: object  # the epoch schedule, for run and preview-schedule only
    sweep: tuple | None  # sweep_from_config's (axis, points), for the sweep command only

    def replicate(self, r):
        """Learner config of replicate r, on the substream (seed, r)."""
        return dataclasses.replace(self.learner, seed=(self.learner.seed, r))


def parse_spec(cfg, command):
    """Check a merged config and build its schedules, once; InvalidInputError names the bad key."""
    _known(cfg, CONFIG_KEYS)
    seed = _get(cfg, "seed", int, REQUIRED, lo=0)
    dist = dist_from_config(_get(cfg, "dist", dict, REQUIRED))
    if command == "verify":
        suite_bandwidth(dist)  # a suite band outside the support is a config error
    noise = _get(cfg, "noise", dict, None if command == "verify" else REQUIRED)
    noise = None if noise is None else noise_from_config(noise)
    profile_name, profile = profile_from_config(cfg)
    learner = LearnerConfig(
        dist=dist,
        noise=noise,
        epsilon=_get(cfg, "epsilon", float, 0.1),
        delta=_get(cfg, "delta", float, 0.05),
        seed=seed,
        sparse_s=_get(cfg, "sparse_s", int, lo=1),
        regime=_get(cfg, "regime", REGIMES),
        profile=profile,
    )
    sweep = _get(cfg, "sweep", dict, REQUIRED if command == "sweep" else None)
    return RunSpec(
        learner=learner,
        replicates=_get(cfg, "replicates", int, 1, lo=1, hi=MAX_COUNT),
        profile_name=profile_name,
        out=_get(cfg, "out", str) or None,
        excess_mc_samples=_get(cfg, "excess_mc_samples", int, 200000, lo=1, hi=MAX_COUNT),
        certify_samples=_get(cfg, "certify_samples", int, 10**5, lo=1, hi=MAX_COUNT),
        verify_samples=_get(cfg, "verify_samples", int, 10**6, lo=2, hi=MAX_COUNT),
        schedule=learner.schedule() if command in ("run", "preview-schedule") else None,
        sweep=sweep_from_config(sweep, noise, cfg) if command == "sweep" else None,
    )


def _json(text, what):
    """text read as JSON; InvalidInputError naming `what` if it is not JSON."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, an int too long, nesting too deep
        raise InvalidInputError(f"{what} is not valid JSON: {exc}") from exc


def load_config(path, overrides):
    """The config file's JSON object with the command-line overrides merged in."""
    try:
        with open(path) as fh:
            text = fh.read()
    except ValueError as exc:  # text that is not UTF-8
        raise InvalidInputError(f"config {path} is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise InvalidInputError(f"cannot read config {path}: {exc.strerror or exc}") from exc
    cfg = _json(text, f"config {path}")
    if not isinstance(cfg, dict):
        raise InvalidInputError(f"config {path} must hold a JSON object")
    return {**cfg, **overrides}


def learner_config(cfg, replicate):
    return parse_spec(cfg, "run").replicate(replicate)


def run_one(spec, replicate):
    config = spec.replicate(replicate)
    seed = spec.learner.seed
    row = {col: "" for col in CSV_COLUMNS}
    row.update(
        seed=seed,
        replicate=replicate,
        family=config.dist.family,
        d=config.dist.d,
        s="" if config.sparse_s is None else config.sparse_s,
        noise_kind=config.noise.kind,
        **{f: getattr(config.noise, f) for f in noise_fields(config.noise.kind)},
        A=spec.schedule.params.get("A", ""),
        regime=spec.schedule.regime,
        epsilon=config.epsilon,
        delta=config.delta,
        profile=spec.profile_name,
    )
    start = time.perf_counter()
    try:
        result = learn(config)
    except (BandTooThinError, NumericalError) as exc:
        row["error"] = str(exc)
        row["wall_time_s"] = time.perf_counter() - start
        return row, []
    row["wall_time_s"] = time.perf_counter() - start
    mc_rng = np.random.default_rng((seed, replicate, 907))
    excess = excess_error(
        result.v,
        config.dist,
        config.noise,
        result.truth,
        rng=mc_rng,
        n=spec.excess_mc_samples,
        method="auto",
    )
    row.update(
        label_calls=result.ledger.label_calls,
        ex_calls=result.ledger.ex_calls,
        init_labels=result.schedule.init_label_total(),
        main_labels=result.schedule.main_label_total(),
        final_angle=angle(result.v, result.truth.w_star),
        final_excess=excess,
        feasibility_gap=result.ledger.max_feasibility_gap,
    )
    trace_lines = [dict(entry, replicate=replicate) for entry in result.trace]
    return row, trace_lines


def _write_csv(path, columns, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _quantiles(values):
    arr = np.asarray(values, dtype=float)
    return {
        "min": float(arr.min()),
        "q25": float(np.quantile(arr, 0.25)),
        "median": float(np.quantile(arr, 0.5)),
        "q75": float(np.quantile(arr, 0.75)),
        "max": float(arr.max()),
    }


def cmd_run(spec, out_dir):
    replicates = spec.replicates
    rows, traces = [], []
    for rep in range(replicates):
        row, trace_lines = run_one(spec, rep)
        rows.append(row)
        traces.extend(trace_lines)
        status = "failed: " + row["error"] if row["error"] else (
            f"labels={row['label_calls']} angle={row['final_angle']:.3e} "
            f"excess={row['final_excess']:.3e}"
        )
        print(f"replicate {rep}: {status}")
    csv_path = out_dir / "results.csv"
    _write_csv(csv_path, CSV_COLUMNS, rows)
    good = [r for r in rows if not r["error"]]
    summary = {
        "replicates": replicates,
        "failures": replicates - len(good),
        "labels": _quantiles([r["label_calls"] for r in good]) if good else None,
        "final_angle": _quantiles([r["final_angle"] for r in good]) if good else None,
        "final_excess": _quantiles([r["final_excess"] for r in good]) if good else None,
    }
    _write_json(out_dir / "summary.json", summary)
    with open(out_dir / "trace.jsonl", "w") as fh:
        for line in traces:
            fh.write(json.dumps(line, sort_keys=True) + "\n")
    print(f"wrote {csv_path}")
    return 0


def _sweep_point_config(raw, axis, value):
    point = json.loads(json.dumps(raw))  # deep copy of plain JSON data
    section, key = SWEEP_AXES[axis][:2]
    (point if section is None else point[section])[key] = value
    if axis == "d":
        point["dist"].pop("params", None)  # defaults are dimension dependent
    return point


def _normalized_rate(dist, sched):
    """Per-epoch label count at proximity scale epsilon over its d-polylog factor."""
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


def cmd_sweep(spec, out_dir):
    axis, points = spec.sweep
    x_of = SWEEP_AXES[axis][-1]
    rows = []
    for value, point_spec, dense in points:
        point, sched = point_spec.learner, point_spec.schedule
        rows.append(
            {
                "axis": axis,
                "value": value,
                "x": x_of(value),
                "rate": _normalized_rate(point.dist, sched),
                "init_labels": sched.init_label_total(),
                "main_labels": sched.main_label_total(),
                "total_labels": sched.total_label_budget(),
                "dense_total_labels": "" if dense is None else dense.total_label_budget(),
                "k0": sched.k0,
                "k_eps": sched.k_eps,
                "N": sched.N,
                "m": sched.m,
                "eps0": sched.eps0,
            }
        )
    csv_path = out_dir / "sweep.csv"
    _write_csv(csv_path, SWEEP_COLUMNS, rows)

    summary = {"axis": axis, "points": len(rows)}
    if len({r["x"] for r in rows}) < 3:  # a repeated value adds no point to the fit
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
    else:  # x is the value itself
        slope, intercept, r2 = _linear_fit(
            np.log([r["x"] for r in rows]), np.log([float(r["total_labels"]) for r in rows])
        )
        summary.update(fit="loglog-total", slope=slope, intercept=intercept, r_squared=r2)
    _write_json(out_dir / "sweep_summary.json", summary)
    print(json.dumps(summary, indent=2, sort_keys=True))
    print(f"wrote {csv_path}")
    return 0


def cmd_verify(spec, out_dir):
    dist = spec.learner.dist
    rng = np.random.default_rng(spec.learner.seed)
    certify = dists.certify_parameters(dist, rng, samples=spec.certify_samples)
    truth = make_ground_truth(dist.d, rng, s=spec.learner.sparse_s)
    lemmas = verify_lemma_suite(
        dist, truth, rng, noise=spec.learner.noise, samples=spec.verify_samples
    )
    report = {
        "passed": bool(certify["passed"] and lemmas["passed"]),
        "certify": certify,
        "lemmas": lemmas,
    }
    path = out_dir / "verify_report.json"
    _write_json(path, report)
    failed = [c["check"] for c in certify["checks"] if not c["passed"]]
    failed += [c["check"] for c in lemmas["checks"] if not c["passed"]]
    print(f"verify: {'PASS' if report['passed'] else 'FAIL'} ({len(failed)} failing checks)")
    for name in failed:
        print(f"  failing: {name}")
    print(f"wrote {path}")
    return 0 if report["passed"] else 1


def cmd_preview(spec, out_dir):
    payload = spec.schedule.to_dict()
    print(json.dumps(payload, indent=2, sort_keys=True))
    if out_dir is not None:
        _write_json(out_dir / "preview_schedule.json", payload)
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
        p.add_argument("--seed", help="overrides the config seed; read as JSON")
        p.add_argument("--out", help="overrides the config's output directory")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        overrides = {} if args.out is None else {"out": args.out}
        if args.seed is not None:  # checked by parse_spec, like the config's seed
            overrides["seed"] = _json(args.seed, "--seed")
        spec = parse_spec(load_config(args.config, overrides), args.command)
        out_dir = Path(spec.out or "runs")
        try:
            if spec.out or args.command != "preview-schedule":  # a bare preview only prints
                out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InvalidInputError(f"cannot create output directory {out_dir}: {exc.strerror}")
        if args.command == "run":
            return cmd_run(spec, out_dir)
        if args.command == "sweep":
            return cmd_sweep(spec, out_dir)
        if args.command == "verify":
            return cmd_verify(spec, out_dir)
        return cmd_preview(spec, out_dir if spec.out else None)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # e.g. a dist.d that fits int64 but not in memory
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: not enough memory for this config{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
