"""The benchmark's workloads, driven only through the package's public functions.

A workload builds its fixed inputs once in prepare() (config parsing and
schedule_for, which count as set-up), then runs units. Unit i of a run with
workload seed s draws everything from the seed pair (s, i), so two runs with
the same seed do the same work. call() is the timed part of a unit; collect()
reads its outputs and checks them, returning the ledger counts and a list of
problems (empty when the output is correct).
"""

import contextlib
import csv
import io
import json
import math
import shutil
from dataclasses import dataclass, field

import numpy as np
from scipy import special

import halfband as hb
from halfband import cli
from halfband.schedules import PROFILES, proximity

DESK = PROFILES["desk"]


@dataclass
class Outcome:
    labels: int  # labels answered, from the query ledger
    ex_calls: int  # unlabeled draws, from the query ledger
    problems: list = field(default_factory=list)


def _offset_start(truth, radius, rng):
    """w* moved by `radius` along a random direction orthogonal to w*."""
    u = rng.standard_normal(truth.w_star.shape[0])
    u -= (u @ truth.w_star) * truth.w_star
    return truth.w_star + radius * (u / np.linalg.norm(u))


def _cli_seed(seed, i):
    # the CLI takes one integer seed; replicate 0 of it is the unit's stream
    return seed * 1000 + i


class DenseLearn:
    """One `halfband run` replicate at the criterion-3 config (Gaussian d=10, eta=0.2)."""

    name = "dense-learn-d10"
    speed_kernel = "numpy"  # hostspeed.py

    def __init__(self, tiny=False):
        self.config = {
            "dist": {"family": "gaussian", "d": 5 if tiny else 10},
            "noise": {"kind": "massart", "eta": 0.2},
            "epsilon": 0.3 if tiny else 0.1,
            "delta": 0.05,
            "profile": "desk",
            "replicates": 1,
        }
        if tiny:  # fewer labels per epoch and a smaller selection sample
            self.config["multipliers"] = {"c_T": 0.002, "c_S": 4.0}

    def prepare(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.config_path = workdir / "run.json"
        self.config_path.write_text(json.dumps(dict(self.config, seed=seed)))
        cfg = cli.load_config(self.config_path, {})
        lc = cli.learner_config(cfg, 0)
        self.epsilon = lc.epsilon
        self.budget = hb.schedule_for(
            lc.noise, lc.dist, lc.epsilon, lc.delta, lc.profile
        ).total_label_budget()

    def call(self, i):
        out = self.workdir / f"unit{i}"
        argv = ["run", "--config", str(self.config_path), "--seed", str(_cli_seed(self.seed, i))]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--out", str(out)])
        return code, out

    def collect(self, i, raw):
        code, out = raw
        try:
            with open(out / "results.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        problems = [] if code == 0 else [f"exit code {code}"]
        if len(rows) != 1:
            return Outcome(0, 0, problems + [f"{len(rows)} result rows, expected 1"])
        row = rows[0]
        if row["error"]:
            return Outcome(0, 0, problems + [f"row error: {row['error']}"])
        labels = int(row["label_calls"])
        if labels != self.budget:
            problems.append(f"label_calls {labels} != schedule budget {self.budget}")
        if not float(row["feasibility_gap"]) <= 1e-9:
            problems.append(f"feasibility_gap {row['feasibility_gap']} > 1e-9")
        if not float(row["final_excess"]) <= self.epsilon:
            problems.append(f"final_excess {row['final_excess']} > epsilon {self.epsilon}")
        return Outcome(labels, int(row["ex_calls"]), problems)


class DenseLadder:
    """Stage two alone: epochs j=1..k_eps on the uniform ball, d=50, band-limited noise."""

    name = "dense-ladder-ball-d50"
    speed_kernel = "numpy"  # hostspeed.py

    def __init__(self, tiny=False):
        self.d = 10 if tiny else 50
        self.epsilon = 0.3 if tiny else 0.1

    def prepare(self, seed, workdir):
        self.seed = seed
        self.dist = hb.make_distribution("uniform_ball", self.d)
        self.noise = hb.massart_band(0.2, 0.5)
        self.schedule = hb.schedule_for(self.noise, self.dist, self.epsilon, 0.05, DESK)
        epochs = range(1, self.schedule.k_eps + 1)
        self.epochs = [
            (proximity(j), self.schedule.bandwidths[j], self.schedule.iterations[j]) for j in epochs
        ]

    def call(self, i):
        rng = np.random.default_rng((self.seed, i))
        truth = hb.make_ground_truth(self.d, rng)
        v = _offset_start(truth, 0.25, rng)
        ledger = hb.QueryLedger()
        for r, b, T in self.epochs:
            v = hb.optimize(
                v, r, b, T, "average", self.dist, self.noise, truth, rng, ledger, 0.05, DESK
            )
        return v, ledger, truth

    def collect(self, i, raw):
        v, ledger, truth = raw
        expected = sum(T for _, _, T in self.epochs)
        problems = []
        if ledger.label_calls != expected:
            problems.append(f"ledger {ledger.label_calls} != sum of T_j {expected}")
        limit = math.pi * self.schedule.r_eps
        final = hb.angle(v, truth.w_star)
        if not final <= limit:
            problems.append(f"final angle {final:.3e} > pi*r_eps {limit:.3e}")
        return Outcome(ledger.label_calls, ledger.ex_calls, problems)


class SparseEpoch:
    """Sparse mirror-descent epochs (s=5) on Gaussian d=50 at epoch 1's r and b, three per unit."""

    name = "sparse-epoch-d50"
    speed_kernel = "numpy"  # hostspeed.py
    # Epoch 1 gave the shortest and steadiest units of the epochs tried; at epoch 3 one
    # T=48 epoch took 11 s to 22 s depending on the seed. Even at epoch 1 an epoch's cost
    # varies with its input (by 8% over ten seeds at T=8, 7-8% at T=16 and T=48), and a
    # run has time for only one unit, so a unit runs three short epochs, each from its
    # own input, and their mean cost is what a run measures.
    J = 1
    EPOCHS = 3

    def __init__(self, tiny=False):
        self.d = 10 if tiny else 50
        self.s = 2 if tiny else 5
        self.T = 2 if tiny else 8

    def prepare(self, seed, workdir):
        self.seed = seed
        self.dist = hb.make_distribution("gaussian", self.d)
        self.noise = hb.massart(0.1)
        schedule = hb.schedule_for(self.noise, self.dist, 0.1, 0.05, DESK, sparse_s=self.s)
        self.r = proximity(self.J)
        self.b = schedule.bandwidths[self.J]

    def call(self, i):
        rng = np.random.default_rng((self.seed, i))
        ledger = hb.QueryLedger()
        outs = []
        for _ in range(self.EPOCHS):
            truth = hb.make_ground_truth(self.d, rng, s=self.s)
            # w* plus one false coordinate of size 4r, which the epoch has to shed
            w1 = truth.w_star.copy()
            w1[rng.choice(np.flatnonzero(truth.w_star == 0.0))] = (
                4.0 * self.r * rng.choice([-1.0, 1.0]))
            outs.append(hb.optimize(
                w1, self.r, self.b, self.T, "average", self.dist, self.noise, truth, rng, ledger,
                0.05, DESK, sparse_s=self.s,
            ))
        return outs, ledger

    def collect(self, i, raw):
        outs, ledger = raw
        problems = []
        expected = self.EPOCHS * self.T
        if ledger.label_calls != expected:
            problems.append(f"ledger {ledger.label_calls} != {self.EPOCHS} epochs of T {self.T}")
        for out in outs:
            if not np.all(np.isfinite(out)):
                problems.append("non-finite output")
            elif not float(np.linalg.norm(out)) <= 1.0 + 1e-12:
                problems.append(f"output norm {float(np.linalg.norm(out)):.6f} > 1")
        return Outcome(ledger.label_calls, ledger.ex_calls, problems)


class Verify:
    """`halfband verify` at the criterion-6 config: Gaussian d=10, 1e6 lemma samples."""

    name = "verify-d10"
    speed_kernel = None  # hostspeed.py

    def __init__(self, tiny=False):
        self.config = {
            "dist": {"family": "gaussian", "d": 10},
            "noise": None,
            "verify_samples": 20000 if tiny else 10**6,
            "certify_samples": 20000 if tiny else 10**5,
        }

    def prepare(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.config_path = workdir / "verify.json"
        self.config_path.write_text(json.dumps(dict(self.config, seed=seed)))
        cfg = cli.load_config(self.config_path, {})
        cli.dist_from_config(cfg["dist"])

    def call(self, i):
        out = self.workdir / f"unit{i}"
        argv = ["verify", "--config", str(self.config_path), "--seed", str(_cli_seed(self.seed, i))]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--out", str(out)])
        return code, out

    def collect(self, i, raw):
        code, out = raw
        try:
            report = json.loads((out / "verify_report.json").read_text())
        finally:
            shutil.rmtree(out, ignore_errors=True)
        problems = [] if code == 0 else [f"exit code {code}"]
        if report.get("passed") is not True:
            failing = [c["check"] for part in ("certify", "lemmas") for c in report[part]["checks"]
                       if not c["passed"]]
            problems.append(f"verify_report not passed: {failing}")
        return Outcome(0, 0, problems)


def _normal_moments(f, lo, hi):
    """First two moments of f(g) over g ~ N(0, 1) restricted to [lo, hi] (unnormalized).

    Trapezoid rule on 400,001 points; f may have kinks, which costs O(h^2) there.
    """
    m = np.linspace(lo, hi, 400001)
    phi = np.exp(-0.5 * m * m) / math.sqrt(2.0 * math.pi)
    v = f(m)
    return float(np.trapezoid(v * phi, m)), float(np.trapezoid(v * v * phi, m))


class Estimators:
    """The diagnostics estimators in 1e6-row batches on Gaussian d=10, against quadrature.

    Per unit and per noise model (Massart eta=0.2, geometric Tsybakov B=1, alpha=0.75):
    estimate_psi at w = w* and at a w orthogonal to w*, and Monte Carlo excess_error
    at two angles. For the Gaussian each has a 1-d integral as reference: at w = w*
    the band margin is the truncated normal on [-b, b]; at w orthogonal to w*,
    <w*, x> is a standard normal independent of the band; and the disagreement at
    angle theta given <w*, x> = m has probability Phi(-|m| cot theta).
    """

    name = "estimators-d10"
    speed_kernel = None  # hostspeed.py
    ANGLES = (0.15, 0.9)
    SIGMAS = 6.0  # a correct estimator is off by more than this about twice in 1e9 checks

    def __init__(self, tiny=False):
        self.d = 10
        self.n = 20000 if tiny else 10**6  # the criterion-6 verify_samples

    def prepare(self, seed, workdir):
        self.seed = seed
        self.dist = hb.make_distribution("gaussian", self.d)
        self.b = 0.1 * self.dist.R  # the lemma suite's band-potential bandwidth
        self.noises = {"massart": hb.massart(0.2), "tsybakov": hb.geometric_tsybakov(1.0, 0.75)}

    def call(self, i):
        rng = np.random.default_rng((self.seed, i))
        truth = hb.make_ground_truth(self.d, rng)
        w_perp = _offset_start(truth, 1.0, rng) - truth.w_star
        out = {}
        for key, noise in self.noises.items():
            out[key, "psi", 0.0] = hb.estimate_psi(
                truth.w_star, self.b, self.dist, noise, truth, self.n, rng)
            out[key, "psi", math.pi / 2] = hb.estimate_psi(
                w_perp, self.b, self.dist, noise, truth, self.n, rng)
            for theta in self.ANGLES:
                v = math.cos(theta) * truth.w_star + math.sin(theta) * w_perp
                out[key, "excess", theta] = hb.excess_error(
                    v, self.dist, noise, truth, rng, n=self.n, method="mc")
        return out

    def reference(self, key, kind, theta):
        """Exact mean and standard deviation of one sample of the estimator."""
        noise = self.noises[key]

        def weight(m):
            return 1.0 - 2.0 * hb.eta_of_margin(noise, m)

        if kind == "excess":
            cot = math.cos(theta) / math.sin(theta)
            mean, _ = _normal_moments(lambda m: weight(m) * special.ndtr(-np.abs(m) * cot), -9, 9)
            return mean, math.sqrt(mean)  # a sample lies in [0, 1], so its variance <= mean
        if theta == 0.0:  # the band margin is the truncated normal on [-b, b]
            mass = 2.0 * special.ndtr(self.b) - 1.0
            mean, second = (x / mass for x in _normal_moments(
                lambda m: weight(m) * np.abs(m), -self.b, self.b))
        else:
            mean, second = _normal_moments(lambda m: weight(m) * np.abs(m), -9, 9)
        return mean, math.sqrt(max(second - mean * mean, 0.0))

    def collect(self, i, raw):
        problems = []
        for (key, kind, theta), result in raw.items():
            value = result if kind == "excess" else result.value
            if kind == "psi" and result.sample_count != self.n:
                problems.append(f"{key} psi at {theta:.3f}: {result.sample_count} samples != {self.n}")
            mean, sd = self.reference(key, kind, theta)
            limit = self.SIGMAS * sd / math.sqrt(self.n) + 1e-9
            if not abs(value - mean) <= limit:
                problems.append(f"{key} {kind} at {theta:.3f}: {value:.6f}, "
                                f"expected {mean:.6f} +- {limit:.6f}")
        return Outcome(0, 0, problems)


# Gated workloads, in BENCHMARK.json order.
WORKLOADS = {wl.name: wl for wl in (DenseLearn, DenseLadder, SparseEpoch, Estimators)}
# Runnable, but not in BENCHMARK.json: `halfband verify` fails its own certify check on
# about 1 seed in 20 with a correct sampler (see README.md), so no run can be relied on
# to pass. It still runs and reports that failure.
UNGATED = {Verify.name: Verify}
