"""Acceptance battery: nine end-to-end contracts at their stated tolerances.

Each test prints one criterion-N PASS line with the measured quantities; the
pytest -v status line per test is the one-line pass/fail record.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.stats import norm

import halfband as hb
from halfband import distributions as dists
from halfband.cli import main
from halfband.schedules import PROFILES, bandwidth, iteration_count
from halfband.sparse import (
    SparseConstraint,
    bregman_step,
    mirror_p,
    pnorm_sq_grad,
    project_intersection,
)

DESK = PROFILES["desk"]
PI_R_EPS = 0.0026913097631817914  # pi * r_eps at eps = 0.1


def run_sweep(tmp_path, name, cfg):
    out = tmp_path / name
    cfg = dict(cfg, out=str(out))
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(path)]) == 0
    return json.loads((out / "sweep_summary.json").read_text())


def test_criterion_1_massart_label_scaling(tmp_path):
    start = time.perf_counter()
    summary = run_sweep(tmp_path, "mnc", {
        "seed": 1,
        "dist": {"family": "gaussian", "d": 10},
        "noise": {"kind": "massart", "eta": 0.1},
        "epsilon": 0.1,
        "delta": 0.05,
        "profile": "desk",
        "sweep": {"axis": "eta", "values": [0.1, 0.2, 0.3, 0.4]},
    })
    elapsed = time.perf_counter() - start
    assert summary["slope"] == pytest.approx(2.0, abs=0.1)
    assert elapsed < 60.0
    print(f"criterion-1 PASS: massart slope {summary['slope']:.4f} "
          f"(target 2.0 +/- 0.1) in {elapsed:.1f}s")


def test_criterion_2_tsybakov_label_scaling(tmp_path):
    start = time.perf_counter()
    base = {
        "seed": 1,
        "dist": {"family": "gaussian", "d": 10},
        "noise": {"kind": "geometric_tsybakov", "B": 1.0, "alpha": 0.75},
        "delta": 0.05,
        "profile": "desk",
        "sweep": {"axis": "epsilon", "values": [0.2, 0.1, 0.05, 0.025]},
    }
    tnc = run_sweep(tmp_path, "tnc", dict(base, regime="TNC"))
    gtnc = run_sweep(tmp_path, "gtnc", base)
    elapsed = time.perf_counter() - start
    assert tnc["slope"] == pytest.approx(1.0, abs=0.15)
    assert gtnc["slope"] == pytest.approx(2.0 / 3.0, abs=0.15)
    assert elapsed < 120.0
    print(f"criterion-2 PASS: tsybakov slope {tnc['slope']:.4f} (target 1.0 +/- 0.15), "
          f"geometric slope {gtnc['slope']:.4f} (target 0.667 +/- 0.15) in {elapsed:.1f}s")


def test_criterion_3_end_to_end_pac_contract(criterion3_runs):
    runs = criterion3_runs["runs"]
    hits = sum(run["excess"] <= 0.1 for run in runs)
    median_angle = float(np.median([run["final_angle"] for run in runs]))
    assert hits >= 18
    assert median_angle <= PI_R_EPS
    assert criterion3_runs["elapsed"] < 600.0
    print(f"criterion-3 PASS: {hits}/20 runs with excess <= 0.1, median angle "
          f"{median_angle:.3e} <= {PI_R_EPS:.3e}, batch {criterion3_runs['elapsed']:.0f}s")


def test_criterion_4_single_epoch_contract():
    start = time.perf_counter()
    d, r, eta = 5, 1.0 / 16.0, 0.1
    dist = hb.make_distribution("gaussian", d)
    noise = hb.massart(eta)
    b = bandwidth("MNC", r, dist, DESK, eta=eta)
    T = iteration_count("MNC", r, dist, 0.05, DESK, d, eta=eta)
    hits = 0
    for i in range(50):
        rng = np.random.default_rng((2027, i))
        truth = hb.make_ground_truth(d, rng)
        u = rng.standard_normal(d)
        u -= (u @ truth.w_star) * truth.w_star
        w1 = truth.w_star + 4.0 * r * (u / np.linalg.norm(u))
        out = hb.optimize(w1, r, b, T, "average", dist, noise, truth, rng,
                          hb.QueryLedger(), 0.05, DESK)
        hits += float(np.linalg.norm(out - truth.w_star)) <= r
    elapsed = time.perf_counter() - start
    assert hits >= 45
    assert elapsed < 300.0
    print(f"criterion-4 PASS: {hits}/50 epochs landed within r={r} in {elapsed:.1f}s")


def test_criterion_5_initialization_contract():
    start = time.perf_counter()
    d, eta = 5, 0.1
    dist = hb.make_distribution("gaussian", d)
    noise = hb.massart(eta)
    sched = hb.make_schedule("MNC", dist, 0.3, 0.05, DESK, eta=eta)
    hits = 0
    for i in range(20):
        rng = np.random.default_rng((2028, i))
        truth = hb.make_ground_truth(d, rng)
        ledger = hb.QueryLedger()
        u0 = hb.initialize(sched, dist, noise, truth, rng, ledger)
        assert ledger.label_calls == sched.init_label_total()
        hits += float(np.linalg.norm(u0 - truth.w_star)) <= 0.25
    elapsed = time.perf_counter() - start
    assert hits >= 19
    assert elapsed < 600.0
    print(f"criterion-5 PASS: {hits}/20 initializations within 1/4 in {elapsed:.1f}s")


def test_criterion_6_lemma_verification_suite():
    start = time.perf_counter()
    dist = hb.make_distribution("gaussian", 10)
    truth = hb.make_ground_truth(10, np.random.default_rng(61))
    report = hb.verify_lemma_suite(dist, truth, np.random.default_rng(62), samples=10**6)
    elapsed = time.perf_counter() - start
    assert report["passed"]
    failed = [c["check"] for c in report["checks"] if not c["passed"]]
    assert failed == []
    sigmas = [c["margin_sigmas"] for c in report["checks"]
              if c["margin_sigmas"] is not None]
    assert elapsed < 300.0
    print(f"criterion-6 PASS: {len(report['checks'])} checks at 1e6 samples, "
          f"worst statistical margin {min(sigmas):.1f} sigma, in {elapsed:.1f}s")


def test_criterion_7_estimator_oracles():
    dist = hb.make_distribution("gaussian", 10)
    truth = hb.make_ground_truth(10, np.random.default_rng(31))
    noise = hb.massart(0.2)

    # band potential at the optimum: truncated normal absolute moment
    expected_psi = 0.6 * 2.0 * (norm.pdf(0.0) - norm.pdf(1.0)) / (2.0 * norm.cdf(1.0) - 1.0)
    assert expected_psi == pytest.approx(0.27592, abs=5e-6)
    est = hb.estimate_psi(truth.w_star, 1.0, dist, noise, truth, 10**6,
                          np.random.default_rng(314))
    psi_dev = abs(est.value - expected_psi) / est.std_error
    assert psi_dev <= 3.0

    # rejection acceptance rate at b = 0.5, direct binomial draw
    p_true = 0.38292492254802624
    assert dists.band_probability(dist, 0.5) == pytest.approx(p_true, abs=1e-15)
    m = np.random.default_rng(272).standard_normal(10**6)
    p_hat = float(np.mean(np.abs(m) <= 0.5))
    rate_dev = abs(p_hat - p_true) / math.sqrt(p_true * (1.0 - p_true) / 10**6)
    assert rate_dev <= 3.0

    # the sampler's own attempt ledger must show the same acceptance rate
    rng = np.random.default_rng(273)
    ledger = hb.QueryLedger()
    sampler = hb.BandSampler(dist, 0.5, rng, ledger=ledger)
    n = 10**5
    for _ in range(n):
        sampler.draw(truth.w_star)
    ledger_rate = n / ledger.ex_calls
    ledger_dev = abs(ledger_rate - p_true) / (p_true * math.sqrt((1.0 - p_true) / n))
    assert ledger_dev <= 3.0

    # closed-form disagreement vs Monte Carlo on 20 random pairs
    rng = np.random.default_rng(42)
    worst_pair = 0.0
    for k in range(20):
        d = int(rng.integers(3, 12))
        fam = "gaussian" if k % 2 else "uniform_ball"
        dst = hb.make_distribution(fam, d)
        u = hb.normalize(rng.standard_normal(d))
        v = hb.normalize(rng.standard_normal(d))
        q = hb.exact_disagreement(dst, u, v)
        X = dists.sample(dst, rng, 200_000)
        q_hat = float(np.mean(((X @ u) >= 0) != ((X @ v) >= 0)))
        sigma = math.sqrt(max(q * (1.0 - q), 1e-12) / 200_000)
        worst_pair = max(worst_pair, abs(q_hat - q) / sigma)
    assert worst_pair <= 3.0
    print(f"criterion-7 PASS: psi {psi_dev:.2f} sigma, acceptance rate {rate_dev:.2f} "
          f"sigma (ledger {ledger_dev:.2f}), disagreement worst {worst_pair:.2f} sigma")


def test_criterion_8_sparse_variant():
    # (a) sparse schedule totals are affine in ln d
    totals, dense = [], {}
    for d in (50, 100, 200):
        dist = hb.make_distribution("gaussian", d)
        sparse = hb.schedule_for(hb.massart(0.1), dist, 0.1, 0.05, DESK, sparse_s=5)
        totals.append(sparse.total_label_budget())
        dense[d] = hb.schedule_for(hb.massart(0.1), dist, 0.1, 0.05, DESK).total_label_budget()
    x = np.log([50.0, 100.0, 200.0])
    coef = np.polyfit(x, totals, 1)
    pred = np.polyval(coef, x)
    resid = np.asarray(totals, dtype=float) - pred
    r2 = 1.0 - float(np.sum(resid**2) / np.sum((totals - np.mean(totals)) ** 2))
    assert r2 >= 0.99
    ratio = totals[2] / dense[200]
    assert ratio < 0.20

    # (b) mirror step against an independent convex solver, objective gap
    cvxpy = pytest.importorskip("cvxpy")

    def objective(w, u_t, g, alpha, u1, p):
        z_w = np.linalg.norm(w - u1, ord=p) ** 2
        z_u = np.linalg.norm(u_t - u1, ord=p) ** 2
        grad = pnorm_sq_grad(u_t - u1, p)
        breg = (z_w - z_u - 2.0 * float(grad @ (w - u_t))) / (2.0 * (p - 1.0))
        return float(alpha * (g @ w)) + breg

    rng = np.random.default_rng(53)
    worst = 0.0
    for k in range(100):
        d = int(rng.integers(3, 24))
        p = mirror_p(d) if k % 3 else 2.0
        center2 = rng.standard_normal(d)
        center1 = center2 + 0.1 * rng.standard_normal(d)
        constraint = SparseConstraint(
            center2=center2, radius2=float(rng.uniform(0.5, 2.0)),
            center1=center1, radius1=float(rng.uniform(0.5, 2.0)),
        )
        u1 = project_intersection(center1 + 0.05 * rng.standard_normal(d), constraint)
        u_t = project_intersection(rng.standard_normal(d), constraint)
        g = rng.standard_normal(d)
        alpha = float(rng.uniform(0.01, 0.5))
        w_admm, _, _ = bregman_step(u_t, g, alpha, constraint, u1, p)
        w = cvxpy.Variable(d)
        breg = (cvxpy.pnorm(w - u1, p) ** 2
                - np.linalg.norm(u_t - u1, ord=p) ** 2
                - 2.0 * (pnorm_sq_grad(u_t - u1, p) @ (w - u_t))) / (2.0 * (p - 1.0))
        prob = cvxpy.Problem(
            cvxpy.Minimize(alpha * (g @ w) + breg),
            [cvxpy.norm(w - constraint.center2, 2) <= constraint.radius2,
             cvxpy.norm(w - constraint.center1, 1) <= constraint.radius1])
        prob.solve(solver="CLARABEL")
        gap = abs(objective(w_admm, u_t, g, alpha, u1, p)
                  - objective(np.asarray(w.value), u_t, g, alpha, u1, p))
        worst = max(worst, gap)
    assert worst <= 1e-4
    print(f"criterion-8 PASS: schedule fit R^2 {r2:.8f}, sparse/dense ratio "
          f"{ratio:.3f} at d=200, worst solver gap {worst:.2e} over 100 instances")


def test_criterion_9_property_suites(criterion3_runs):
    # (a) geometry inequalities, zero violations over 1e4 pairs
    rng = np.random.default_rng(91)
    violations = 0
    for _ in range(10**4):
        d = int(rng.integers(2, 16))
        w = rng.standard_normal(d) * float(rng.uniform(0.1, 10.0))
        u = hb.normalize(rng.standard_normal(d))
        theta = hb.angle(w, u)
        violations += not (
            np.linalg.norm(hb.normalize(w) - u) <= 2.0 * np.linalg.norm(w - u) + 1e-12
        )
        violations += not (theta <= math.pi * np.linalg.norm(w - u) + 1e-12)
        violations += not (
            np.linalg.norm(hb.normalize(w) - u) <= hb.angle(hb.normalize(w), u) + 1e-12
        )
    assert violations == 0

    # (b) ledger exactness and iterate feasibility on every end-to-end run
    for run in criterion3_runs["runs"]:
        result = run["result"]
        assert result.ledger.label_calls == result.schedule.total_label_budget()
        assert result.ledger.max_feasibility_gap <= 1e-9

    # (c) identical (config, seed) reruns are byte-identical
    def one():
        return hb.learn(hb.LearnerConfig(
            dist=hb.make_distribution("gaussian", 3),
            noise=hb.massart(0.1),
            epsilon=0.45,
            delta=0.05,
            seed=(909, 0),
            profile=DESK,
        ))

    a, b = one(), one()
    assert a.v.tobytes() == b.v.tobytes()
    assert a.ledger == b.ledger
    assert a.trace == b.trace
    print("criterion-9 PASS: 0 geometry violations over 1e4 pairs, ledger and "
          "feasibility invariants hold on all 20 runs, reruns byte-identical")
