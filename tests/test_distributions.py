"""Distribution families, certified density constants, band mass, disagreement."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import kstest

import halfband as hb
from halfband import distributions as dists
from halfband.errors import InvalidInputError

ROOT = Path(__file__).resolve().parent.parent
GAUSS_U = 1.0 / (2.0 * math.pi)
GAUSS_L = GAUSS_U * math.exp(-0.5)


def test_default_params_gaussian():
    dist = hb.make_distribution("gaussian", 6)
    assert dist.U == pytest.approx(GAUSS_U, rel=1e-14)
    assert dist.L == pytest.approx(GAUSS_L, rel=1e-14)
    assert dist.R == 1.0 and dist.beta == 1.0
    # six-decimal reference values
    assert dist.U == pytest.approx(0.159155, abs=5e-7)
    assert dist.L == pytest.approx(0.096532, abs=5e-7)


def test_default_params_uniform_ball():
    d = 5
    dist = hb.make_distribution("uniform_ball", d)
    rho = math.sqrt(d + 2)
    assert dist.radius == pytest.approx(rho, rel=1e-14)
    u_expected = d / (2.0 * math.pi * rho * rho)
    assert dist.U == pytest.approx(u_expected, rel=1e-12)
    assert dist.L == pytest.approx(u_expected * (1 - 1 / rho**2) ** ((d - 2) / 2), rel=1e-12)
    assert dist.L <= dist.U


DIMENSION = r"dimension must be an integer in \[2, 9007199254740992\]"  # [2, 2^53]


def test_make_distribution_validation():
    with pytest.raises(InvalidInputError):
        hb.make_distribution("triangle", 3)
    with pytest.raises(InvalidInputError, match="unknown family 'laplace'"):
        hb.make_distribution("laplace", 5, params=(0.05, 1.0, 0.16, 1.0))
    for family, d in (("gaussian", 0), ("uniform_ball", 1), ("uniform_ball", -2)):
        with pytest.raises(InvalidInputError, match=DIMENSION):
            hb.make_distribution(family, d)
    # the type checks d itself, so dataclasses.replace cannot get round it
    with pytest.raises(InvalidInputError, match=DIMENSION):
        dataclasses.replace(hb.make_distribution("uniform_ball", 3), d=1)
    with pytest.raises(InvalidInputError, match=DIMENSION):
        dataclasses.replace(hb.make_distribution("gaussian", 3), d=0)
    for d in (2.5, True, "3"):
        with pytest.raises(InvalidInputError, match=DIMENSION):
            dataclasses.replace(hb.make_distribution("gaussian", 3), d=d)
    # d is checked before it is used, with or without params; a bool is not a real parameter
    for params in (None, (0.05, 1.0, 0.16, 1.0)):
        with pytest.raises(InvalidInputError, match=DIMENSION):
            hb.make_distribution("gaussian", 10.5, params=params)
    # d is capped at 2^53, where the schedules and the ball's constants take it as a float
    for family in ("gaussian", "uniform_ball"):
        hb.make_distribution(family, 2**53)
        for d in (2**53 + 1, 10**400):
            with pytest.raises(InvalidInputError, match=DIMENSION):
                hb.make_distribution(family, d)
            with pytest.raises(InvalidInputError, match=DIMENSION):
                dataclasses.replace(hb.make_distribution(family, 3), d=d)
    # params are four values: not a number, a 0-d array, three values or five
    for params in (5.0, np.array(5.0), (1, 1, 1), (0.05, 1.0, 0.16, 1.0, 1.0)):
        with pytest.raises(InvalidInputError, match=r"params must be a sequence of four values"):
            hb.make_distribution("gaussian", 3, params=params)
    for params in (("0.05", "1", "0.2", "1"), (0.05, True, 0.16, 1.0)):
        with pytest.raises(InvalidInputError, match=r"params\[[0-3]\] must be a real number"):
            hb.make_distribution("gaussian", 3, params=params)
    # numpy integers and reals pass, as the ints and floats they hold
    dist = hb.make_distribution("gaussian", np.int64(3), params=np.array([0.05, 1, 0.16, 1]))
    assert dist == hb.make_distribution("gaussian", 3, params=(0.05, 1.0, 0.16, 1.0))
    assert type(dist.d) is int and type(dist.L) is float


@pytest.mark.parametrize("n", [2.5, True, np.float64(2.0), "3", -1])
def test_sample_count_must_be_an_integer(n):
    dist, rng = hb.make_distribution("gaussian", 3), np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(InvalidInputError,
                       match=r"sample: n must be an integer in \[0, 9007199254740992\]"):
        hb.sample(dist, rng, n)
    assert rng.bit_generator.state == state
    X = hb.sample(dist, rng, np.int64(3))
    assert np.array_equal(X, hb.sample(dist, np.random.default_rng(5), 3))


@pytest.mark.parametrize("samples", [2.5, 0, True, -5, "100"])
def test_certify_sample_count_must_be_an_integer(samples):
    dist, rng = hb.make_distribution("gaussian", 3), np.random.default_rng(6)
    state = rng.bit_generator.state
    with pytest.raises(InvalidInputError, match="certify_parameters needs at least one sample"):
        hb.certify_parameters(dist, rng, samples=samples)
    assert rng.bit_generator.state == state
    assert hb.certify_parameters(dist, rng, samples=np.int64(50))["samples"] == 50


@pytest.mark.parametrize(
    "params",
    [
        (1e-3, 1.0, 1e300, 1e10),  # U * beta overflows: certify's band-mass margin was NaN
        (0.05, 1.0, math.inf, 1.0),
        (0.05, math.nan, 0.16, 1.0),
        (1e-200, 1.0, 1e-200, 1e-200),  # U * beta underflows to 0
        (1e-301, 1.0, 1e-300, 1e-10),  # the schedule arithmetic underflows
        (0.05, 1e200, 0.16, 1.0),  # R**2 overflows in the lemma bounds
        (0.05, 1.0, 0.16, 2e100),
    ],
)
def test_make_distribution_rejects_constants_out_of_range(params):
    with pytest.raises(InvalidInputError, match=r"must each lie in \[1e-100, 1e\+100\]"):
        hb.make_distribution("gaussian", 3, params=params)


def test_make_distribution_accepts_the_range_ends():
    lo, hi = dists.PARAM_RANGE
    dist = hb.make_distribution("gaussian", 3, params=(lo, hi, hi, lo))
    assert (dist.L, dist.R, dist.U, dist.beta) == (lo, hi, hi, lo)
    with pytest.raises(InvalidInputError, match="L <= U"):
        hb.make_distribution("gaussian", 3, params=(0.2, 1.0, 0.1, 1.0))


@pytest.mark.parametrize("params", [(1e-100,) * 4, (1e100,) * 4, (0.05, 1e-100, 0.16, 1e-100),
                                    (0.05, 1.0, 0.16, 1e-3), (0.05, 1.0, 0.16, 100.0)])
def test_certify_margins_stay_finite_at_extreme_constants(params):
    # a tail bound that underflows to 0, or a band-mass upper bound that goes negative
    # (b U beta > 2), fails its check with a finite, negative margin and no warning
    report = hb.certify_parameters(hb.make_distribution("gaussian", 3, params=params),
                                   np.random.default_rng(21), samples=500)
    json.dumps(report, allow_nan=False)
    for c in report["checks"]:
        assert c["passed"] == (c["margin"] >= 0.0), c


def test_gaussian_moments():
    rng = np.random.default_rng(11)
    X = hb.sample(hb.make_distribution("gaussian", 2), rng, n=10**6)
    assert np.max(np.abs(X.mean(axis=0))) < 0.003  # 3 sigma of the mean
    assert np.allclose(X.var(axis=0), 1.0, atol=0.01)


def test_uniform_ball_second_moment_is_dimension():
    rng = np.random.default_rng(12)
    X = hb.sample(hb.make_distribution("uniform_ball", 3), rng, n=10**6)
    assert float((X**2).sum(axis=1).mean()) == pytest.approx(3.0, rel=0.02)
    assert float(np.max(np.linalg.norm(X, axis=1))) <= math.sqrt(5.0) + 1e-9


def test_band_probability_gaussian_frozen_value():
    dist = hb.make_distribution("gaussian", 4)
    value = hb.band_probability(dist, 0.5)
    assert value == pytest.approx(0.38292492254802624, rel=1e-14)
    assert value == pytest.approx(2.0 * ndtr(0.5) - 1.0, rel=1e-14)
    assert hb.band_probability(dist, 50.0) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("b", ["0.5", True])
def test_band_probability_bandwidth_must_be_a_real_number(b):
    with pytest.raises(InvalidInputError, match="band_probability: b must be a real number"):
        hb.band_probability(hb.make_distribution("gaussian", 4), b)


def test_band_probability_within_analysis_bounds():
    dist = hb.make_distribution("gaussian", 4)
    for b in (0.02, 0.05, 0.1, 0.2, 0.5):
        mass = hb.band_probability(dist, b)
        lower = b * dist.R * dist.L
        upper = 4.0 * b * dist.U * dist.beta * math.log(2.0 / (b * dist.U * dist.beta))
        assert lower <= mass <= upper


def test_band_probability_monte_carlo_cross_check():
    rng = np.random.default_rng(13)
    for family, d in (("gaussian", 6), ("uniform_ball", 4)):
        dist = hb.make_distribution(family, d)
        X = hb.sample(dist, rng, n=2 * 10**5)
        w = np.zeros(d)
        w[0] = 1.0
        for b in (0.1, 0.5):
            p = hb.band_probability(dist, b)
            hit = float(np.mean(np.abs(X @ w) <= b))
            se = math.sqrt(p * (1 - p) / X.shape[0])
            assert abs(hit - p) <= 3.0 * se


def test_uniform_ball_projected_density_at_origin():
    # fraction inside a small 2-d disk / disk area approximates the marginal peak U
    d = 3
    dist = hb.make_distribution("uniform_ball", d)
    rng = np.random.default_rng(14)
    X = hb.sample(dist, rng, n=10**6)
    h = 0.3
    frac = float(np.mean(X[:, 0] ** 2 + X[:, 1] ** 2 <= h * h))
    density = frac / (math.pi * h * h)
    assert density == pytest.approx(dist.U, rel=0.05)


@pytest.mark.parametrize("d", [2, 3, 10])
def test_uniform_ball_projected_density_vanishes_outside_its_support(d):
    # at d = 2 the density's power is 0, and 0 ** 0 is 1: outside the disk it must still be 0
    dist = hb.make_distribution("uniform_ball", d)
    rho = dist.radius
    inside = dists.projected_density_2d(dist, np.array([[0.0, 0.0], [0.5 * rho, 0.0]]))
    assert np.all(inside > 0.0)
    outside = dists.projected_density_2d(dist, np.array([[1.01 * rho, 0.0], [5.0 * rho, 3.0]]))
    assert outside.tolist() == [0.0, 0.0]
    if d == 2:  # uniform on the disk: 1 / (pi rho^2) up to its edge
        assert inside.tolist() == pytest.approx([1.0 / (math.pi * rho**2)] * 2, rel=1e-12)
    # certification evaluates the density at |z| = R: an R past the support fails
    report = hb.certify_parameters(
        hb.make_distribution("uniform_ball", d, params=(dist.L, 10.0, dist.U, 1.0)),
        np.random.default_rng(21), samples=200)
    (lower,) = [c for c in report["checks"] if c["check"] == "projected-density-lower"]
    assert not lower["passed"] and lower["detail"]["min_density"] == 0.0


@pytest.mark.parametrize("family", ["gaussian", "uniform_ball"])
def test_certify_density_checks_are_exact_at_the_extremes(family):
    # the projected density is evaluated at |z| = R and 0, so an L raised or a U lowered
    # by 1e-7 relative fails on every seed, where sampled points let both pass
    dist = hb.make_distribution(family, 10)
    raised = dataclasses.replace(dist, L=dist.L * (1.0 + 1e-7))
    lowered = dataclasses.replace(dist, U=dist.U * (1.0 - 1e-7))
    for seed in range(10):
        for bad, name in ((raised, "projected-density-lower"),
                          (lowered, "projected-density-upper")):
            report = hb.certify_parameters(bad, np.random.default_rng((78, seed)), samples=200)
            (check,) = [c for c in report["checks"] if c["check"] == name]
            assert not check["passed"] and check["margin"] < 0.0, (seed, name)
    report = hb.certify_parameters(dist, np.random.default_rng(79), samples=200)
    detail = {c["check"]: c["detail"] for c in report["checks"]}
    assert detail["projected-density-lower"]["min_density"] == float(
        dists.projected_density_2d(dist, np.array([dist.R, 0.0])))
    assert detail["projected-density-upper"]["max_density"] == float(
        dists.projected_density_2d(dist, np.zeros(2)))


def test_gaussian_tail_bound_beta_one():
    # P(|<w,x>| >= t) = 2(1 - Phi(t)) <= e^{1-t} on the grid
    for t in np.arange(0.5, 6.5, 0.5):
        assert 2.0 * (1.0 - ndtr(t)) <= math.exp(1.0 - t)


def test_truncated_margin_matches_conditional_law():
    rng = np.random.default_rng(15)
    for family, d in (("gaussian", 5), ("uniform_ball", 5)):
        dist = hb.make_distribution(family, d)
        b = 0.4
        m = dists.truncated_margin(dist, b, 2.0 * rng.random(10**5) - 1.0)
        assert float(np.max(np.abs(m))) <= b + 1e-12
        denom = 2.0 * dists.margin_cdf(dist, b) - 1.0

        def cdf(x, dist=dist, denom=denom, b=b):
            x = np.clip(x, -b, b)
            return (dists.margin_cdf(dist, x) - dists.margin_cdf(dist, -b)) / denom

        assert kstest(m, cdf).pvalue > 0.01


def test_truncated_margin_gaussian_wide_band_stays_finite():
    # ndtr(b) rounds to 1 for b >~ 8.3, where u = -1 used to map to -inf
    dist = hb.make_distribution("gaussian", 5)
    u = np.concatenate([[-1.0, -1.0 + 1e-16, 0.0, 1.0 - 1e-16],
                        2.0 * np.random.default_rng(16).random(1000) - 1.0])
    for b in (7.0, 9.0, 20.0):
        m = dists.truncated_margin(dist, b, u)
        assert np.all(np.isfinite(m))
        assert float(np.max(np.abs(m))) <= b


def test_exact_disagreement_examples():
    dist = hb.make_distribution("gaussian", 2)
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    assert hb.exact_disagreement(dist, u, u) == 0.0
    assert hb.exact_disagreement(dist, u, -u) == pytest.approx(1.0, rel=1e-12)
    assert hb.exact_disagreement(dist, u, v) == pytest.approx(0.5, rel=1e-12)


def test_exact_disagreement_monte_carlo():
    rng = np.random.default_rng(16)
    dist = hb.make_distribution("gaussian", 5)
    u = hb.normalize(rng.standard_normal(5))
    v = hb.normalize(rng.standard_normal(5))
    p = hb.exact_disagreement(dist, u, v)
    X = hb.sample(dist, rng, n=10**6)
    hit = float(np.mean(((X @ u) >= 0) != ((X @ v) >= 0)))
    assert abs(hit - p) <= 3.0 * math.sqrt(p * (1 - p) / 10**6)


def test_margin_density_at_zero():
    g = hb.make_distribution("gaussian", 3)
    assert dists.margin_density_at_zero(g) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)
    ball = hb.make_distribution("uniform_ball", 3)
    # d=3, rho=sqrt(5): marginal of uniform ball at 0 is Gamma(5/2+... ) closed form
    expected = math.gamma(2.5) / (math.sqrt(math.pi) * math.gamma(2.0) * math.sqrt(5.0))
    assert dists.margin_density_at_zero(ball) == pytest.approx(expected, rel=1e-12)


def test_ball_margin_density_stays_finite_at_high_d():
    # Gamma(d/2 + 1) overflows from d = 342 on and Gamma((d+1)/2) from d = 343; their ratio, as
    # a Beta, does not. The ball's margin tends to N(0, 1), so its density at 0 rises to the
    # Gaussian's
    gauss = 1.0 / math.sqrt(2.0 * math.pi)
    values = [dists.margin_density_at_zero(hb.make_distribution("uniform_ball", d))
              for d in (340, 342, 343, 345, 400, 10**6)]
    assert all(math.isfinite(v) for v in values)
    assert values == sorted(values) and values[-1] < gauss
    assert values[-1] == pytest.approx(gauss, rel=1e-6)
    # the closed forms agree where the Gammas are finite
    d = 340
    expected = math.gamma(d / 2 + 1) / (math.sqrt(math.pi) * math.gamma((d + 1) / 2))
    assert values[0] == pytest.approx(expected / math.sqrt(d + 2), rel=1e-12)
    # so the lemma suite's TNC bounds, which read it through A, stay finite on such a ball
    report = hb.verify_lemma_suite(hb.make_distribution("uniform_ball", 400),
                                   hb.make_ground_truth(400, np.random.default_rng(0)),
                                   np.random.default_rng(1), samples=2000)
    assert all(math.isfinite(c["bound"]) for c in report["checks"])


def test_isotropy_ks_across_directions():
    rng = np.random.default_rng(17)
    dist = hb.make_distribution("gaussian", 6)
    X = hb.sample(dist, rng, n=10**5)
    for _ in range(5):
        w = hb.normalize(rng.standard_normal(6))
        assert kstest(X @ w, lambda x: ndtr(x)).pvalue > 0.01


def test_certify_parameters_defaults_pass():
    rng = np.random.default_rng(18)
    for family in ("gaussian", "uniform_ball"):
        report = hb.certify_parameters(hb.make_distribution(family, 6), rng)
        assert report["passed"], report
        names = {c["check"] for c in report["checks"]}
        assert {"projected-density-lower", "tail-bound"} <= names


IMPORT_PROBE = """
import json, sys
import numpy as np
import halfband, halfband.cli
heavy = ("scipy.stats", "scipy.optimize")
at_import = sorted(m for m in sys.modules if m.startswith(heavy))
report = halfband.certify_parameters(
    halfband.make_distribution("gaussian", 3), np.random.default_rng(5), samples=2000
)
checks = [c["check"] for c in report["checks"]]
print(json.dumps({"at_import": at_import, "passed": report["passed"], "checks": checks,
                  "stats_loaded": "scipy.stats" in sys.modules}))
"""


def test_import_loads_no_scipy_stats_and_certify_still_runs():
    # a fresh interpreter: the test process itself has scipy.stats loaded already
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout)
    assert out["at_import"] == []
    assert out["passed"]
    assert "isotropy-ks" in out["checks"]
    assert out["stats_loaded"]


def test_certify_isotropy_family_wise_level():
    # the five KS tests share the 1% level (Bonferroni), so over 300 seeds a
    # correct sampler fails the check about 3 times, and 8 is far out in the tail
    dist = hb.make_distribution("gaussian", 10)
    failures = 0
    for s in range(300):
        report = hb.certify_parameters(dist, np.random.default_rng((77, s)), samples=2000)
        (iso,) = [c for c in report["checks"] if c["check"] == "isotropy-ks"]
        failures += not iso["passed"]
    assert iso["detail"]["significance"] == 0.01
    assert iso["detail"]["per_test_significance"] == pytest.approx(0.002)
    assert failures <= 8


def test_certify_flags_doubled_density_floor():
    import dataclasses

    rng = np.random.default_rng(19)
    dist = hb.make_distribution("gaussian", 6)
    bad = dataclasses.replace(dist, L=2.0 * dist.L)
    report = hb.certify_parameters(bad, rng)
    failing = {c["check"] for c in report["checks"] if not c["passed"]}
    assert "projected-density-lower" in failing


def test_certify_flags_overtight_tail_scale():
    import dataclasses

    rng = np.random.default_rng(20)
    dist = hb.make_distribution("gaussian", 6)
    bad = dataclasses.replace(dist, beta=dist.beta / 3.0)
    report = hb.certify_parameters(bad, rng)
    failing = {c["check"] for c in report["checks"] if not c["passed"]}
    assert "tail-bound" in failing


def test_exact_disagreement_requires_symmetric_family():
    import dataclasses

    # every family is spherically symmetric, and no other family can be built
    dist = hb.make_distribution("gaussian", 3)
    with pytest.raises(InvalidInputError, match="unknown family 'crooked'"):
        dataclasses.replace(dist, family="crooked")


@given(st.floats(0.01, 3.0), st.floats(0.01, 3.0))
@settings(max_examples=60, deadline=None)
def test_band_probability_monotone(b1, b2):
    dist = hb.make_distribution("gaussian", 3)
    lo, hi = sorted((b1, b2))
    p_lo, p_hi = hb.band_probability(dist, lo), hb.band_probability(dist, hi)
    assert 0.0 <= p_lo <= p_hi <= 1.0
