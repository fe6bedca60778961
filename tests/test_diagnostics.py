"""Band-potential estimator, excess risk, and the lemma verification suite."""

import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import norm

import halfband as hb
from halfband import diagnostics
from halfband.diagnostics import CHUNK, _band_batch
from halfband.errors import InvalidInputError, UnsupportedRegimeError

GAUSS5 = hb.make_distribution("gaussian", 5)


def fixed_truth(d, seed=11):
    return hb.make_ground_truth(d, np.random.default_rng(seed))


def orthogonal_to(w_star, rng):
    z = rng.standard_normal(w_star.shape[0])
    z -= (z @ w_star) * w_star
    return z / np.linalg.norm(z)


def test_psi_at_truth_matches_truncated_normal_moment():
    # band around w* itself: psi = (1-2*eta) * E[|m| : |m| <= b], m standard normal
    b = 1.0
    eta = 0.2
    expected = (1.0 - 2.0 * eta) * (
        2.0 * (norm.pdf(0.0) - norm.pdf(b)) / (2.0 * norm.cdf(b) - 1.0)
    )
    assert expected == pytest.approx(0.27591734, abs=5e-8)
    truth = fixed_truth(5)
    est = hb.estimate_psi(truth.w_star, b, GAUSS5, hb.massart(eta), truth, 200_000,
                          np.random.default_rng(77))
    assert abs(est.value - expected) <= 3.0 * est.std_error
    assert est.sample_count == 200_000


def test_psi_degenerate_noise_vanishes():
    truth = fixed_truth(5)
    est = hb.estimate_psi(truth.w_star, 0.5, GAUSS5, hb.massart(0.4999999999999999),
                          truth, 1000, np.random.default_rng(7))
    assert 0.0 <= est.value <= 1e-12


def test_psi_scale_invariant_same_stream():
    truth = fixed_truth(5)
    w = np.array([3.0, -1.0, 0.5, 0.25, 2.0])
    a = hb.estimate_psi(w, 0.3, GAUSS5, hb.massart(0.2), truth, 5000,
                        np.random.default_rng(8))
    b = hb.estimate_psi(2.0 * w, 0.3, GAUSS5, hb.massart(0.2), truth, 5000,
                        np.random.default_rng(8))
    assert a.value == b.value
    assert a.std_error == b.std_error


def test_psi_nonnegative_and_validation():
    truth = fixed_truth(5)
    rng = np.random.default_rng(9)
    for _ in range(5):
        w = rng.standard_normal(5)
        est = hb.estimate_psi(w, 0.2, GAUSS5, hb.geometric_tsybakov(1.0, 0.75), truth,
                              2000, rng)
        assert est.value >= 0.0  # integrand is pointwise nonnegative
    with pytest.raises(InvalidInputError):
        hb.estimate_psi(truth.w_star, 0.0, GAUSS5, hb.massart(0.1), truth, 100, rng)
    with pytest.raises(InvalidInputError):
        hb.estimate_psi(truth.w_star, 0.5, GAUSS5, hb.massart(0.1), truth, 0, rng)
    ball = hb.make_distribution("uniform_ball", 4)
    with pytest.raises(InvalidInputError):
        hb.estimate_psi(np.ones(4), ball.radius * 1.5, ball, hb.massart(0.1),
                        hb.make_ground_truth(4, rng), 100, rng)


def test_psi_exceeds_massart_lower_bound_at_orthogonal():
    # tilde angle pi/2, bound (1-2*eta) R^2 L theta / (128 U beta log(2/(b U beta)))
    truth = fixed_truth(5)
    rng = np.random.default_rng(10)
    w = orthogonal_to(truth.w_star, rng)
    b, eta = 0.1, 0.2
    d = GAUSS5
    bound = (
        (1.0 - 2.0 * eta) * d.R**2 * d.L
        / (128.0 * d.U * d.beta * math.log(2.0 / (b * d.U * d.beta)))
        * (math.pi / 2.0)
    )
    est = hb.estimate_psi(w, b, d, hb.massart(eta), truth, 200_000, rng)
    assert est.value >= bound - 3.0 * est.std_error


def test_excess_error_exact_values():
    truth = fixed_truth(5)
    rng = np.random.default_rng(12)
    v = orthogonal_to(truth.w_star, rng)
    assert hb.excess_error(v, GAUSS5, hb.massart(0.2), truth) == pytest.approx(0.3, abs=1e-12)
    assert hb.excess_error(truth.w_star, GAUSS5, hb.massart(0.2), truth) == 0.0
    noisy = hb.excess_error(-truth.w_star, GAUSS5, hb.massart(0.1), truth)
    assert noisy == pytest.approx(0.8, abs=1e-12)


def test_excess_error_exact_rejects_varying_noise():
    truth = fixed_truth(5)
    with pytest.raises(UnsupportedRegimeError):
        hb.excess_error(truth.w_star, GAUSS5, hb.geometric_tsybakov(1.0, 0.75), truth,
                        method="exact")
    with pytest.raises(InvalidInputError):
        hb.excess_error(truth.w_star, GAUSS5, hb.massart(0.1), truth, method="mode")
    with pytest.raises(InvalidInputError):
        hb.excess_error(truth.w_star, GAUSS5, hb.massart(0.1), truth, method="mc")


@pytest.mark.parametrize("n", [0, -3])
def test_excess_error_mc_needs_a_sample(n):
    truth = fixed_truth(5)
    with pytest.raises(InvalidInputError, match="at least one sample"):
        hb.excess_error(truth.w_star, GAUSS5, hb.massart(0.1), truth,
                        rng=np.random.default_rng(1), n=n, method="mc")


def test_excess_error_mc_agrees_with_exact():
    n = 200_000
    rng = np.random.default_rng(13)
    for k in range(20):
        d = int(rng.integers(3, 9))
        dist = hb.make_distribution("gaussian" if k % 2 else "uniform_ball", d)
        eta = float(rng.uniform(0.0, 0.45))
        truth = hb.make_ground_truth(d, rng)
        theta = float(rng.uniform(0.05, 3.0))
        z = orthogonal_to(truth.w_star, rng)
        v = math.cos(theta) * truth.w_star + math.sin(theta) * z
        exact = hb.excess_error(v, dist, hb.massart(eta), truth)
        mc = hb.excess_error(v, dist, hb.massart(eta), truth, rng=rng, n=n, method="mc")
        q = theta / math.pi
        sigma = (1.0 - 2.0 * eta) * math.sqrt(q * (1.0 - q) / n)
        assert abs(mc - exact) <= 3.0 * sigma + 1e-9


def test_suite_passes_gaussian():
    truth = fixed_truth(5, seed=21)
    report = hb.verify_lemma_suite(GAUSS5, truth, np.random.default_rng(22),
                                   samples=10**5)
    assert report["passed"]
    assert len(report["checks"]) == 41
    assert report["family"] == "gaussian"
    assert report["samples"] == 10**5
    for c in report["checks"]:
        assert {"check", "setting", "measured", "bound", "std_error",
                "margin_sigmas", "passed"} <= set(c)
        assert c["passed"]


def test_suite_passes_uniform_ball():
    ball = hb.make_distribution("uniform_ball", 4)
    truth = hb.make_ground_truth(4, np.random.default_rng(23))
    report = hb.verify_lemma_suite(ball, truth, np.random.default_rng(24),
                                   samples=10**5)
    assert report["passed"]
    names = {c["check"] for c in report["checks"]}
    assert "psi-lower-mnc" in names and "noise-tail" in names


def test_suite_detects_corrupted_band_mass_constant():
    # inflating L makes the closed-form band mass undershoot its claimed floor
    bad = dataclasses.replace(GAUSS5, L=GAUSS5.L * 10.0)
    truth = fixed_truth(5, seed=25)
    report = hb.verify_lemma_suite(bad, truth, np.random.default_rng(26), samples=10**4)
    assert not report["passed"]
    failed = [c for c in report["checks"] if not c["passed"]]
    assert any(c["check"] == "band-mass-lower" for c in failed)


def test_suite_respects_supplied_noise():
    truth = fixed_truth(5, seed=27)
    report = hb.verify_lemma_suite(GAUSS5, truth, np.random.default_rng(28),
                                   noise=hb.massart(0.35), samples=10**4)
    assert report["passed"]


def test_suite_excess_lower_mnc_is_exact_for_constant_eta():
    truth = fixed_truth(5, seed=29)
    report = hb.verify_lemma_suite(GAUSS5, truth, np.random.default_rng(30),
                                   noise=hb.massart(0.35), samples=10**4)
    assert len(report["checks"]) == 41
    mnc = [c for c in report["checks"] if c["check"] == "excess-lower-mnc"]
    assert len(mnc) == 3
    for c in mnc:
        q = c["setting"]["disagreement"]
        assert c["measured"] == c["bound"] == (1.0 - 2.0 * 0.35) * q
        assert c["std_error"] == 0.0
        assert c["margin_sigmas"] is None
        assert c["passed"]


def test_suite_excess_lower_mnc_stays_monte_carlo_for_band_noise():
    truth = fixed_truth(5, seed=31)
    report = hb.verify_lemma_suite(GAUSS5, truth, np.random.default_rng(32),
                                   noise=hb.massart_band(0.3, 0.5), samples=10**4)
    assert len(report["checks"]) == 41
    mnc = [c for c in report["checks"] if c["check"] == "excess-lower-mnc"]
    assert len(mnc) == 3
    for c in mnc:
        assert c["std_error"] > 0.0
        assert c["margin_sigmas"] is not None
        assert c["measured"] != c["bound"]
        assert c["passed"]


@pytest.mark.parametrize("samples", [1, 0])
def test_suite_needs_two_samples(samples):
    truth = fixed_truth(5, seed=33)
    with pytest.raises(InvalidInputError, match="at least 2 samples"):
        hb.verify_lemma_suite(GAUSS5, truth, np.random.default_rng(34), samples=samples)


@pytest.mark.parametrize(
    "params, B, message",
    [
        # (t / B)^3 underflows to 0 at B = 1e300, so log(2 / (U beta z)) divides by zero
        (None, 1e300, "bounds fail at these parameters: float division by zero"),
        # at B = 1e-100 the noise-tail bound is -7e301, -inf standard errors from 1.0
        ((1e-100, 1e-100, 1.0, 1.0), 1e-100, r"not finite at these parameters: \['noise-tail'\]"),
    ],
)
def test_suite_bound_overflow_is_invalid_input(params, B, message):
    dist = hb.make_distribution("gaussian", 5, params)
    truth = fixed_truth(5, seed=35)
    with pytest.raises(InvalidInputError, match=message):
        hb.verify_lemma_suite(dist, truth, np.random.default_rng(36),
                              noise=hb.geometric_tsybakov(B, 0.75), samples=100)


BALL4 = hb.make_distribution("uniform_ball", 4)


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1])
def test_estimators_at_chunk_edges(n):
    noise = hb.geometric_tsybakov(1.0, 0.75)
    for dist in (GAUSS5, BALL4):
        truth = fixed_truth(dist.d, seed=37)
        w = orthogonal_to(truth.w_star, np.random.default_rng(38)) + truth.w_star
        runs = [hb.estimate_psi(w, 0.3, dist, noise, truth, n, np.random.default_rng(39))
                for _ in range(2)]
        assert runs[0].sample_count == n
        assert math.isfinite(runs[0].value) and math.isfinite(runs[0].std_error)
        assert repr(runs[0]) == repr(runs[1])
        excess = [hb.excess_error(w, dist, noise, truth, rng=np.random.default_rng(40), n=n,
                                  method="mc") for _ in range(2)]
        assert math.isfinite(excess[0]) and excess[0].hex() == excess[1].hex()


def test_psi_stream_is_chunk_major():
    # n = CHUNK + 5 draws a CHUNK-row band batch, then a 5-row one, from the same stream
    noise = hb.geometric_tsybakov(1.0, 0.75)
    truth = fixed_truth(5, seed=41)
    w = hb.normalize(orthogonal_to(truth.w_star, np.random.default_rng(42)) + truth.w_star)
    rng = np.random.default_rng(43)
    clone = copy.deepcopy(rng)
    est = hb.estimate_psi(w, 0.3, GAUSS5, noise, truth, CHUNK + 5, rng)
    m = np.concatenate([_band_batch(GAUSS5, w, 0.3, clone, k) @ truth.w_star
                        for k in (CHUNK, 5)])
    vals = (1.0 - 2.0 * hb.eta_of_margin(noise, m)) * np.abs(m)
    assert est.value == float(vals.mean())
    assert est.std_error == float(vals.std(ddof=1) / math.sqrt(CHUNK + 5))
    assert rng.bit_generator.state == clone.bit_generator.state


def test_estimators_memory_stays_below_one_batch_array(monkeypatch):
    # at Gaussian d=50 a whole (n, d) float64 batch is 105 MB at n = 4 CHUNK; streamed,
    # each estimator holds a few CHUNK-row arrays (26 MB each) and O(n) per-row values.
    # The suite's nine psi estimates would take 4 s here; estimate_psi is measured on
    # its own, so inside the suite it draws 2 rows and the suite's own batch is measured
    d, n = 50, 4 * CHUNK
    dist = hb.make_distribution("gaussian", d)
    truth = fixed_truth(d, seed=44)
    noise = hb.geometric_tsybakov(1.0, 0.75)
    w = orthogonal_to(truth.w_star, np.random.default_rng(45))
    calls = {
        "estimate_psi": lambda rng: hb.estimate_psi(w, 0.1, dist, noise, truth, n, rng),
        "excess_error": lambda rng: hb.excess_error(w, dist, noise, truth, rng=rng, n=n,
                                                    method="mc"),
        "verify_lemma_suite": lambda rng: hb.verify_lemma_suite(dist, truth, rng, samples=n),
    }
    psi = diagnostics.estimate_psi
    for name, call in calls.items():
        if name == "verify_lemma_suite":
            monkeypatch.setattr(diagnostics, "estimate_psi",
                                lambda *args: psi(*args[:5], 2, args[6]))
        tracemalloc.start()
        try:
            call(np.random.default_rng(46))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * d * 8, f"{name} peaked at {peak / 1e6:.1f} MB"
