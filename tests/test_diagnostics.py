"""Band-potential estimator, excess risk, and the lemma verification suite."""

import copy
import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from lockstep_reads import lockstep_draws
from scipy.stats import norm

import halfband as hb
from halfband import diagnostics
from halfband import distributions as dists
from halfband import oracles
from halfband.diagnostics import CHUNK, _excess_mc, _moments, _plane
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
    for b in (0.0, "0.2", True):
        with pytest.raises(InvalidInputError):
            hb.estimate_psi(truth.w_star, b, GAUSS5, hb.massart(0.1), truth, 100, rng)
    for n in (0, 2.5, True):
        with pytest.raises(InvalidInputError):
            hb.estimate_psi(truth.w_star, 0.5, GAUSS5, hb.massart(0.1), truth, n, rng)
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


@pytest.mark.parametrize("n", [0, -3, 2.5, True])
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


@pytest.mark.parametrize("samples", [1, 0, 2.5, 2.0])
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


def _chunked(values):
    """rows(k) for _moments: the next k columns of values, copied (the reducer overwrites them)."""
    pos = 0

    def rows(k):
        nonlocal pos
        pos += k
        return values[..., pos - k : pos].copy()

    return rows


def test_moments_of_one_and_two_values():
    mean, se = _moments(1, _chunked(np.array([2.5])))
    assert (float(mean), float(se)) == (2.5, 0.0)
    # two values a, b: mean (a + b) / 2, standard error |a - b| / 2
    mean, se = _moments(2, _chunked(np.array([1.0, 4.0])))
    assert (float(mean), float(se)) == (2.5, 1.5)
    means, ses = _moments(2, _chunked(np.array([[1.0, 4.0], [-3.0, -3.0]])))
    assert means.tolist() == [2.5, -3.0] and ses.tolist() == [1.5, 0.0]


@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
def test_moments_match_whole_array_mean_and_std_without_cancelling(n):
    # values near 1e8 with unit spread: the sum of squares minus n times the squared
    # mean loses every digit of the variance there, the merged deviations keep them
    rng = np.random.default_rng(59)
    values = np.stack([1e8 + rng.standard_normal(n), -3e7 + 5.0 * rng.standard_normal(n)])
    means, ses = _moments(n, _chunked(values))
    for col in range(2):
        mean, se = _moments(n, _chunked(values[col]))
        assert float(mean) == means[col] and float(se) == ses[col]
        assert mean == pytest.approx(np.mean(values[col]), rel=1e-10, abs=0.0)
        expected_se = np.std(values[col], ddof=1) / math.sqrt(n)
        assert se == pytest.approx(expected_se, rel=1e-10, abs=0.0)


def _merged_moments(chunks):
    """Mean and standard error of the chunks' values, merged pairwise as _moments merges them."""
    count, mean, m2 = 0, 0.0, 0.0
    for vals in chunks:
        k = vals.shape[0]
        mu = vals.sum() / k
        dev = vals - mu
        delta = mu - mean
        total = count + k
        mean = mean + delta * (k / total)
        m2 = m2 + np.vecdot(dev, dev) + delta * delta * (count * k / total)
        count = total
    return float(mean), float(np.sqrt(m2 / ((count - 1) * count)))


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
    # n = CHUNK + 5 draws a CHUNK-row chunk, then a 5-row one, from the same stream; each
    # draws its band margins, then one normal per row (the ball adds its radial uniforms
    # and, at d > 2, a chi-square of d - 2 degrees of freedom per row)
    noise = hb.geometric_tsybakov(1.0, 0.75)
    for dist in (GAUSS5, BALL4):
        truth = fixed_truth(dist.d, seed=41)
        w = orthogonal_to(truth.w_star, np.random.default_rng(42)) + truth.w_star
        _, c, s = _plane(hb.normalize(w), truth.w_star)
        rng = np.random.default_rng(43)
        clone = copy.deepcopy(rng)
        est = hb.estimate_psi(w, 0.3, dist, noise, truth, CHUNK + 5, rng)
        parts = []
        for k in (CHUNK, 5):
            m = dists.truncated_margin(dist, 0.3, 2.0 * clone.random(k) - 1.0)
            t = clone.standard_normal(k)
            if dist.family == "uniform_ball":
                radial = dists.ball_radial(dist, m, clone.random(k))
                t *= radial / np.sqrt(t * t + clone.chisquare(dist.d - 2, k))
            m_star = c * m + s * t
            parts.append((1.0 - 2.0 * hb.eta_of_margin(noise, m_star)) * np.abs(m_star))
        assert (est.value, est.std_error) == _merged_moments(parts)
        assert rng.bit_generator.state == clone.bit_generator.state


def test_excess_stream_is_chunk_major():
    # each chunk draws two normals per row (the ball adds its radius uniforms, then at
    # d > 2 a chi-square of d - 2 degrees of freedom per row)
    noise = hb.geometric_tsybakov(1.0, 0.75)
    for dist in (GAUSS5, BALL4):
        truth = fixed_truth(dist.d, seed=47)
        v = orthogonal_to(truth.w_star, np.random.default_rng(48)) + 0.5 * truth.w_star
        r, c, s = _plane(truth.w_star, v)
        rng = np.random.default_rng(49)
        clone = copy.deepcopy(rng)
        value = hb.excess_error(v, dist, noise, truth, rng=rng, n=CHUNK + 5, method="mc")
        parts = []
        for k in (CHUNK, 5):
            p, t = clone.standard_normal((2, k))
            if dist.family == "uniform_ball":
                scale = dist.radius * clone.random(k) ** (1.0 / dist.d)
                scale /= np.sqrt(p * p + t * t + clone.chisquare(dist.d - 2, k))
                p, t = p * scale, t * scale
            m_star = r * p
            dis = ((c * p + s * t) >= 0.0) != (m_star >= 0.0)
            parts.append(dis * (1.0 - 2.0 * hb.eta_of_margin(noise, m_star)))
        assert value == _merged_moments(parts)[0]
        assert rng.bit_generator.state == clone.bit_generator.state


def _mean_and_se(vals):
    """Sample mean of the values and its standard error."""
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(vals.shape[0]))


def _agree(new, reference, where):
    """new and reference are (value, standard error) of independent estimates of one mean."""
    gap = abs(new[0] - reference[0])
    assert gap <= 4.0 * math.hypot(new[1], reference[1]) + 1e-12, (where, new, reference)


@pytest.mark.parametrize("family", dists.FAMILIES)
@pytest.mark.parametrize("d", [2, 3, 10, 50])
def test_plane_estimators_match_d_dimensional_draws(family, d):
    # the estimators draw only the plane their per-row value reads; rebuild the same
    # per-row values from whole d-dimensional points, the band's from the learner's own
    # lockstep sampler and the excess's from dists.sample, and compare at 4 sigma
    n, streams = 20_000, 500
    dist = hb.make_distribution(family, d)
    # 1 - 2 eta = 0.4 |<w*, x>|^(1/3) below |<w*, x>| = 15.6, so the excess also reads
    # the scale of the point, not only the sign of its two margins
    noise = hb.geometric_tsybakov(0.2, 0.75)
    truth = fixed_truth(d, seed=50 + d)
    rng = np.random.default_rng((51, d))
    perp = orthogonal_to(truth.w_star, rng)
    oblique = 0.6 * truth.w_star + 0.8 * perp
    b = 0.5

    def weight(m):
        return 1.0 - 2.0 * hb.eta_of_margin(noise, m)

    gens = [np.random.default_rng((52, d, k)) for k in range(streams)]
    for name, w in (("w*", truth.w_star), ("perp", perp), ("oblique", oblique)):
        est = hb.estimate_psi(w, b, dist, noise, truth, n, rng)
        sampler = oracles.LockstepBandSampler(dist, b, gens, hb.QueryLedger(), n // streams)
        W = np.broadcast_to(hb.normalize(w), (streams, d))
        m = np.concatenate([X for X, _ in lockstep_draws(sampler, W)]) @ truth.w_star
        vals = weight(m) * np.abs(m)
        _agree((est.value, est.std_error), _mean_and_se(vals), ("psi", name))

    for name, v in (("w*", truth.w_star), ("perp", perp), ("oblique", oblique),
                    ("zero", np.zeros(d))):
        X = dists.sample(dist, rng, n)
        m = X @ truth.w_star
        vals = ((X @ v >= 0.0) != (m >= 0.0)) * weight(m)
        new = _excess_mc(v, truth.w_star, dist, noise, rng, n)
        _agree(new, _mean_and_se(vals), ("excess", name))


@pytest.mark.parametrize(
    "bad",
    [np.full(5, np.nan), np.array([1.0, np.inf, 0.0, 0.0, 0.0]), np.ones(4), np.ones((5, 1)),
     ["a"] * 5],
    ids=["nan", "inf", "short", "column", "strings"],
)
def test_estimators_reject_bad_vectors(bad):
    truth = fixed_truth(5)
    noise = hb.geometric_tsybakov(1.0, 0.75)
    rng = np.random.default_rng(53)
    with pytest.raises(InvalidInputError, match="w must be"):
        hb.estimate_psi(bad, 0.3, GAUSS5, noise, truth, 100, rng)
    for method in ("mc", "exact"):
        with pytest.raises(InvalidInputError, match="v must be"):
            hb.excess_error(bad, GAUSS5, hb.massart(0.1), truth, rng=rng, n=100, method=method)
    bad_truth = dataclasses.replace(truth, w_star=bad)
    with pytest.raises(InvalidInputError, match="w_star must be"):
        hb.estimate_psi(truth.w_star, 0.3, GAUSS5, noise, bad_truth, 100, rng)
    for method in ("mc", "exact"):
        with pytest.raises(InvalidInputError, match="w_star must be"):
            hb.excess_error(truth.w_star, GAUSS5, hb.massart(0.1), bad_truth, rng=rng, n=100,
                            method=method)


def test_excess_mc_stays_exact_at_huge_and_zero_v():
    # sign(<v, x>) does not depend on the scale of v; v = 0 labels every point +1,
    # which disagrees with w* on half the mass
    truth = fixed_truth(5)
    noise = hb.massart(0.2)
    v = orthogonal_to(truth.w_star, np.random.default_rng(54)) + truth.w_star
    values = [hb.excess_error(scale * v, GAUSS5, noise, truth, rng=np.random.default_rng(55),
                              n=50_000, method="mc") for scale in (1.0, 1e300, 1e-300)]
    assert values[0] == values[1] == values[2]
    zero = hb.excess_error(np.zeros(5), GAUSS5, noise, truth, rng=np.random.default_rng(56),
                           n=50_000, method="mc")
    assert abs(zero - 0.6 * 0.5) <= 4.0 * 0.6 * math.sqrt(0.25 / 50_000)


@pytest.mark.parametrize("R", [100.0, 1e100])
def test_suite_names_r_when_its_bandwidth_leaves_the_ball(R):
    # the band-potential checks use b = 0.1 R, which must fit in the radius sqrt(d+2)
    dist = hb.make_distribution("uniform_ball", 3, (1e-3, R, 1.0, 1.0))
    truth = hb.make_ground_truth(3, np.random.default_rng(57))
    rng = np.random.default_rng(58)
    state = copy.deepcopy(rng.bit_generator.state)
    message = re.escape(f"b = 0.1*R = {0.1 * R:g}") + ".*" + re.escape(f"R = {R:g}")
    with pytest.raises(InvalidInputError, match=message):
        hb.verify_lemma_suite(dist, truth, rng, samples=100)
    assert rng.bit_generator.state == state  # nothing was sampled


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_estimators_memory_stays_below_one_batch_array(monkeypatch):
    # each estimator holds a few CHUNK-row vectors and no per-row value of earlier
    # chunks, whatever d and n: its peak at d=50 stays within 1.5 times its peak at
    # d=5, and its peak at n = 16 CHUNK within 1.5 times its peak at n = 2 CHUNK
    noise = hb.geometric_tsybakov(1.0, 0.75)

    def estimators(dist, n):
        truth = fixed_truth(dist.d, seed=44)
        w = orthogonal_to(truth.w_star, np.random.default_rng(45))
        return {
            "psi": lambda: hb.estimate_psi(w, 0.1, dist, noise, truth, n,
                                           np.random.default_rng(46)),
            "excess": lambda: hb.excess_error(w, dist, noise, truth,
                                              rng=np.random.default_rng(46), n=n, method="mc"),
        }

    for family in dists.FAMILIES:
        peaks = {}
        for d, n in ((5, 4 * CHUNK), (50, 4 * CHUNK), (5, 2 * CHUNK), (5, 16 * CHUNK)):
            for name, call in estimators(hb.make_distribution(family, d), n).items():
                peaks[name, d, n] = _traced_peak(call)
        for name in ("psi", "excess"):
            at_5, at_50 = peaks[name, 5, 4 * CHUNK], peaks[name, 50, 4 * CHUNK]
            assert at_50 <= 1.5 * at_5, (
                f"{family} {name} peaked at {at_50 / 1e6:.1f} MB at d=50, "
                f"{at_5 / 1e6:.1f} MB at d=5")
            small, large = peaks[name, 5, 2 * CHUNK], peaks[name, 5, 16 * CHUNK]
            assert large <= 1.5 * small, (
                f"{family} {name} peaked at {large / 1e6:.1f} MB at n=16 CHUNK, "
                f"{small / 1e6:.1f} MB at n=2 CHUNK")

    # at Gaussian d=50 a whole (n, d) float64 batch is 105 MB; streamed, the lemma suite's
    # shared batch holds a few CHUNK-row arrays. Its nine psi estimates are measured
    # above, so inside the suite estimate_psi draws 2 rows
    psi = diagnostics.estimate_psi
    monkeypatch.setattr(diagnostics, "estimate_psi", lambda *args: psi(*args[:5], 2, args[6]))

    def suite_peak(d, n):
        dist = hb.make_distribution("gaussian", d)
        truth = fixed_truth(d, seed=44)
        return _traced_peak(lambda: hb.verify_lemma_suite(dist, truth,
                                                          np.random.default_rng(46), samples=n))

    n, d = 4 * CHUNK, 50
    peak = suite_peak(d, n)
    assert peak < n * d * 8, f"verify_lemma_suite peaked at {peak / 1e6:.1f} MB"
    small, large = suite_peak(5, 2 * CHUNK), suite_peak(5, 16 * CHUNK)
    assert large <= 1.5 * small, (
        f"verify_lemma_suite peaked at {large / 1e6:.1f} MB at n=16 CHUNK, "
        f"{small / 1e6:.1f} MB at n=2 CHUNK")
