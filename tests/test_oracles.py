"""Label oracle, noise models, ground truth, band sampling, ledger."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest, norm

import halfband as hb
from halfband import oracles
from halfband.errors import BandTooThinError, InvalidInputError

GAUSS = hb.make_distribution("gaussian", 5)


def test_massart_eta_is_constant():
    model = hb.massart(0.2)
    truth = hb.make_ground_truth(5, np.random.default_rng(0))
    for x in np.random.default_rng(1).standard_normal((10, 5)):
        assert hb.eta_of_margin(model, x @ truth.w_star) == 0.2


def test_massart_validation():
    with pytest.raises(InvalidInputError):
        hb.massart(0.5)
    with pytest.raises(InvalidInputError):
        hb.massart(-0.01)
    with pytest.raises(InvalidInputError):
        hb.geometric_tsybakov(0.0, 0.5)
    with pytest.raises(InvalidInputError):
        hb.geometric_tsybakov(1.0, 1.5)
    with pytest.raises(InvalidInputError):
        hb.massart_band(0.3, -1.0)


def test_geometric_tsybakov_pointwise_values():
    model = hb.geometric_tsybakov(0.3, 0.5)
    # exponent (1-alpha)/alpha = 1, so at |margin| 1 the flip rate is 0.5 - 0.3
    assert hb.eta_of_margin(model, 1.0) == pytest.approx(0.2, rel=1e-14)
    assert hb.eta_of_margin(model, 0.0) == pytest.approx(0.5, rel=1e-14)
    assert hb.eta_of_margin(model, 10.0) == pytest.approx(0.0, abs=1e-14)


def test_geometric_tsybakov_equality_case():
    # 1 - 2 eta(x) = min(1, 2 B |m|^((1-alpha)/alpha)) exactly, by construction
    rng = np.random.default_rng(2)
    m = rng.standard_normal(1000) * 2.0
    for B, alpha in ((0.3, 0.5), (1.0, 0.75), (2.0, 0.9)):
        model = hb.geometric_tsybakov(B, alpha)
        lhs = 1.0 - 2.0 * hb.eta_of_margin(model, m)
        rhs = np.minimum(1.0, 2.0 * B * np.abs(m) ** ((1 - alpha) / alpha))
        assert np.array_equal(lhs, rhs) or np.allclose(lhs, rhs, atol=1e-15)


def test_massart_band_gates_on_margin():
    model = hb.massart_band(0.4, 0.5)
    assert hb.eta_of_margin(model, 0.3) == 0.4
    assert hb.eta_of_margin(model, 0.7) == 0.0
    vals = hb.eta_of_margin(model, np.array([-0.5, 0.5, 0.51]))
    assert np.array_equal(vals, [0.4, 0.4, 0.0])


def test_eta_bayes_bound_all_models():
    rng = np.random.default_rng(3)
    truth = hb.make_ground_truth(5, rng)
    X = rng.standard_normal((10**5, 5))
    for model in (hb.massart(0.49), hb.massart_band(0.3, 0.2), hb.geometric_tsybakov(0.7, 0.6)):
        m = X @ truth.w_star
        vals = hb.eta_of_margin(model, m)
        assert float(vals.min()) >= 0.0 and float(vals.max()) <= 0.5


def test_query_label_noiseless_and_accounting():
    truth = hb.GroundTruth(w_star=np.array([1.0, 0.0]), s=None)
    rng = np.random.default_rng(4)
    ledger = hb.QueryLedger()
    model = hb.massart(0.0)
    for _ in range(100):
        x = rng.standard_normal(2)
        y = hb.query_label(model, truth, x, rng, ledger)
        assert y == (1 if x[0] >= 0 else -1)
    assert ledger.label_calls == 100


def test_query_label_sign_zero_is_positive():
    truth = hb.GroundTruth(w_star=np.array([1.0, 0.0]), s=None)
    ledger = hb.QueryLedger()
    y = hb.query_label(hb.massart(0.0), truth, np.array([0.0, 3.0]),
                       np.random.default_rng(5), ledger)
    assert y == 1


@pytest.mark.parametrize(
    "model",
    [
        hb.massart(0.2),
        hb.massart_band(0.2, 0.3),
        hb.geometric_tsybakov(0.3, 1.0),  # exponent (1 - alpha)/alpha = 0
        hb.geometric_tsybakov(1.0, 0.75),  # 1/3
        hb.geometric_tsybakov(2.0, 0.3),  # 7/3
    ],
    ids=lambda model: f"{model.kind}-{model.alpha}",
)
def test_scalar_flip_rate_equals_eta_of_margin_exactly(model):
    # query_label's flip rate is built from Python floats; it must be eta_of_margin's
    # value to the bit, at the band edge, at the Tsybakov knee B|m|^e = 1/2, at tiny
    # margins and where |m|^e overflows
    expo = (1.0 - model.alpha) / model.alpha
    edges = [model.tau] if model.kind == "massart_band" else []
    if model.kind == "geometric_tsybakov" and expo > 0.0:
        edges.append((0.5 / model.B) ** (1.0 / expo))
    margins = [0.0, -0.0, 1e-300, -1e-300, 5e-324, 1.0, 1e3, -1e3, 1e300, -1e300, math.inf]
    for edge in edges:
        for m in (edge, -edge):
            margins += [m, math.nextafter(m, math.inf), math.nextafter(m, -math.inf)]
    margins += (np.random.default_rng(7).standard_normal(2000) * 3.0).tolist()
    for m in margins:
        with np.errstate(over="ignore"):
            expected = float(hb.eta_of_margin(model, m))
        assert oracles._flip_rate(model, m) == expected, m


def test_query_label_flip_rate_binomial():
    truth = hb.GroundTruth(w_star=np.array([1.0, 0.0]), s=None)
    model = hb.massart(0.3)
    rng = np.random.default_rng(6)
    ledger = hb.QueryLedger()
    x = np.array([2.0, 0.0])
    n = 10**5
    flips = sum(hb.query_label(model, truth, x, rng, ledger) == -1 for _ in range(n))
    se = math.sqrt(0.3 * 0.7 / n)
    assert abs(flips / n - 0.3) <= 3.0 * se
    assert ledger.label_calls == n


def test_rejection_sample_band_orthogonal_coordinate_law():
    # conditioning on the band leaves orthogonal directions standard normal; BandSampler
    # draws have the law of literal rejection sampling (oracles module docstring)
    w_hat = np.zeros(5)
    w_hat[0] = 1.0
    sampler = hb.BandSampler(GAUSS, 0.5, np.random.default_rng(10), ledger=hb.QueryLedger())
    X = np.array([sampler.draw(w_hat) for _ in range(10**5)])
    assert kstest(X[:, 1], lambda t: norm.cdf(t)).pvalue > 0.01
    assert kstest(X[:, 4], lambda t: norm.cdf(t)).pvalue > 0.01


def test_band_too_thin_raises_when_sampler_is_built():
    # p rounds to 0 on the Gaussian at b = 1e-17; on the ball at b = 1.2e-17, p is
    # about 8.5e-18: one draw's attempt count fits int64, a 44-row step's sum does not
    ball = hb.make_distribution("uniform_ball", 5)
    ledger = hb.QueryLedger()
    for build in (
        lambda: hb.BandSampler(GAUSS, 1e-17, np.random.default_rng(11), ledger),
        lambda: oracles.LockstepBandSampler(
            GAUSS, 1e-17, np.random.default_rng(11).spawn(3), ledger, steps=4),
        lambda: oracles.LockstepBandSampler(
            ball, 1.2e-17, np.random.default_rng(11).spawn(44), ledger, steps=4),
    ):
        with pytest.raises(BandTooThinError) as err:
            build()
        assert err.value.b in (1e-17, 1.2e-17)
        assert err.value.p < 1e-17
    assert ledger == hb.QueryLedger()
    sampler = hb.BandSampler(ball, 1.2e-17, np.random.default_rng(11), ledger)
    assert abs(float(sampler.draw(np.eye(5)[0])[0])) <= 1.2e-17
    assert ledger.ex_calls >= 1
    with pytest.raises(InvalidInputError):
        hb.BandSampler(GAUSS, 0.0, np.random.default_rng(11), ledger)


def _exact_attempts(p, u):
    """_geometric_attempts in Python integers, which cannot wrap."""
    if p >= 1.0:
        return len(u)
    return sum(int(f) + 1 for f in np.floor(np.log1p(-u) / math.log1p(-p)))


@given(
    family=st.sampled_from(["gaussian", "uniform_ball"]),
    d=st.integers(2, 60),
    b=st.one_of(
        st.floats(0.0, exclude_min=True, allow_infinity=False),
        st.floats(-324.0, 308.0).map(lambda e: 10.0**e).filter(lambda b: b > 0.0),
        st.floats(1e-19, 1e-14),  # where the int64 bound starts to bind
    ),
    K=st.sampled_from([1, 44]),
)
@settings(max_examples=150, deadline=None)
def test_band_sampler_built_or_too_thin(family, d, b, K):
    # building a sampler either raises BandTooThinError, or its draws are finite,
    # inside the band, and charge exactly the attempt counts of their uniforms
    dist = hb.make_distribution(family, d)
    w_hat = hb.normalize(np.arange(1.0, d + 1.0))
    ledger = hb.QueryLedger()
    steps = 3
    try:
        if K == 1:
            sampler = hb.BandSampler(dist, b, np.random.default_rng(20), ledger)
            X = np.array([sampler.draw(w_hat) for _ in range(steps)])
        else:
            sampler = oracles.LockstepBandSampler(
                dist, b, np.random.default_rng(20).spawn(K), ledger, steps)
            X = np.concatenate([sampler.draw(np.tile(w_hat, (K, 1)))[0] for _ in range(steps)])
    except BandTooThinError as err:
        assert err.b == b and ledger == hb.QueryLedger()
        return
    assert np.all(np.isfinite(X))
    assert float(np.max(np.abs(X @ w_hat))) <= b + 1e-12
    # each stream's first uniforms are its attempt uniforms (BandSampler._refill)
    if K == 1:
        u = np.random.default_rng(20).random(oracles.DRAW_BLOCK)[:steps]
    else:
        u = np.concatenate([g.random(steps) for g in np.random.default_rng(20).spawn(K)])
    assert ledger.ex_calls == _exact_attempts(sampler.p, u) >= K * steps
    # the largest count, at the largest uniform, is exact and fits int64 K times over
    most = _exact_attempts(sampler.p, np.array([oracles.U_MAX]))
    assert oracles._geometric_attempts(sampler.p, np.array([oracles.U_MAX]))[0] == most
    assert K * most <= np.iinfo(np.int64).max


def test_band_sampler_matches_sequential_accounting_and_law():
    b = 0.3
    w_hat = hb.normalize(np.arange(1.0, 6.0))
    ledger = hb.QueryLedger()
    sampler = hb.BandSampler(GAUSS, b, np.random.default_rng(12), ledger=ledger)
    n = 2 * 10**4
    draws = np.array([sampler.draw(w_hat) for _ in range(n)])
    margins = draws @ w_hat
    assert float(np.max(np.abs(margins))) <= b + 1e-12
    # ledger mean attempts follows the geometric law
    p = hb.band_probability(GAUSS, b)
    se = math.sqrt((1 - p) / p**2 / n)
    assert ledger.ex_calls / n == pytest.approx(1.0 / p, abs=3 * se)
    z = 2.0 * norm.cdf(b) - 1.0
    assert kstest(margins, lambda x: (norm.cdf(np.clip(x, -b, b)) - norm.cdf(-b)) / z).pvalue > 0.01


def test_band_sampler_direction_scale_bit_exact():
    w = np.random.default_rng(13).standard_normal(5)
    out = []
    for scale in (1.0, 2.0):
        sampler = hb.BandSampler(GAUSS, 0.4, np.random.default_rng(99), ledger=hb.QueryLedger())
        out.append(np.array([sampler.draw(hb.normalize(scale * w)) for _ in range(50)]))
    assert np.array_equal(out[0], out[1])


def test_query_labels_rowwise_rule_and_accounting():
    truth = hb.GroundTruth(w_star=np.array([1.0, 0.0]), s=None)
    model = hb.massart_band(0.3, 1.0)
    X = np.array([[2.0, 0.0], [-0.5, 1.0], [0.0, 3.0], [0.5, -1.0], [-3.0, 0.0]])
    u = np.array([0.1, 0.1, 0.5, 0.29, 0.0])
    ledger = hb.QueryLedger()
    y = oracles.query_labels(model, truth, X, u, ledger)
    # clean outside the margin band; inside it, flipped exactly when u < eta
    assert y.tolist() == [1.0, 1.0, 1.0, -1.0, -1.0]
    assert ledger.label_calls == 5


def test_lockstep_sampler_law_and_accounting():
    # 1500 steps span three pre-draw blocks; every row keeps the rejection law
    b, K, n = 0.3, 4, 1500
    W_hat = np.array([hb.normalize(v) for v in np.random.default_rng(14).standard_normal((K, 5))])
    ledger = hb.QueryLedger()
    sampler = oracles.LockstepBandSampler(
        GAUSS, b, np.random.default_rng(15).spawn(K), ledger, steps=n)
    margins, flips = [], []
    for _ in range(n):
        X, u = sampler.draw(W_hat)
        margins.append(np.einsum("ij,ij->i", X, W_hat))
        flips.append(u)
    margins = np.concatenate(margins)
    assert float(np.max(np.abs(margins))) <= b + 1e-12
    p = hb.band_probability(GAUSS, b)
    se = math.sqrt((1 - p) / p**2 / (n * K))
    assert ledger.ex_calls / (n * K) == pytest.approx(1.0 / p, abs=3 * se)
    z = 2.0 * norm.cdf(b) - 1.0
    assert kstest(margins, lambda x: (norm.cdf(np.clip(x, -b, b)) - norm.cdf(-b)) / z).pvalue > 0.01
    assert kstest(np.concatenate(flips), "uniform").pvalue > 0.01
    with pytest.raises(InvalidInputError):
        sampler.draw(W_hat)  # past its step count


def test_lockstep_sampler_row_independent_of_other_rows():
    K, n = 5, 600
    W_hat = np.array([hb.normalize(v) for v in np.random.default_rng(16).standard_normal((K, 5))])
    ball = hb.make_distribution("uniform_ball", 5)
    for dist in (GAUSS, ball):
        block = oracles.LockstepBandSampler(
            dist, 0.2, np.random.default_rng(17).spawn(K), hb.QueryLedger(), steps=n)
        alone = oracles.LockstepBandSampler(
            dist, 0.2, [np.random.default_rng(17).spawn(K)[3]], hb.QueryLedger(), steps=n)
        for _ in range(n):
            X, u = block.draw(W_hat)
            X3, u3 = alone.draw(W_hat[3:4])
            assert np.allclose(X3[0], X[3], rtol=0.0, atol=1e-12)
            assert u3[0] == u[3]
            assert abs(float(X[3] @ W_hat[3])) <= 0.2 + 1e-12


def test_lockstep_sampler_wide_gaussian_band():
    # a Gaussian band this wide has ndtr(b) within 1e-11 of 1; the inverse CDF
    # still keeps every row inside it, one row per trial
    W_hat = np.tile(np.eye(5)[0], (3, 1))
    wide = hb.make_distribution("gaussian", 5, params=(0.01, 20.0, 0.2, 1.0))
    ledger = hb.QueryLedger()
    sampler = oracles.LockstepBandSampler(
        wide, 7.0, np.random.default_rng(19).spawn(3), ledger, steps=100)
    for _ in range(100):
        X, _ = sampler.draw(W_hat)
        assert np.all(np.abs(X[:, 0]) <= 7.0)
    assert ledger.ex_calls >= 300


def test_exact_tsybakov_a_gaussian():
    # 2 f0 (1/B)^(alpha/(1-alpha)) with f0 the margin density at zero
    value = hb.exact_tsybakov_A(1.0, 0.75, GAUSS)
    assert value == pytest.approx(2.0 / math.sqrt(2.0 * math.pi), rel=1e-12)
    assert hb.exact_tsybakov_A(2.0, 0.5, GAUSS) == pytest.approx(
        2.0 / math.sqrt(2.0 * math.pi) * 0.5, rel=1e-12)


def test_effective_tsybakov_a_bounds_noise_tail():
    # P(1/2 - eta(x) <= t) <= 4 U beta z ln(2/(U beta z)), z = (t/B)^(alpha/(1-alpha))
    rng = np.random.default_rng(14)
    truth = hb.make_ground_truth(5, rng)
    B, alpha = 1.0, 0.75
    model = hb.geometric_tsybakov(B, alpha)
    X = hb.sample(GAUSS, rng, n=2 * 10**5)
    gap = 0.5 - hb.eta_of_margin(model, X @ truth.w_star)
    for t in (0.05, 0.1, 0.2, 0.3, 0.45):
        z = (t / B) ** (alpha / (1 - alpha))
        bound = 4.0 * GAUSS.U * GAUSS.beta * z * math.log(2.0 / (GAUSS.U * GAUSS.beta * z))
        frac = float(np.mean(gap <= t))
        se = math.sqrt(max(frac * (1 - frac), 1e-12) / X.shape[0])
        assert frac <= bound + 3.0 * se


def test_make_ground_truth_dense_and_sparse():
    rng = np.random.default_rng(15)
    truth = hb.make_ground_truth(8, rng)
    assert float(np.linalg.norm(truth.w_star)) == pytest.approx(1.0, rel=1e-12)
    sparse = hb.make_ground_truth(8, np.random.default_rng(16), s=3)
    assert np.count_nonzero(sparse.w_star) <= 3
    assert sparse.s == 3
    assert float(np.linalg.norm(sparse.w_star)) == pytest.approx(1.0, rel=1e-12)
    # same seed, same truth
    again = hb.make_ground_truth(8, np.random.default_rng(15))
    assert np.array_equal(truth.w_star, again.w_star)


def test_halfspace_labels_sign_zero():
    X = np.array([[0.0, 1.0], [2.0, 0.0], [-1.0, 0.0]])
    y = oracles.halfspace_labels(X, np.array([1.0, 0.0]))
    assert np.array_equal(y, [1, 1, -1])


@given(st.floats(0.0, 0.499), st.floats(-5.0, 5.0))
@settings(max_examples=80, deadline=None)
def test_eta_of_margin_range_massart(eta_value, margin):
    model = hb.massart(eta_value)
    v = float(hb.eta_of_margin(model, margin))
    assert 0.0 <= v <= 0.5


@given(st.floats(0.01, 5.0), st.floats(0.05, 1.0), st.floats(-5.0, 5.0))
@settings(max_examples=80, deadline=None)
def test_eta_of_margin_range_geometric(B, alpha, margin):
    v = float(hb.eta_of_margin(hb.geometric_tsybakov(B, alpha), margin))
    assert 0.0 <= v <= 0.5
