"""Monte Carlo estimators and the lemma verification suite.

These are white-box diagnostics: they read the conditional flip rate and the
ground-truth direction directly, draw samples without touching the query
ledger, and exist to check the analysis inequalities numerically, not to
learn. Statistical checks pass at three standard errors.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import distributions as dists
from .errors import InvalidInputError, UnsupportedRegimeError
from .geometry import (MAX_COUNT, angle, choice, finite_array, generator, integer, normalize,
                       real)
from .oracles import (
    eta_of_margin,
    geometric_tsybakov,
    massart,
)
from .schedules import excess_lower_bound, psi_lower_bound, regime_for_noise, regime_params


# Rows each Monte Carlo batch draws and reduces at a time (_moments), so memory stays
# O(CHUNK) for any n. On perfbench estimators-d10 (1e6-row calls at Gaussian d=10, one
# core of a 2-core x86-64 host), when each row still drew a whole point, whole batches
# peaked at 234 MB RSS and 65,536-row chunks at 80 MB; 32,768-row chunks ran about as
# fast at 76 MB, 131,072-row ones slower at 89 MB.
CHUNK = 65536


@dataclass(frozen=True)
class PsiEstimate:
    value: float
    std_error: float
    sample_count: int


def _moments(n, rows):
    """Mean and standard error of each value column over n >= 1 rows, drawn CHUNK at a time.

    rows(k) draws the next k rows and returns their values as a float array of shape
    (k,) for one column or (c, k) for c, which the reducer overwrites. Chunk i draws
    everything it needs before chunk i+1 starts (chunk-major order). Each chunk's
    (count, mean, M2) per column, M2 being the sum of squared deviations from the
    mean, is merged into the running one by the pairwise update of Chan, Golub and
    LeVeque, "Algorithms for computing the sample variance" (1983), which does not
    cancel as the sum of squares minus n times the squared mean does. No array of n
    rows exists. The standard error is sqrt(M2 / ((n - 1) n)), 0 at n = 1; both
    results have the column shape, () or (c,).
    """
    count, mean, m2 = 0, 0.0, 0.0
    for start in range(0, n, CHUNK):
        k = min(CHUNK, n - start)
        vals = rows(k)
        mu = vals.sum(axis=-1) / k
        vals -= mu[..., None]
        delta = mu - mean
        total = count + k
        mean = mean + delta * (k / total)
        m2 = m2 + np.vecdot(vals, vals) + delta * delta * (count * k / total)
        count = total
    se = np.sqrt(m2 / ((n - 1) * n)) if n > 1 else np.zeros_like(mean)
    return mean, se


def _weight(noise, m):
    """1 - 2*eta(x) at ground-truth margins m, with eta from eta_of_margin.

    A float when the flip rate is constant (Massart), so a caller scales by it;
    otherwise a new array of m's shape.
    """
    if noise.kind == "massart":
        return 1.0 - 2.0 * float(eta_of_margin(noise, 0.0))
    w = eta_of_margin(noise, m)
    w *= -2.0  # exact, and -2*eta + 1 rounds as 1 - 2*eta does
    w += 1.0
    return w


def _plane(u, v):
    """(r, c, s) with <u, x> = r p and <v, x> = c p + s t for every x.

    Here p = <e1, x> and t = <e2, x> for orthonormal e1, e2 whose span holds u and v:
    the QR factor of the d x 2 matrix [u v], which stays finite for any finite u, v
    and zero for a zero column. Both families are rotation invariant, so (p, t) has
    the law of any 2-d projection of x, and an estimator that reads <u, x> and
    <v, x> only needs to draw p and t.
    """
    (r, c), (_, s) = np.linalg.qr(np.column_stack((u, v)), mode="r")
    return float(r), float(c), float(s)


def _chi2(rng, df, k):
    """k draws of a chi-square with df >= 0 degrees of freedom (0 when df = 0)."""
    return rng.chisquare(df, k) if df > 0 else 0.0


def estimate_psi(w, b, dist, noise, truth, n, rng):
    """Band potential of w: mean of (1 - 2*eta(x)) |<w*, x>| over the band at b.

    A row draws only the two coordinates of x in the plane of w_hat and w*
    (_plane): its band margin and one more, 2 numbers for the Gaussian and 4
    for the ball (3 at d = 2), and is reduced with its chunk (_moments), so memory
    is O(CHUNK) for any n; std_error is the sample standard error, 0 at n = 1.
    n must be an integer in [1, 2^53] (geometry.integer), b a positive real
    number (geometry.real) and rng a numpy Generator (geometry.generator).
    """
    n = integer("estimate_psi needs at least one sample: n", n, 1, MAX_COUNT)
    generator("estimate_psi: rng", rng)
    b = real("estimate_psi: bandwidth b", b)
    if not b > 0.0:
        raise InvalidInputError("bandwidth b must be positive")
    if dist.family == "uniform_ball" and b > dist.radius:
        raise InvalidInputError("bandwidth b exceeds the support radius")
    w = finite_array("w", w, (dist.d,))
    w_star = finite_array("truth.w_star", truth.w_star, (dist.d,))
    _, c, s = _plane(normalize(w), w_star)

    def rows(k):
        # <w_hat, x> = r p with |r| = 1, so p is the band margin: |p| <= b
        p = dists.truncated_margin(dist, b, 2.0 * rng.random(k) - 1.0)
        t = rng.standard_normal(k)
        if dist.family == "uniform_ball":
            # given p, the rest of x is uniform in a (d-1)-ball of radius sqrt(rho^2 - p^2):
            # its radial factor times one coordinate of a uniform unit (d-1)-vector
            radial = dists.ball_radial(dist, p, rng.random(k))
            t *= radial / np.sqrt(t * t + _chi2(rng, dist.d - 2, k))
        t *= s
        p *= c
        t += p  # m_star = c p + s t
        weight = _weight(noise, t)
        return np.multiply(np.abs(t, out=t), weight, out=t)

    value, se = _moments(n, rows)
    return PsiEstimate(value=float(value), std_error=float(se), sample_count=n)


def _excess_mc(v, w_star, dist, noise, rng, n):
    """Mean and standard error of the excess of sign(<v, .>) from n rows.

    A row draws the two coordinates of x in the plane of w* and v (_plane):
    2 numbers for the Gaussian, 4 for the ball (3 at d = 2), and is reduced with
    its chunk (_moments), so memory is O(CHUNK) for any n. v = 0 gives
    <v, x> = 0, which counts as sign +1.
    """
    r, c, s = _plane(w_star, v)

    def rows(k):
        p, t = rng.standard_normal((2, k))
        if dist.family == "uniform_ball":
            # x = radius U^(1/d) z / |z| for z standard normal on R^d; p, t are two of z's
            # coordinates and the other d - 2 enter through their squared norm
            scale = dist.radius * rng.random(k) ** (1.0 / dist.d)
            scale /= np.sqrt(p * p + t * t + _chi2(rng, dist.d - 2, k))
            p *= scale
            t *= scale
        t *= s
        t += c * p  # <v, x> = c p + s t
        p *= r  # m_star = <w*, x>
        dis = np.not_equal(t >= 0.0, p >= 0.0)
        return np.multiply(dis, _weight(noise, p), out=t)

    value, se = _moments(n, rows)
    return float(value), float(se)


def excess_error(v, dist, noise, truth, rng=None, n=None, method="auto"):
    """Excess misclassification risk of sign(<v, .>) over the optimal halfspace.

    "exact" uses the closed form (1 - 2*eta) * angle/pi, valid only for
    constant flip rate (every family is spherically symmetric);
    "mc" averages (1 - 2*eta(x)) over the disagreement region on n >= 1 rows from rng,
    a numpy Generator (geometry.generator).
    """
    v = finite_array("v", v, (dist.d,))
    w_star = finite_array("truth.w_star", truth.w_star, (dist.d,))
    exact_ok = noise.kind == "massart"
    if choice("excess method", method, ("auto", "exact", "mc")) == "auto":
        method = "exact" if exact_ok else "mc"
    if method == "exact":
        if not exact_ok:
            raise UnsupportedRegimeError("closed-form excess needs a constant flip rate")
        return (1.0 - 2.0 * noise.eta) * angle(v, w_star) / math.pi
    if rng is None or n is None:
        raise InvalidInputError("Monte Carlo excess needs rng and n")
    n = integer("Monte Carlo excess needs at least one sample: n", n, 1, MAX_COUNT)
    generator("Monte Carlo excess: rng", rng)
    value, _ = _excess_mc(v, w_star, dist, noise, rng, n)
    return value


def _tilted(w_star, theta, rng):
    """Unit vector at angle theta from w_star, random orthogonal component."""
    z = rng.standard_normal(w_star.shape[0])
    z = z - (z @ w_star) * w_star
    z /= np.linalg.norm(z)
    return math.cos(theta) * w_star + math.sin(theta) * z


def _check(name, setting, measured, bound, std_error, side):
    # side "ge": measured must stay above bound; "le": below. 3 sigma slack.
    slack = 3.0 * std_error
    if side == "ge":
        passed = measured >= bound - slack
        sigmas = (measured - bound) / std_error if std_error > 0 else None
    else:
        passed = measured <= bound + slack
        sigmas = (bound - measured) / std_error if std_error > 0 else None
    return {
        "check": name,
        "setting": setting,
        "measured": float(measured),
        "bound": float(bound),
        "std_error": float(std_error),
        "margin_sigmas": None if sigmas is None else float(sigmas),
        "passed": bool(passed),
    }


def suite_bandwidth(dist):
    """Bandwidth b = 0.1 R of the lemma suite's band-potential checks.

    InvalidInputError, naming R and b, when b exceeds the uniform ball's support radius.
    """
    b = 0.1 * dist.R
    if dist.family == "uniform_ball" and b > dist.radius:
        raise InvalidInputError(
            f"the lemma suite's bandwidth b = 0.1*R = {b:g} exceeds the uniform ball's"
            f" support radius sqrt(d+2) = {dist.radius:g}; lower dist.params.R = {dist.R:g}"
            f" to at most {10.0 * dist.radius:g}"
        )
    return b


def verify_lemma_suite(dist, truth, rng, noise=None, samples=10**6):
    """Check of the analysis inequalities the schedules rely on.

    Runs five families of checks: band-potential lower bounds per regime,
    band-mass bounds, disagreement-probability bounds, the noise tail bound
    behind the Tsybakov conversion, and the excess-error lower bounds. The
    regime bounds are the schedules' own (schedules.psi_lower_bound and
    excess_lower_bound, whose MNC/TNC/GTNC bound at L R^2 / 4 is eps0), and the
    noise tail's is band_mass_bounds' upper bound. Closed forms are exact, with
    standard error 0: band mass, disagreement (angle/pi), noise tail (a band
    mass) and the excess under constant eta. Only the nine band potentials
    (estimate_psi) and the excess under other noise (_excess_mc) are sampled, from
    plane coordinates, so memory is O(CHUNK) for any samples and d. Returns a
    JSON-serializable report; passed means every check held within three
    standard errors. Needs an integer samples in [2, 2^53], so that every standard
    error is defined, a band-potential bandwidth inside the support
    (suite_bandwidth) and a numpy Generator rng (geometry.generator).
    """
    samples = integer("the lemma suite needs at least 2 samples: samples", samples, 2, MAX_COUNT)
    generator("the lemma suite: rng", rng)
    # extreme constants or noise parameters overflow or underflow a bound, which
    # Python float arithmetic raises; like an unbuildable schedule, that is bad input
    try:
        checks = _lemma_checks(dist, truth, rng, noise, samples)
    except InvalidInputError:
        raise
    except (ArithmeticError, ValueError) as exc:
        raise InvalidInputError(f"lemma-suite bounds fail at these parameters: {exc}") from exc
    # a bound can also overflow to inf silently, or be so large that its margin in
    # standard errors does; the report must stay valid JSON, so that is bad input too
    bad = sorted({
        c["check"]
        for c in checks
        for v in (c["measured"], c["bound"], c["std_error"], c["margin_sigmas"] or 0.0)
        if not math.isfinite(v)
    })
    if bad:
        raise InvalidInputError(f"lemma-suite bounds are not finite at these parameters: {bad}")
    return {
        "passed": bool(all(c["passed"] for c in checks)),
        "samples": samples,
        "family": dist.family,
        "d": dist.d,
        "checks": checks,
    }


def _lemma_checks(dist, truth, rng, noise, samples):
    L, R, U, beta = dist.L, dist.R, dist.U, dist.beta
    w_star = truth.w_star
    b_psi = suite_bandwidth(dist)

    regime = None if noise is None else regime_for_noise(noise)
    mnc = noise if regime == "MNC" else massart(0.2)
    gt = noise if regime == "GTNC" else geometric_tsybakov(1.0, 0.75)
    tnc = gt if 0.5 < gt.alpha < 1.0 else geometric_tsybakov(1.0, 0.75)
    by_regime = {"MNC": mnc, "TNC": tnc, "GTNC": gt}
    params = {regime: regime_params(regime, model, dist) for regime, model in by_regime.items()}

    checks = []

    # band-potential lower bounds at random directions with tilde angle >= 4b/R
    thetas = rng.uniform(4.0 * b_psi / R + 0.05, math.pi / 2.0, size=3)
    for regime, model in by_regime.items():
        for theta in thetas:
            w = _tilted(w_star, float(theta), rng)
            est = estimate_psi(w, b_psi, dist, model, truth, samples, rng)
            bound = psi_lower_bound(regime, b_psi, float(theta), dist, **params[regime])
            checks.append(
                _check(
                    f"psi-lower-{regime.lower()}",
                    {"b": b_psi, "tilde_angle": float(theta)},
                    est.value,
                    bound,
                    est.std_error,
                    "ge",
                )
            )

    # closed-form band mass against its two-sided bounds (deterministic)
    for b in dists.band_mass_grid(dist):
        p = dists.band_probability(dist, b)
        lo, hi = dists.band_mass_bounds(dist, b)
        checks.append(_check("band-mass-lower", {"b": b}, p, lo, 0.0, "ge"))
        checks.append(_check("band-mass-upper", {"b": b}, p, hi, 0.0, "le"))

    # disagreement probability against angle, both sides; every family is spherically
    # symmetric, so it is exactly angle/pi (exact_disagreement)
    for theta in (0.1, 0.7, 1.8, 2.9):
        q = dists.exact_disagreement(dist, _tilted(w_star, theta, rng), w_star)
        lo = L * R**2 * theta
        hi = min(
            4.0 * U * beta**2 * math.log(6.0 / g) ** 2 * theta + g
            for g in (0.001, 0.01, 0.05, 0.1)
        )
        checks.append(_check("disagreement-lower", {"angle": theta}, q, lo, 0.0, "ge"))
        checks.append(_check("disagreement-upper", {"angle": theta}, q, hi, 0.0, "le"))

    # noise mass near the decision boundary (the Tsybakov conversion's tail): the TNC model
    # is geometric and each t < 1/2, so 1/2 - eta <= t exactly where |<w*, x>| <= z, the
    # band mass at z; the bound comes first, so that its arithmetic failing is reported
    a, B = tnc.alpha, tnc.B
    for t in (0.05, 0.1, 0.2, 0.3, 0.45):
        z = (t / B) ** (a / (1.0 - a))
        bound = dists.band_mass_bounds(dist, z)[1]
        checks.append(_check("noise-tail", {"t": t}, dists.band_probability(dist, z), bound,
                             0.0, "le"))

    # excess-error lower bounds in terms of the exact disagreement probability; under
    # constant eta the MNC bound (1 - 2*eta) * q is the exact excess, reported with no
    # error; otherwise one estimate per distinct model and angle (TNC and GTNC share one)
    for theta in (0.15, 0.4, 0.9):
        v = _tilted(w_star, theta, rng)
        q = dists.exact_disagreement(dist, v, w_star)
        estimates = {}
        for regime, model in by_regime.items():
            name = f"excess-lower-{regime.lower()}"
            bound = excess_lower_bound(regime, q, dist, **params[regime])
            setting = {"angle": theta, "disagreement": q}
            if model.kind == "massart":
                checks.append(_check(name, setting, bound, bound, 0.0, "ge"))
                continue
            if model not in estimates:
                estimates[model] = _excess_mc(v, w_star, dist, model, rng, samples)
            value, se = estimates[model]
            checks.append(_check(name, setting, value, bound, se, "ge"))

    return checks
