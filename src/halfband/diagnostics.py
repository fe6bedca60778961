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
from .geometry import angle, normalize
from .oracles import (
    _ball_radial,
    _complete_band_points,
    eta_of_margin,
    exact_tsybakov_A,
    geometric_tsybakov,
    massart,
)
from .schedules import regime_for_noise


# Rows each Monte Carlo batch draws at a time, so memory stays O(CHUNK * d) for any n.
# On perfbench estimators-d10 (1e6-row calls at Gaussian d=10, one core of a 2-core
# x86-64 host) whole batches peaked at 234 MB RSS and 65,536-row chunks at 80 MB;
# 32,768-row chunks ran about as fast at 76 MB, 131,072-row ones slower at 89 MB.
CHUNK = 65536


@dataclass(frozen=True)
class PsiEstimate:
    value: float
    std_error: float
    sample_count: int


def _stream(n, rows):
    """Per-row values of n >= 1 draws, made in consecutive chunks of at most CHUNK rows.

    rows(k) draws the next k rows and returns a tuple of arrays whose first axis
    has length k; the result is the tuple of the same arrays with first axis n.
    Chunk i draws everything it needs before chunk i+1 starts (chunk-major order).
    """
    outs = None
    for start in range(0, n, CHUNK):
        k = min(CHUNK, n - start)
        parts = rows(k)
        if outs is None:
            outs = tuple(np.empty((n, *p.shape[1:]), p.dtype) for p in parts)
        for out, p in zip(outs, parts):
            out[start : start + k] = p
    return outs


def _mean_and_se(vals):
    """Sample mean and its standard error (0 for a single value)."""
    n = vals.shape[0]
    se = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(vals.mean()), se


def _band_batch(dist, w_hat, b, rng, n):
    """n points from the band law around unit w_hat, bypassing the ledger."""
    m = dists.truncated_margin(dist, b, 2.0 * rng.random(n) - 1.0)
    Z = rng.standard_normal((n, dist.d))
    radial = _ball_radial(dist, m, rng.random(n)) if dist.family == "uniform_ball" else None
    return _complete_band_points(np.broadcast_to(w_hat, Z.shape), m, Z, radial)


def estimate_psi(w, b, dist, noise, truth, n, rng):
    """Band potential of w: mean of (1 - 2*eta(x)) |<w*, x>| over the band at b."""
    n = int(n)
    if n < 1:
        raise InvalidInputError("estimate_psi needs at least one sample")
    if not b > 0.0:
        raise InvalidInputError("bandwidth b must be positive")
    if dist.family == "uniform_ball" and b > dist.radius:
        raise InvalidInputError("bandwidth b exceeds the support radius")
    w_hat = normalize(w)

    def rows(k):
        m_star = _band_batch(dist, w_hat, b, rng, k) @ truth.w_star
        return ((1.0 - 2.0 * eta_of_margin(noise, m_star)) * np.abs(m_star),)

    value, se = _mean_and_se(_stream(n, rows)[0])
    return PsiEstimate(value=value, std_error=se, sample_count=n)


def _excess_mc(v, dist, noise, truth, rng, n):
    v = np.asarray(v, dtype=float)

    def rows(k):
        X = dists.sample(dist, rng, k)
        m_star = X @ truth.w_star
        dis = ((X @ v) >= 0.0) != (m_star >= 0.0)
        return (dis * (1.0 - 2.0 * eta_of_margin(noise, m_star)),)

    return _mean_and_se(_stream(n, rows)[0])


def excess_error(v, dist, noise, truth, rng=None, n=None, method="auto"):
    """Excess misclassification risk of sign(<v, .>) over the optimal halfspace.

    "exact" uses the closed form (1 - 2*eta) * angle/pi, valid only for
    constant flip rate (every family is spherically symmetric);
    "mc" averages (1 - 2*eta(x)) over the disagreement region.
    """
    exact_ok = noise.kind == "massart"
    if method == "auto":
        method = "exact" if exact_ok else "mc"
    if method == "exact":
        if not exact_ok:
            raise UnsupportedRegimeError("closed-form excess needs a constant flip rate")
        return (1.0 - 2.0 * noise.eta) * angle(v, truth.w_star) / math.pi
    if method != "mc":
        raise InvalidInputError(f"unknown excess method {method!r}")
    if rng is None or n is None:
        raise InvalidInputError("Monte Carlo excess needs rng and n")
    n = int(n)
    if n < 1:
        raise InvalidInputError("Monte Carlo excess needs at least one sample")
    value, _ = _excess_mc(v, dist, noise, truth, rng, n)
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


def _psi_lower_bound(regime, dist, b, theta, model, A=None):
    L, R, U, beta = dist.L, dist.R, dist.U, dist.beta
    logf = math.log(2.0 / (b * U * beta))
    if regime == "MNC":
        return (1.0 - 2.0 * model.eta) * R**2 * L / (128.0 * U * beta * logf) * theta
    if regime == "TNC":
        a = model.alpha
        return (
            (R * b * L / (8.0 * A)) ** ((1.0 - a) / a)
            * R**2
            * L
            / (256.0 * U * beta * logf)
            * theta
        )
    a = model.alpha
    return (
        R
        * L
        / (16.0 * U * beta * logf)
        * min(R * theta / 8.0, model.B * (R * theta / 8.0) ** (1.0 / a))
    )


def verify_lemma_suite(dist, truth, rng, noise=None, samples=10**6):
    """Monte Carlo check of the analysis inequalities the schedules rely on.

    Runs five families of checks: band-potential lower bounds per regime,
    closed-form band-mass bounds, disagreement-probability bounds, the noise
    tail bound behind the Tsybakov conversion, and the excess-error lower
    bounds. Returns a JSON-serializable report; passed means every check
    held within three standard errors (deterministic checks exactly).
    Needs samples >= 2, so that every standard error is defined.
    """
    samples = int(samples)
    if samples < 2:
        raise InvalidInputError(f"the lemma suite needs at least 2 samples, got {samples}")
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

    regime = None if noise is None else regime_for_noise(noise)
    mnc = noise if regime == "MNC" else massart(0.2)
    gt = noise if regime == "GTNC" else geometric_tsybakov(1.0, 0.75)
    tnc = gt if 0.5 < gt.alpha < 1.0 else geometric_tsybakov(1.0, 0.75)
    A_exact = exact_tsybakov_A(tnc.B, tnc.alpha, dist)

    checks = []

    # band-potential lower bounds at random directions with tilde angle >= 4b/R
    b_psi = 0.1 * R
    thetas = rng.uniform(4.0 * b_psi / R + 0.05, math.pi / 2.0, size=3)
    for regime, model in (("MNC", mnc), ("TNC", tnc), ("GTNC", gt)):
        for theta in thetas:
            w = _tilted(w_star, float(theta), rng)
            est = estimate_psi(w, b_psi, dist, model, truth, samples, rng)
            bound = _psi_lower_bound(
                regime, dist, b_psi, float(theta), model, A=A_exact if regime == "TNC" else None
            )
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
    for b in (0.02, 0.05, 0.1, 0.2, min(0.5, R / 2.0)):
        p = dists.band_probability(dist, b)
        lo = b * R * L
        hi = 4.0 * b * U * beta * math.log(2.0 / (b * U * beta))
        checks.append(_check("band-mass-lower", {"b": b}, p, lo, 0.0, "ge"))
        checks.append(_check("band-mass-upper", {"b": b}, p, hi, 0.0, "le"))

    # one shared sample batch for the remaining checks, streamed in chunks that
    # keep only each row's margin <w*, x> and its disagreement with the tilted
    # directions: four for the disagreement checks, then three for the excess ones
    dis_angles, excess_angles = (0.1, 0.7, 1.8, 2.9), (0.15, 0.4, 0.9)
    V = np.array([_tilted(w_star, theta, rng) for theta in dis_angles + excess_angles])

    def rows(k):
        X = dists.sample(dist, rng, k)
        m = X @ w_star
        return m, ((X @ V.T) >= 0.0) != (m >= 0.0)[:, None]

    m_star, dis = _stream(samples, rows)

    # disagreement probability against angle, both sides
    for j, theta in enumerate(dis_angles):
        q = float(np.mean(dis[:, j]))
        se = math.sqrt(max(q * (1.0 - q), 1e-12) / samples)
        lo = L * R**2 * theta
        hi = min(
            4.0 * U * beta**2 * math.log(6.0 / g) ** 2 * theta + g
            for g in (0.001, 0.01, 0.05, 0.1)
        )
        checks.append(_check("disagreement-lower", {"angle": theta}, q, lo, se, "ge"))
        checks.append(_check("disagreement-upper", {"angle": theta}, q, hi, se, "le"))

    # noise mass near the decision boundary (the Tsybakov conversion's tail)
    a, B = tnc.alpha, tnc.B
    gap = 0.5 - eta_of_margin(tnc, m_star)
    for t in (0.05, 0.1, 0.2, 0.3, 0.45):
        frac = float(np.mean(gap <= t))
        z = (t / B) ** (a / (1.0 - a))
        bound = 4.0 * U * beta * z * math.log(2.0 / (U * beta * z))
        se = math.sqrt(max(frac * (1.0 - frac), 1e-12) / samples)
        checks.append(_check("noise-tail", {"t": t}, frac, bound, se, "le"))

    # excess-error lower bounds in terms of the exact disagreement probability;
    # under constant eta the MNC bound (1 - 2*eta) * q is the exact excess, so
    # it is reported as measured with no error (Monte Carlo fails it 0.13% of the time)
    for j, theta in enumerate(excess_angles, start=len(dis_angles)):
        q = dists.exact_disagreement(dist, V[j], w_star)
        for name, model, bound in (
            ("excess-lower-mnc", mnc, (1.0 - 2.0 * mnc.eta) * q),
            (
                "excess-lower-tnc",
                tnc,
                (1.0 / (2.0 * A_exact)) ** ((1.0 - tnc.alpha) / tnc.alpha)
                * q ** (1.0 / tnc.alpha),
            ),
            (
                "excess-lower-gtnc",
                gt,
                gt.B
                * (q / 3.0) ** (1.0 / gt.alpha)
                * (12.0 * U * beta * math.log(9.0 / q)) ** (-(1.0 - gt.alpha) / gt.alpha),
            ),
        ):
            setting = {"angle": theta, "disagreement": q}
            if model.kind == "massart":
                checks.append(_check(name, setting, bound, bound, 0.0, "ge"))
                continue
            vals = dis[:, j] * (1.0 - 2.0 * eta_of_margin(model, m_star))
            value, se = _mean_and_se(vals)
            checks.append(_check(name, setting, value, bound, se, "ge"))

    return checks
