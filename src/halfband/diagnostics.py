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
    NoiseModel,
    _ball_radial,
    _complete_band_points,
    eta_of_margin,
    exact_tsybakov_A,
    geometric_tsybakov,
    massart,
)


@dataclass(frozen=True)
class PsiEstimate:
    value: float
    std_error: float
    sample_count: int


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
    X = _band_batch(dist, w_hat, b, rng, n)
    m_star = X @ truth.w_star
    vals = (1.0 - 2.0 * eta_of_margin(noise, m_star)) * np.abs(m_star)
    se = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return PsiEstimate(value=float(vals.mean()), std_error=se, sample_count=n)


def _excess_mc(v, dist, noise, truth, rng, n):
    X = dists.sample(dist, rng, n)
    m_star = X @ truth.w_star
    dis = ((X @ np.asarray(v, dtype=float)) >= 0.0) != (m_star >= 0.0)
    vals = dis * (1.0 - 2.0 * eta_of_margin(noise, m_star))
    se = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(vals.mean()), se


def excess_error(v, dist, noise, truth, rng=None, n=None, method="auto"):
    """Excess misclassification risk of sign(<v, .>) over the optimal halfspace.

    "exact" uses the closed form (1 - 2*eta) * angle/pi, valid only for
    constant flip rate under the supported spherically symmetric families;
    "mc" averages (1 - 2*eta(x)) over the disagreement region.
    """
    exact_ok = noise.kind == "massart" and dist.family in dists.FAMILIES
    if method == "auto":
        method = "exact" if exact_ok else "mc"
    if method == "exact":
        if not exact_ok:
            raise UnsupportedRegimeError(
                "closed-form excess needs constant flip rate and a symmetric family"
            )
        return (1.0 - 2.0 * noise.eta) * angle(v, truth.w_star) / math.pi
    if method != "mc":
        raise InvalidInputError(f"unknown excess method {method!r}")
    if rng is None or n is None:
        raise InvalidInputError("Monte Carlo excess needs rng and n")
    value, _ = _excess_mc(v, dist, noise, truth, rng, int(n))
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
    """
    samples = int(samples)
    L, R, U, beta = dist.L, dist.R, dist.U, dist.beta
    w_star = truth.w_star

    if noise is not None and noise.kind in ("massart", "massart_band"):
        mnc = noise
    else:
        mnc = massart(0.2)
    if noise is not None and noise.kind == "geometric_tsybakov":
        gt = noise
    else:
        gt = geometric_tsybakov(1.0, 0.75)
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

    # one shared sample batch for the remaining checks
    X = dists.sample(dist, rng, samples)
    m_star = X @ w_star
    sgn_star = m_star >= 0.0

    # disagreement probability against angle, both sides
    for theta in (0.1, 0.7, 1.8, 2.9):
        v = _tilted(w_star, theta, rng)
        q = float(np.mean(((X @ v) >= 0.0) != sgn_star))
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

    # excess-error lower bounds in terms of the exact disagreement probability
    for theta in (0.15, 0.4, 0.9):
        v = _tilted(w_star, theta, rng)
        dis = ((X @ v) >= 0.0) != sgn_star
        q = dists.exact_disagreement(dist, v, w_star)
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
            vals = dis * (1.0 - 2.0 * eta_of_margin(model, m_star))
            se = float(vals.std(ddof=1) / math.sqrt(samples))
            checks.append(
                _check(name, {"angle": theta, "disagreement": q}, float(vals.mean()), bound, se, "ge")
            )

    return {
        "passed": bool(all(c["passed"] for c in checks)),
        "samples": samples,
        "family": dist.family,
        "d": dist.d,
        "checks": checks,
    }
