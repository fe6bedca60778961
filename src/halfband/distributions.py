"""Unlabeled-data generators with certified (L, R, U, beta) structure constants.

Both families are isotropic with closed-form one-dimensional margins and
two-dimensional projected densities, so every downstream statistical check
has an exact oracle:

- "gaussian": standard normal on R^d.
- "uniform_ball": uniform on the ball of radius sqrt(d+2) (isotropic,
  unit per-coordinate variance).

The constants mean: any 2-d projection of the density is >= L on the disk
of radius R and <= U everywhere, and every 1-d margin has sub-exponential
tail P(|<w,x>| >= t) <= exp(1 - t/beta).
"""

import numbers
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import InvalidInputError
from .geometry import angle

FAMILIES = ("gaussian", "uniform_ball")


def _check_family_and_d(family, d):
    """InvalidInputError unless family is known and d is an integer >= 2."""
    if family not in FAMILIES:
        raise InvalidInputError(f"unknown family {family!r}")
    if isinstance(d, bool) or not isinstance(d, numbers.Integral) or d < 2:
        raise InvalidInputError(f"dimension must be an integer at least 2, got {d!r}")


@dataclass(frozen=True)
class WellBehavedDistribution:
    family: str
    d: int
    L: float
    R: float
    U: float
    beta: float

    def __post_init__(self):
        _check_family_and_d(self.family, self.d)

    @property
    def radius(self):
        """Support radius: sqrt(d+2) for the uniform ball, inf for the Gaussian."""
        if self.family == "uniform_ball":
            return float(np.sqrt(self.d + 2))
        return np.inf


def default_params(family, d):
    """Certified (L, R, U, beta) for a family at dimension d.

    Gaussian: the 2-d projected density is (1/2pi) exp(-|z|^2/2), so U is its
    value at 0 and L its value at radius R = 1. Uniform ball of radius
    rho = sqrt(d+2): the 2-d projected density is
    (d / (2 pi rho^2)) (1 - |z|^2/rho^2)^{(d-2)/2}, evaluated the same way.
    beta = 1 satisfies the tail bound for both (certified numerically).
    """
    _check_family_and_d(family, d)
    if family == "gaussian":
        U = 1.0 / (2.0 * np.pi)
        return (U * np.exp(-0.5), 1.0, U, 1.0)
    rho2 = d + 2.0
    U = d / (2.0 * np.pi * rho2)
    L = U * (1.0 - 1.0 / rho2) ** ((d - 2) / 2.0)
    return (L, 1.0, U, 1.0)


# The analysis bounds multiply up to three constants and take logs of such products,
# as log(2 / (b U beta)) in every band-mass bound. Inside this range each such product,
# b included, is a normal float, so the constants alone never make a bound divide by
# an underflowed zero, take the log of inf or turn NaN.
PARAM_RANGE = (1e-100, 1e100)


def make_distribution(family, d, params=None):
    d = int(d)
    if params is None:
        params = default_params(family, d)
    L, R, U, beta = (float(v) for v in params)
    lo, hi = PARAM_RANGE
    if not all(lo <= v <= hi for v in (L, R, U, beta)):
        raise InvalidInputError(
            f"params L, R, U, beta must each lie in [{lo:g}, {hi:g}], got {(L, R, U, beta)}"
        )
    if not L <= U:
        raise InvalidInputError(f"params must satisfy L <= U, got L={L!r}, U={U!r}")
    return WellBehavedDistribution(family, d, L, R, U, beta)


def sample(dist, rng, n=None):
    """Draw n i.i.d. points (or one point when n is None). No ledger involved."""
    m = 1 if n is None else int(n)
    if dist.family == "gaussian":
        x = rng.standard_normal((m, dist.d))
    else:
        z = rng.standard_normal((m, dist.d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        radii = dist.radius * rng.random(m) ** (1.0 / dist.d)
        x = z * radii[:, None]
    return x[0] if n is None else x


def margin_cdf(dist, t):
    """CDF of <w,x> for any unit w (direction-free by isotropy)."""
    t = np.asarray(t, dtype=float)
    if dist.family == "gaussian":
        return special.ndtr(t)
    u = np.clip(np.abs(t) / dist.radius, 0.0, 1.0)
    half = 0.5 * special.betainc(0.5, (dist.d + 1) / 2.0, u**2)
    return 0.5 + np.sign(t) * half


def band_probability(dist, b):
    """P(|<w,x>| <= b) for any unit w."""
    if not b > 0:
        raise InvalidInputError("band_probability: b must be positive")
    if dist.family == "gaussian":
        return float(2.0 * special.ndtr(b) - 1.0)
    u = min(1.0, b / dist.radius) ** 2  # clip first: (b / radius) ** 2 can overflow
    return float(special.betainc(0.5, (dist.d + 1) / 2.0, u))


def truncated_margin(dist, b, u):
    """Inverse-CDF sample of <w,x> conditioned on |<w,x>| <= b, from u ~ Unif(-1, 1).

    Vectorized in u; exact for both families, so band sampling needs no
    accept/reject loop on the margin coordinate.
    """
    u = np.asarray(u, dtype=float)
    if dist.family == "gaussian":
        # once ndtr(b) rounds to 1 (b >~ 8.3), u = -1 maps to ndtri(0) = -inf;
        # the clip keeps every value in the band and leaves in-band values as they are
        return np.clip(special.ndtri(0.5 + u * (special.ndtr(b) - 0.5)), -b, b)
    q = band_probability(dist, b)
    frac = special.betaincinv(0.5, (dist.d + 1) / 2.0, np.abs(u) * q)
    return np.sign(u) * dist.radius * np.sqrt(frac)


def projected_density_2d(dist, z):
    """Density of a 2-d projection of x at points z (shape (..., 2)); closed form."""
    z = np.asarray(z, dtype=float)
    r2 = np.sum(z**2, axis=-1)
    if dist.family == "gaussian":
        return np.exp(-0.5 * r2) / (2.0 * np.pi)
    rho2 = dist.radius**2
    inside = np.clip(1.0 - r2 / rho2, 0.0, None)
    return dist.d / (2.0 * np.pi * rho2) * inside ** ((dist.d - 2) / 2.0)


def margin_density_at_zero(dist):
    """Peak density of the 1-d margin <w,x>; P(|<w,x>| <= z) <= 2 * peak * z."""
    if dist.family == "gaussian":
        return float(1.0 / np.sqrt(2.0 * np.pi))
    d = dist.d
    c = special.gamma(d / 2.0 + 1.0) / (np.sqrt(np.pi) * special.gamma((d + 1) / 2.0))
    return float(c / dist.radius)


def exact_disagreement(dist, u, v):
    """P(sign<u,x> != sign<v,x>) = angle(u,v)/pi; every family is spherically symmetric."""
    return angle(u, v) / np.pi


def certify_parameters(dist, rng=None, samples=10**5):
    """Check the stored (L, R, U, beta) against the family's actual law.

    Returns a report dict (never raises on failure). Density checks use the
    closed-form projected density, so they need no estimation allowance.
    """
    # scipy.stats costs most of the package's import time; only this check needs it
    from scipy import stats

    rng = np.random.default_rng(0) if rng is None else rng
    checks = []

    def add(name, passed, margin, detail):
        checks.append(
            {"check": name, "passed": bool(passed), "margin": float(margin), "detail": detail}
        )

    # (i) 2-d projected density >= L on the radius-R disk (closed form at random points)
    theta = rng.random(samples) * 2.0 * np.pi
    rad = dist.R * np.sqrt(rng.random(samples))
    disk = np.stack([rad * np.cos(theta), rad * np.sin(theta)], axis=1)
    dmin = float(projected_density_2d(dist, disk).min())
    add(
        "projected-density-lower",
        dmin >= dist.L * (1.0 - 1e-12),
        dmin / dist.L - 1.0,
        {"min_density": dmin, "L": dist.L},
    )

    # (i') 2-d projected density <= U at sampled points (random 2-d frame)
    frame, _ = np.linalg.qr(rng.standard_normal((dist.d, 2)))
    proj = sample(dist, rng, samples) @ frame
    dmax = float(projected_density_2d(dist, proj).max())
    add(
        "projected-density-upper",
        dmax <= dist.U * (1.0 + 1e-12),
        1.0 - dmax / dist.U,
        {"max_density": dmax, "U": dist.U},
    )

    # (ii) sub-exponential 1-d tail on a fixed grid, closed-form margin CDF
    tgrid = np.arange(0.5, 6.0 + 1e-9, 0.5)
    tail = 2.0 * (1.0 - margin_cdf(dist, tgrid))
    bound = np.exp(1.0 - tgrid / dist.beta)
    # a tiny beta underflows the bound to 0; the floor keeps the margin finite
    tail_margin = float(np.min((bound - tail) / np.maximum(bound, 1e-300)))
    add(
        "tail-bound",
        bool(np.all(tail <= bound * (1.0 + 1e-12))),
        tail_margin,
        {"t": tgrid.tolist(), "tail": tail.tolist(), "bound": bound.tolist()},
    )

    # isotropy: 1-d margins along random directions match the closed-form CDF;
    # each of the KS tests runs at level/directions (Bonferroni), so a correct
    # sampler fails the family with probability at most `level`
    X = sample(dist, rng, samples)
    level, directions = 0.01, 5
    per_test = level / directions
    pvals = []
    for _ in range(directions):
        w = rng.standard_normal(dist.d)
        w /= np.linalg.norm(w)
        pvals.append(float(stats.kstest(X @ w, lambda t: margin_cdf(dist, t)).pvalue))
    add(
        "isotropy-ks",
        min(pvals) >= per_test,
        min(pvals) - per_test,
        {"pvalues": pvals, "significance": level, "per_test_significance": per_test},
    )

    # band-mass two-sided bounds at the stored constants
    bgrid = [0.02, 0.05, 0.1, 0.2, min(dist.R / 2.0, 0.5)]
    rows = []
    worst = np.inf
    ok = True
    for b in bgrid:
        p = band_probability(dist, b)
        lo = b * dist.R * dist.L
        hi = 4.0 * b * dist.U * dist.beta * np.log(2.0 / (b * dist.U * dist.beta))
        rows.append({"b": b, "mass": p, "lower": lo, "upper": hi})
        # hi < 0 once b U beta > 2: dividing by |hi| keeps a failed bound's margin negative
        worst = min(worst, (p - lo) / max(p, 1e-300), (hi - p) / max(abs(hi), 1e-300))
        ok = ok and lo <= p * (1.0 + 1e-12) and p <= hi * (1.0 + 1e-12)
    add("band-mass-bounds", ok, worst, {"grid": rows})

    return {
        "family": dist.family,
        "d": dist.d,
        "params": {"L": dist.L, "R": dist.R, "U": dist.U, "beta": dist.beta},
        "samples": int(samples),
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
