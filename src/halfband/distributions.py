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

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import InvalidInputError
from .geometry import MAX_COUNT, angle, choice, generator, integer, real

# Every family is rotation invariant: diagnostics' Monte Carlo estimators draw only the
# two coordinates of x in the plane they read. A family that is not rotation invariant
# needs a d-dimensional path in those estimators.
FAMILIES = ("gaussian", "uniform_ball")
MAX_D = MAX_COUNT  # d's cap: the schedules and the uniform ball's constants take d as a float


def _check_family_and_d(family, d):
    """d as an int; InvalidInputError unless family is a choice and d an integer in [2, MAX_D]."""
    choice("family", family, FAMILIES)
    return integer("dimension", d, 2, MAX_D)


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
    """Family at an integer d in [2, MAX_D], with four real params (L, R, U, beta) or defaults."""
    d = _check_family_and_d(family, d)
    if params is None:
        params = default_params(family, d)
    try:
        four = len(params) == 4
    except TypeError:  # a number, or a 0-d array
        four = False
    if not four:
        raise InvalidInputError("params must be a sequence of four values (L, R, U, beta)")
    L, R, U, beta = (real(f"params[{i}]", v) for i, v in enumerate(params))
    lo, hi = PARAM_RANGE
    if not all(lo <= v <= hi for v in (L, R, U, beta)):
        raise InvalidInputError(
            f"params L, R, U, beta must each lie in [{lo:g}, {hi:g}], got {(L, R, U, beta)}"
        )
    if not L <= U:
        raise InvalidInputError(f"params must satisfy L <= U, got L={L!r}, U={U!r}")
    return WellBehavedDistribution(family, d, L, R, U, beta)


def sample(dist, rng, n):
    """Draw n i.i.d. points as an (n, d) array; no ledger.

    n must be an integer in [0, 2^53] (geometry.integer) and rng a numpy Generator
    (geometry.generator).
    """
    n = integer("sample: n", n, 0, MAX_COUNT)
    generator("sample: rng", rng)
    if dist.family == "gaussian":
        return rng.standard_normal((n, dist.d))
    z = rng.standard_normal((n, dist.d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    radii = dist.radius * rng.random(n) ** (1.0 / dist.d)
    return z * radii[:, None]


def margin_cdf(dist, t):
    """CDF of <w,x> for any unit w (direction-free by isotropy)."""
    t = np.asarray(t, dtype=float)
    if dist.family == "gaussian":
        return special.ndtr(t)
    u = np.clip(np.abs(t) / dist.radius, 0.0, 1.0)
    half = 0.5 * special.betainc(0.5, (dist.d + 1) / 2.0, u**2)
    return 0.5 + np.sign(t) * half


def band_probability(dist, b):
    """P(|<w,x>| <= b) for any unit w; b must be a positive real number (geometry.real)."""
    b = real("band_probability: b", b)
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
    # sign(u) * radius * sqrt(frac), formed in one array: the sign is exact, so
    # negating where u < 0 gives the same bits
    out = np.abs(u, out=np.empty_like(u))
    out *= q
    special.betaincinv(0.5, (dist.d + 1) / 2.0, out, out=out)
    np.sqrt(out, out=out)
    out *= dist.radius
    return np.negative(out, out=out, where=u < 0.0)


def band_mass_bounds(dist, b):
    """(lo, hi): the analysis's two-sided bounds on band_probability(dist, b) at the constants."""
    return b * dist.R * dist.L, 4.0 * b * dist.U * dist.beta * math.log(
        2.0 / (b * dist.U * dist.beta))


def band_mass_grid(dist):
    """The bandwidths at which the checks hold band_probability to band_mass_bounds."""
    return (0.02, 0.05, 0.1, 0.2, min(0.5, dist.R / 2.0))


def ball_radial(dist, m, V):
    """Length of the part of a uniform-ball point orthogonal to its margin direction.

    Given the margin m, the rest of the point is uniform in a (d-1)-ball of
    radius sqrt(rho^2 - m^2), so uniforms V give its length; elementwise on
    arrays, with one temporary. Works in V's own memory and overwrites it: V
    is a float array the caller needs only here, and a copy of it would set
    a refill block's peak memory.
    """
    V **= 1.0 / (dist.d - 1)  # in place, through the same kernels as V ** (1/(d-1))
    span = np.multiply(m, m, out=np.empty_like(V))
    np.subtract(dist.radius**2, span, out=span)
    V *= np.sqrt(span, out=span)
    return V


def projected_density_2d(dist, z):
    """Density of a 2-d projection of x at points z (shape (..., 2)); closed form.

    It falls with |z|; the uniform ball's is 0 outside its support at every d.
    """
    z = np.asarray(z, dtype=float)
    r2 = np.sum(z**2, axis=-1)
    if dist.family == "gaussian":
        return np.exp(-0.5 * r2) / (2.0 * np.pi)
    rho2 = dist.radius**2
    inside = 1.0 - r2 / rho2
    density = dist.d / (2.0 * np.pi * rho2) * np.clip(inside, 0.0, None) ** ((dist.d - 2) / 2.0)
    return density * (inside >= 0.0)  # 0 ** 0 is 1: at d = 2 the power alone stays on


def margin_density_at_zero(dist):
    """Peak density of the 1-d margin <w,x>; P(|<w,x>| <= z) <= 2 * peak * z."""
    if dist.family == "gaussian":
        return float(1.0 / np.sqrt(2.0 * np.pi))
    # the ball's margin density at 0 is Gamma(d/2 + 1) / (sqrt(pi) Gamma((d+1)/2)) / radius, that
    # is 1 / (B(1/2, (d+1)/2) radius); the Gamma ratio overflows past d = 341, the Beta does not
    return float(1.0 / (special.beta(0.5, (dist.d + 1) / 2.0) * dist.radius))


def exact_disagreement(dist, u, v):
    """P(sign<u,x> != sign<v,x>) = angle(u,v)/pi; every family is spherically symmetric."""
    return angle(u, v) / np.pi


def certify_parameters(dist, rng, samples=10**5):
    """Check the stored (L, R, U, beta) against the family's actual law.

    Returns a report dict (never raises on failure). All but isotropy-ks are
    exact: the projected density at its extremes on the radius-R disk (|z| = R
    and 0), the closed-form tail and band mass. isotropy-ks tests the sampler on
    samples points (an integer in [1, 2^53]) drawn from rng, a numpy Generator
    (geometry.generator).
    """
    samples = integer("certify_parameters needs at least one sample: samples", samples, 1,
                      MAX_COUNT)
    generator("certify_parameters: rng", rng)
    # scipy.stats costs most of the package's import time; only this check needs it
    from scipy import stats

    checks = []

    def add(name, passed, margin, detail):
        checks.append(
            {"check": name, "passed": bool(passed), "margin": float(margin), "detail": detail}
        )

    # (i) 2-d projected density >= L on the radius-R disk: its minimum is at |z| = R
    dmin = float(projected_density_2d(dist, (dist.R, 0.0)))
    add(
        "projected-density-lower",
        dmin >= dist.L * (1.0 - 1e-12),
        dmin / dist.L - 1.0,
        {"min_density": dmin, "L": dist.L},
    )

    # (i') 2-d projected density <= U everywhere: its maximum is at z = 0
    dmax = float(projected_density_2d(dist, (0.0, 0.0)))
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
    rows = []
    worst = np.inf
    ok = True
    for b in band_mass_grid(dist):
        p = band_probability(dist, b)
        lo, hi = band_mass_bounds(dist, b)
        rows.append({"b": b, "mass": p, "lower": lo, "upper": hi})
        # hi < 0 once b U beta > 2: dividing by |hi| keeps a failed bound's margin negative
        worst = min(worst, (p - lo) / max(p, 1e-300), (hi - p) / max(abs(hi), 1e-300))
        ok = ok and lo <= p * (1.0 + 1e-12) and p <= hi * (1.0 + 1e-12)
    add("band-mass-bounds", ok, worst, {"grid": rows})

    return {
        "family": dist.family,
        "d": dist.d,
        "params": {"L": dist.L, "R": dist.R, "U": dist.U, "beta": dist.beta},
        "samples": samples,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
