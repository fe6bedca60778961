"""Simulated oracles: hidden ground truth, noisy labels, band-restricted sampling.

The labeling oracle is the only label source in the package, so the ledger's
label count is exactly the label complexity. Band sampling is implemented by
inverse-CDF sampling of the margin coordinate plus a geometric attempt count;
the joint law of (returned point, EX calls consumed) is identical to literal
keep-trying rejection sampling because the accepted point of a rejection loop
is independent of how many proposals it burned. No loop runs, so no draw can
exhaust a budget: a band is checked once, when its sampler is built, and one
too thin to sample (probability 0, or attempt counts past int64) raises
BandTooThinError before any draw.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import distributions as dists
from .errors import BandTooThinError, InvalidInputError
from .geometry import normalize


@dataclass
class QueryLedger:
    """Exact oracle call counts, and the largest feasibility gap any descent epoch reported."""

    ex_calls: int = 0
    label_calls: int = 0
    max_feasibility_gap: float = 0.0


@dataclass(frozen=True)
class GroundTruth:
    w_star: np.ndarray
    s: int | None = None


def make_ground_truth(d, rng, s=None):
    """Hidden optimum: a seeded uniformly random unit vector.

    Sparse mode places s nonzeros of equal magnitude and random sign at
    seeded random coordinates.
    """
    d = int(d)
    if s is None:
        return GroundTruth(normalize(rng.standard_normal(d)))
    s = int(s)
    if not 1 <= s <= d:
        raise InvalidInputError("sparse support size must satisfy 1 <= s <= d")
    w = np.zeros(d)
    idx = rng.choice(d, size=s, replace=False)
    w[idx] = rng.choice([-1.0, 1.0], size=s) / np.sqrt(s)
    return GroundTruth(w, s=s)


@dataclass(frozen=True)
class NoiseModel:
    """Conditional flip rate eta(x); every kind keeps eta(x) <= 1/2.

    kinds: "massart" (constant eta), "massart_band" (eta inside margin tau,
    clean outside), "geometric_tsybakov" (flip rate approaching 1/2 at the
    decision boundary at a rate set by B and alpha; the hardest generator
    compatible with the pointwise margin condition
    1/2 - eta(x) >= min(1/2, B |<w*,x>|^{(1-alpha)/alpha}), met with equality).
    """

    kind: str
    eta: float = 0.0
    tau: float = 0.0
    B: float = 0.0
    alpha: float = 1.0


def massart(eta):
    if not 0.0 <= eta < 0.5:
        raise InvalidInputError("massart: eta must lie in [0, 1/2)")
    return NoiseModel("massart", eta=float(eta))


def massart_band(eta, tau):
    if not 0.0 <= eta < 0.5:
        raise InvalidInputError("massart_band: eta must lie in [0, 1/2)")
    if not tau > 0:
        raise InvalidInputError("massart_band: tau must be positive")
    return NoiseModel("massart_band", eta=float(eta), tau=float(tau))


def geometric_tsybakov(B, alpha):
    if not B > 0:
        raise InvalidInputError("geometric_tsybakov: B must be positive")
    if not 0.0 < alpha <= 1.0:
        raise InvalidInputError("geometric_tsybakov: alpha must lie in (0, 1]")
    return NoiseModel("geometric_tsybakov", B=float(B), alpha=float(alpha))


def eta_of_margin(model, m):
    """Flip rate as a function of the ground-truth margin <w*,x>; vectorized."""
    m = np.asarray(m, dtype=float)
    if model.kind == "massart":
        return np.full_like(m, model.eta)
    if model.kind == "massart_band":
        return np.where(np.abs(m) <= model.tau, model.eta, 0.0)
    if model.kind == "geometric_tsybakov":
        expo = (1.0 - model.alpha) / model.alpha
        return 0.5 - np.minimum(0.5, model.B * np.abs(m) ** expo)
    raise InvalidInputError(f"unknown noise kind {model.kind!r}")


def query_label(model, truth, x, rng, ledger):
    """One labeling-oracle call: sign(<w*,x>) flipped with probability eta(x).

    sign(0) is +1. Increments ledger.label_calls by exactly 1; this function
    is the package's only label source.
    """
    m = float(np.dot(truth.w_star, x))
    y = 1.0 if m >= 0.0 else -1.0
    ledger.label_calls += 1
    if rng.random() < float(eta_of_margin(model, m)):
        y = -y
    return y


def query_labels(model, truth, X, u, ledger):
    """Labeling-oracle calls for the rows of X; query_label for a batch.

    Row i is labeled sign(<w*,x_i>) (sign(0) = +1), flipped when u[i] < eta(x_i),
    so uniforms u ~ Unif[0,1) give each row its flip probability. Increments
    ledger.label_calls by exactly len(X).
    """
    X = np.asarray(X, dtype=float)
    m = np.einsum("ij,j->i", X, truth.w_star)  # row by row, the same for any row count
    y = np.where(m >= 0.0, 1.0, -1.0)
    ledger.label_calls += m.shape[0]
    return np.where(np.asarray(u) < eta_of_margin(model, m), -y, y)


def halfspace_labels(X, w):
    """Noise-free labels sign(<w,x>) with sign(0) = +1; rows of X."""
    return np.where(X @ w >= 0.0, 1.0, -1.0)


def _geometric_attempts(p, u):
    """Map u ~ Unif[0,1) to the attempt count of a success-probability-p loop."""
    if p >= 1.0:
        return np.ones_like(np.asarray(u), dtype=np.int64)
    return (np.floor(np.log1p(-np.asarray(u)) / math.log1p(-p))).astype(np.int64) + 1


# the largest float Generator.random returns, where _geometric_attempts peaks
U_MAX = 1.0 - 2.0**-53


def _checked_band_probability(dist, b, rows):
    """band_probability(dist, b) for a sampler that draws `rows` points per step.

    Raises BandTooThinError when p is 0, or when the largest attempt count
    _geometric_attempts can return, times `rows`, does not fit int64: the
    ledger then could not hold the step's EX calls exactly.
    """
    if not b > 0:
        raise InvalidInputError("band sampler: b must be positive")
    p = dists.band_probability(dist, b)
    if p < 1.0:
        with np.errstate(divide="ignore", over="ignore"):  # p = 0 or tiny gives inf
            floor = float(np.floor(np.log1p(-U_MAX) / math.log1p(-p)))
        if not (math.isfinite(floor) and (int(floor) + 1) * rows <= np.iinfo(np.int64).max):
            raise BandTooThinError(b, p)
    return p


def _complete_band_point(dist, w_hat, m, z, v):
    """Assemble x with <w_hat,x> = m using isotropic randomness z (and radius u.v.)."""
    if dist.family == "gaussian":
        # orthogonal part of a standard normal stays standard normal
        return z + (m - z @ w_hat) * w_hat
    # uniform ball: given the margin, the rest is uniform in a (d-1)-ball
    z_perp = z - (z @ w_hat) * w_hat
    z_perp /= np.linalg.norm(z_perp)
    radial = math.sqrt(dist.radius**2 - m * m) * v ** (1.0 / (dist.d - 1))
    return m * w_hat + radial * z_perp


def _complete_band_points(dist, W_hat, m, Z, V):
    """_complete_band_point applied row by row to (K, d) directions and completions."""
    zw = np.einsum("ij,ij->i", Z, W_hat)
    if dist.family == "gaussian":
        return Z + (m - zw)[:, None] * W_hat
    Z_perp = Z - zw[:, None] * W_hat
    Z_perp /= np.sqrt(np.einsum("ij,ij->i", Z_perp, Z_perp))[:, None]
    radial = np.sqrt(dist.radius**2 - m * m) * V ** (1.0 / (dist.d - 1))
    return m[:, None] * W_hat + radial[:, None] * Z_perp


# draws BandSampler generates at a time
DRAW_BLOCK = 8192


class BandSampler:
    """Band-conditional draws around a per-call unit direction, block-buffered.

    Margins, attempt counts, and the isotropic completion variables are
    generated in blocks (they are i.i.d. and independent of the direction),
    which keeps the per-draw law that of literal rejection (module docstring)
    while amortizing generator overhead across an optimization loop. Each
    draw charges its attempt count to ledger.ex_calls.
    """

    def __init__(self, dist, b, rng, ledger):
        self.p = _checked_band_probability(dist, b, 1)
        self.dist = dist
        self.b = float(b)
        self.rng = rng
        self.ledger = ledger
        self.pos = DRAW_BLOCK  # force a refill on first draw

    def _refill(self):
        n = DRAW_BLOCK
        self.attempts = _geometric_attempts(self.p, self.rng.random(n))
        self.margins = dists.truncated_margin(self.dist, self.b, 2.0 * self.rng.random(n) - 1.0)
        self.Z = self.rng.standard_normal((n, self.dist.d))
        self.V = self.rng.random(n) if self.dist.family == "uniform_ball" else np.zeros(n)
        self.pos = 0

    def draw(self, w_hat):
        if self.pos >= DRAW_BLOCK:
            self._refill()
        i = self.pos
        self.pos += 1
        self.ledger.ex_calls += int(self.attempts[i])
        return _complete_band_point(
            self.dist, w_hat, float(self.margins[i]), self.Z[i], float(self.V[i])
        )


class LockstepBandSampler:
    """One band-conditional draw per trial and step for K trials run side by side.

    Trial k draws only from streams[k]. Its attempt counts, margins, isotropic
    completions and label-flip uniforms are generated as in BandSampler._refill,
    in blocks of at most BLOCK steps laid out by the epoch length alone, so
    trial k's draws do not depend on the other trials or on K. Each row has the
    law of BandSampler.draw, and the EX charges are those of the K draws made
    one after another.
    """

    # steps generated at a time; generating whole epochs took the peak RSS of one
    # criterion-3 learn (Gaussian d=10, N=44) from 104 MB to 142 MB
    BLOCK = 512

    def __init__(self, dist, b, streams, ledger, steps):
        self.streams = list(streams)
        self.p = _checked_band_probability(dist, b, len(self.streams))
        self.dist = dist
        self.b = float(b)
        self.ledger = ledger
        self.left = int(steps)  # steps not yet generated
        self.pos = self.n = 0

    def _refill(self):
        n = min(self.BLOCK, self.left)
        if n < 1:
            raise InvalidInputError("LockstepBandSampler: more draws than its step count")
        K = len(self.streams)
        self.Z = self.margins = self.attempts = None  # free the spent block first
        # per trial: attempt, margin, radius (uniform ball only) and flip uniforms;
        # trial-major rows, so each stream fills its own slots in its own order
        U = np.zeros((4, K, n))
        self.Z = np.empty((K, n, self.dist.d))
        for k, g in enumerate(self.streams):
            g.random(out=U[0, k])
            g.random(out=U[1, k])
            g.standard_normal(out=self.Z[k])
            if self.dist.family == "uniform_ball":
                g.random(out=U[2, k])
            g.random(out=U[3, k])
        self.V, self.flips = U[2], U[3]
        self.attempts = _geometric_attempts(self.p, U[0])
        self.margins = dists.truncated_margin(self.dist, self.b, 2.0 * U[1] - 1.0)
        self.step_ex = self.attempts.sum(axis=0).tolist()
        self.left -= n
        self.n = n
        self.pos = 0

    def draw(self, W_hat):
        """Rows x_k ~ D given |<W_hat[k], x>| <= b, plus each row's flip uniform: (X, u)."""
        if self.pos >= self.n:
            self._refill()
        i = self.pos
        self.pos += 1
        self.ledger.ex_calls += self.step_ex[i]
        X = _complete_band_points(
            self.dist, W_hat, self.margins[:, i], self.Z[:, i], self.V[:, i]
        )
        return X, self.flips[:, i]


def exact_tsybakov_A(B, alpha, dist):
    """Tightest plain-Tsybakov A of the geometric generator under this margin law.

    P(1/2 - eta(x) <= t) = P(|<w*,x>| <= (t/B)^{alpha/(1-alpha)}) and the margin
    CDF is peak-density-Lipschitz at 0, so A = 2 f0 (1/B)^{alpha/(1-alpha)} works
    with no log factor. Used by diagnostics that need a true (A, alpha) pair.
    """
    if not B > 0:
        raise InvalidInputError("exact_tsybakov_A: B must be positive")
    if not 0.0 < alpha < 1.0:
        raise InvalidInputError("exact_tsybakov_A: alpha must lie in (0, 1)")
    f0 = dists.margin_density_at_zero(dist)
    return 2.0 * f0 * (1.0 / B) ** (alpha / (1.0 - alpha))
