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

A dense run is a long chain of draws and labels on 10- to 50-vectors, where a
numpy call costs more than its arithmetic. So everything a draw needs that
does not depend on the direction is made ahead of it: a sampler generates its
attempt counts, margins and isotropic completions a block at a time, and keeps
per-sampler constants (the uniform ball's squared radius and radial exponent).
The lockstep sampler lays each block out step-major, so a step reads contiguous
rows, and forms the uniform ball's radial factors once per block. Each value
is the one the per-draw formula gives, bit for bit.
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


def _flip_rate(model, m):
    """float(eta_of_margin(model, m)) for one float margin m, computed on Python floats.

    Building eta_of_margin's 0-d array costs more than the rest of a label. The
    arithmetic is the same, to the bit: np.abs of a 0-d array is a numpy scalar,
    whose ** is libm pow, as Python's is.
    """
    if model.kind == "massart":
        return model.eta
    if model.kind == "massart_band":
        return model.eta if abs(m) <= model.tau else 0.0
    if model.kind == "geometric_tsybakov":
        expo = (1.0 - model.alpha) / model.alpha
        try:
            return 0.5 - min(model.B * abs(m) ** expo, 0.5)  # NaN stays NaN, as in numpy
        except OverflowError:  # numpy's power overflows to inf, where the rate is 0
            return 0.0
    return float(eta_of_margin(model, m))  # raises on an unknown kind


def query_label(model, truth, x, rng, ledger):
    """One labeling-oracle call: sign(<w*,x>) flipped with probability eta(x).

    sign(0) is +1. Increments ledger.label_calls by exactly 1; this function
    is the package's only label source.
    """
    m = float(truth.w_star.dot(x))
    y = 1.0 if m >= 0.0 else -1.0
    ledger.label_calls += 1
    if rng.random() < _flip_rate(model, m):
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
    ledger.label_calls += m.shape[0]
    eta = model.eta if model.kind == "massart" else eta_of_margin(model, m)
    return np.where((m >= 0.0) != (np.asarray(u) < eta), 1.0, -1.0)


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


def _complete_band_point(w_hat, m, z, radial):
    """Assemble x with <w_hat,x> = m from isotropic z.

    radial is None for the Gaussian, else the uniform ball's length of the part
    of x orthogonal to w_hat (_ball_radial, or its one-float form in BandSampler).
    """
    zw = z.dot(w_hat)
    if radial is None:
        # orthogonal part of a standard normal stays standard normal
        return z + (m - zw) * w_hat
    # uniform ball: given the margin, the rest is uniform in a (d-1)-ball
    z_perp = z - zw * w_hat
    z_perp /= math.sqrt(z_perp.dot(z_perp))
    return m * w_hat + radial * z_perp


def _complete_band_points(W_hat, m, Z, radial):
    """_complete_band_point applied row by row to (K, d) directions and completions."""
    zw = np.einsum("ij,ij->i", Z, W_hat)
    if radial is None:
        return Z + (m - zw)[:, None] * W_hat
    Z_perp = Z - zw[:, None] * W_hat
    Z_perp /= np.sqrt(np.einsum("ij,ij->i", Z_perp, Z_perp))[:, None]
    return m[:, None] * W_hat + radial[:, None] * Z_perp


def _ball_radial(dist, m, V):
    """Uniform-ball radial factors of margins m from uniforms V, elementwise; numpy's power.

    numpy's vector power differs from libm pow (Python's **) in the last bit on
    about 6.5% of inputs: BandSampler's floats keep using **, arrays this.
    """
    return np.sqrt(dist.radius**2 - m * m) * V ** (1.0 / (dist.d - 1))


# draws BandSampler generates at a time
DRAW_BLOCK = 8192


class BandSampler:
    """Band-conditional draws around a per-call unit direction, block-buffered.

    Margins, attempt counts, and the isotropic completion variables are
    generated in blocks (they are i.i.d. and independent of the direction),
    which keeps the per-draw law that of literal rejection (module docstring)
    while amortizing generator overhead across an optimization loop. Each
    draw charges its attempt count to ledger.ex_calls. A draw reads its
    scalars from the block as Python numbers, and the uniform ball's squared
    radius and radial exponent are fixed when the sampler is built; a block
    gets no other per-row work, since a short epoch uses few of its rows.
    """

    def __init__(self, dist, b, rng, ledger):
        self.p = _checked_band_probability(dist, b, 1)
        self.dist = dist
        self.b = float(b)
        self.rng = rng
        self.ledger = ledger
        self.pos = DRAW_BLOCK  # force a refill on first draw
        self.ball = dist.family == "uniform_ball"
        if self.ball:
            self.radius_sq = dist.radius**2
            self.expo = 1.0 / (dist.d - 1)

    def _refill(self):
        n = DRAW_BLOCK
        self.attempts = _geometric_attempts(self.p, self.rng.random(n))
        self.margins = dists.truncated_margin(self.dist, self.b, 2.0 * self.rng.random(n) - 1.0)
        self.Z = self.rng.standard_normal((n, self.dist.d))
        if self.ball:
            self.V = self.rng.random(n)
        self.pos = 0

    def draw(self, w_hat):
        if self.pos >= DRAW_BLOCK:
            self._refill()
        i = self.pos
        self.pos += 1
        self.ledger.ex_calls += self.attempts.item(i)
        m = self.margins.item(i)
        radial = None
        if self.ball:
            # Python's ** (libm pow) on a float; _ball_radial's numpy power differs
            radial = math.sqrt(self.radius_sq - m * m) * self.V.item(i) ** self.expo
        return _complete_band_point(w_hat, m, self.Z[i], radial)


class LockstepBandSampler:
    """One band-conditional draw per trial and step for K trials run side by side.

    Trial k draws only from streams[k]. Its attempt counts, margins, isotropic
    completions and label-flip uniforms are generated as in BandSampler._refill,
    in blocks of at most BLOCK steps laid out by the epoch length alone, so
    trial k's draws do not depend on the other trials or on K. Each row has the
    law of BandSampler.draw, and the EX charges are those of the K draws made
    one after another.

    A block is stored step-major, (steps, K) and (steps, K, d), so a step reads
    contiguous rows; each stream still fills its own values in its own order,
    through one per-stream buffer. Every step of a block is used, so the
    block's EX charge per step and, for the uniform ball, its radial factors
    are formed once per block.
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
        K, d = len(self.streams), self.dist.d
        ball = self.dist.family == "uniform_ball"
        self.Z = self.margins = self.radial = self.flips = None  # free the spent block first
        # each stream fills its own column, in its own order: attempt, margin, radius
        # (uniform ball only) and flip uniforms, with its isotropic completions
        attempt_u, margin_u, self.flips = (np.empty((n, K)) for _ in range(3))
        V = np.empty((n, K)) if ball else None
        self.Z = np.empty((n, K, d))
        u, z = np.empty(n), np.empty((n, d))
        for k, g in enumerate(self.streams):
            attempt_u[:, k] = g.random(out=u)
            margin_u[:, k] = g.random(out=u)
            self.Z[:, k] = g.standard_normal(out=z)
            if ball:
                V[:, k] = g.random(out=u)
            self.flips[:, k] = g.random(out=u)
        self.step_ex = _geometric_attempts(self.p, attempt_u).sum(axis=1).tolist()
        self.margins = dists.truncated_margin(self.dist, self.b, 2.0 * margin_u - 1.0)
        if ball:
            self.radial = _ball_radial(self.dist, self.margins, V)
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
        radial = None if self.radial is None else self.radial[i]
        X = _complete_band_points(W_hat, self.margins[i], self.Z[i], radial)
        return X, self.flips[i]


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
