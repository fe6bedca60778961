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
does not depend on the direction is made ahead of it: the lockstep sampler
generates the attempt counts, margins, isotropic completions, uniform-ball
radial factors and label-flip uniforms of up to BLOCK steps at a time, laid
out step-major so a step reads contiguous rows, and a lockstep epoch reads it
block by block through blocks(). BandSampler is its one-stream case, read one
draw at a time, so a scalar epoch and a one-row lockstep epoch read the same
values from their generator. The lockstep code takes its row-wise dot
products with np.vecdot, row by row the kernel of ndarray.dot that the
one-point code uses, so a row's point and label have the same bits as the
one-point draw's.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import distributions as dists
from .errors import BandTooThinError, InvalidInputError
from .geometry import integer, normalize, real


@dataclass
class QueryLedger:
    """Exact oracle call counts, and the largest feasibility gap any descent epoch reported."""

    ex_calls: int = 0
    label_calls: int = 0
    max_feasibility_gap: float = 0.0


@dataclass(frozen=True)
class GroundTruth:
    w_star: np.ndarray


_MAX_D = np.iinfo(np.intp).max // 8  # the longest float64 array numpy can describe


def make_ground_truth(d, rng, s=None):
    """Hidden optimum: a seeded uniformly random unit vector.

    Sparse mode places s nonzeros of equal magnitude and random sign at
    seeded random coordinates. d in [1, _MAX_D] and s in [1, d] are
    integers, checked before any draw; a d that memory cannot hold raises MemoryError.
    """
    d = integer("make_ground_truth: dimension d", d, 1, _MAX_D)
    if s is None:
        return GroundTruth(normalize(rng.standard_normal(d)))
    s = integer("make_ground_truth: sparse support size s", s, 1, d)
    w = np.zeros(d)
    idx = rng.choice(d, size=s, replace=False)
    w[idx] = rng.choice([-1.0, 1.0], size=s) / np.sqrt(s)
    return GroundTruth(w)


# noise kind -> (its fields, in constructor order; the schedule regime it defaults to)
NOISE_KINDS = {
    "massart": (("eta",), "MNC"),
    "massart_band": (("eta", "tau"), "MNC"),
    "geometric_tsybakov": (("B", "alpha"), "GTNC"),
}


def noise_fields(kind):
    """Fields of noise kind `kind`, in constructor order; InvalidInputError on an unknown kind."""
    if kind not in NOISE_KINDS:
        raise InvalidInputError(f"unknown noise kind {kind!r}; choose from {sorted(NOISE_KINDS)}")
    return NOISE_KINDS[kind][0]


@dataclass(frozen=True)
class NoiseModel:
    """Conditional flip rate eta(x); every kind keeps eta(x) <= 1/2.

    kinds: "massart" (constant eta), "massart_band" (eta inside margin tau,
    clean outside), "geometric_tsybakov" (flip rate approaching 1/2 at the
    decision boundary at a rate set by B and alpha; the hardest generator
    compatible with the pointwise margin condition
    1/2 - eta(x) >= min(1/2, B |<w*,x>|^{(1-alpha)/alpha}), met with equality).

    Construction, dataclasses.replace included, rejects an unknown kind, a
    field that is not a real number (a bool included), and a field of the kind
    outside its range (eta in [0, 1/2), tau > 0, B > 0, alpha in (0, 1]), so
    eta(x) <= 1/2 holds for every model that exists.
    """

    kind: str
    eta: float = 0.0
    tau: float = 0.0
    B: float = 0.0
    alpha: float = 1.0

    def __post_init__(self):
        fields = noise_fields(self.kind)
        for name in ("eta", "tau", "B", "alpha"):
            real(f"{self.kind}: {name}", getattr(self, name))
        if "eta" in fields and not 0.0 <= self.eta < 0.5:
            raise InvalidInputError(f"{self.kind}: eta must lie in [0, 1/2)")
        if "tau" in fields and not self.tau > 0:
            raise InvalidInputError(f"{self.kind}: tau must be positive")
        if "B" in fields and not self.B > 0:
            raise InvalidInputError(f"{self.kind}: B must be positive")
        if "alpha" in fields and not 0.0 < self.alpha <= 1.0:
            raise InvalidInputError(f"{self.kind}: alpha must lie in (0, 1]")


def massart(eta):
    """NoiseModel("massart") with real eta, stored as a float (geometry.real)."""
    return NoiseModel("massart", eta=real("eta", eta))


def massart_band(eta, tau):
    """NoiseModel("massart_band") with real eta and tau, stored as floats (geometry.real)."""
    return NoiseModel("massart_band", eta=real("eta", eta), tau=real("tau", tau))


def geometric_tsybakov(B, alpha):
    """NoiseModel("geometric_tsybakov") with real B and alpha, stored as floats (geometry.real)."""
    return NoiseModel("geometric_tsybakov", B=real("B", B), alpha=real("alpha", alpha))


def eta_of_margin(model, m):
    """Flip rate as a function of the ground-truth margin <w*,x>; vectorized.

    A new array of m's shape, 0-d for one margin. The package's one power of a
    margin: one in-place array kernel for every shape, so a rate has the same
    bits alone or among other margins, and is 0, silently, where B|m|^e overflows.
    """
    m = np.asarray(m, dtype=float)
    if model.kind == "massart":
        return np.full_like(m, model.eta)
    if model.kind == "massart_band":
        return np.where(np.abs(m) <= model.tau, model.eta, 0.0)
    out = np.abs(m, out=np.empty_like(m))  # an array even for 0-d m, whose ** would be libm's
    with np.errstate(over="ignore"):
        out **= (1.0 - model.alpha) / model.alpha
        out *= model.B
    np.minimum(out, 0.5, out=out)
    return np.subtract(0.5, out, out=out)


def _flip_rate(model, m):
    """float(eta_of_margin(model, m)) for one float margin m.

    Building a 0-d array costs more than the rest of a label, so the Massart
    kinds, which raise nothing to a power, compute on Python floats, to the same bits.
    """
    if model.kind == "massart":
        return model.eta
    if model.kind == "massart_band":
        return model.eta if abs(m) <= model.tau else 0.0
    return float(eta_of_margin(model, m))


def query_label(model, truth, x, u, ledger):
    """One labeling-oracle call: sign(<w*,x>) (sign(0) = +1), flipped when u < eta(x).

    A uniform u ~ Unif[0,1) gives the flip probability eta(x); BandSampler.draw
    returns one with each point. Increments ledger.label_calls by exactly 1.
    """
    m = float(truth.w_star.dot(x))
    y = 1.0 if m >= 0.0 else -1.0
    ledger.label_calls += 1
    if u < _flip_rate(model, m):
        y = -y
    return y


def _label_rule(m, flip):
    """Labels at margins m = <w*,x>: sign(m) with sign(0) = +1, negated where flip."""
    return np.where((m >= 0.0) != flip, 1.0, -1.0)


def query_labels(model, truth, X, u, ledger):
    """Labeling-oracle calls for the rows of X; query_label for a batch.

    Row i is labeled sign(<w*,x_i>) (sign(0) = +1), flipped when u[i] < eta(x_i),
    so uniforms u ~ Unif[0,1) give each row its flip probability. Increments
    ledger.label_calls by exactly len(X). The one-step case of block_labels.
    """
    X = np.asarray(X, dtype=float)
    u = np.broadcast_to(u, X.shape[:1])
    return block_labels(model, truth, u[None], ledger)(0, X)


def block_labels(model, truth, u, ledger):
    """Labels for every step of one lockstep block whose flip uniforms are u (steps, K).

    Returns label(i, X), the labels of step i's rows X. The block's labels are
    charged here, all at once, for an epoch that takes every step of it, and
    Massart noise's flip test, which does not read x, runs here for the whole
    block. np.vecdot takes each row's dot product with w* as query_label's .dot
    does, so a row's label does not depend on the row count.
    """
    ledger.label_calls += u.size
    w_star = truth.w_star
    if model.kind == "massart":
        flips = u < model.eta

        def label(i, X):
            return _label_rule(np.vecdot(X, w_star), flips[i])
    else:

        def label(i, X):
            m = np.vecdot(X, w_star)
            return _label_rule(m, u[i] < eta_of_margin(model, m))

    return label


def halfspace_labels(X, w):
    """Noise-free labels sign(<w,x>) with sign(0) = +1; rows of X."""
    return _label_rule(X @ w, False)


def _geometric_attempts(p, u):
    """Map a float array u ~ Unif[0,1) to the attempt counts of a success-probability-p loop.

    Works in u's own memory and overwrites it: a block's attempt uniforms are
    needed only here, and a copy of them would set the block's peak memory.
    """
    if p >= 1.0:
        return np.ones(u.shape, dtype=np.int64)
    np.log1p(np.negative(u, out=u), out=u)  # log1p(-u)
    u /= math.log1p(-p)
    counts = np.floor(u, out=u).astype(np.int64)
    counts += 1
    return counts


# the largest float Generator.random returns, where _geometric_attempts peaks
U_MAX = 1.0 - 2.0**-53


def _checked_band_probability(dist, b, rows):
    """band_probability(dist, b) for a sampler that draws `rows` points per step.

    Raises BandTooThinError when p is 0, or when the largest attempt count
    _geometric_attempts can return, times `rows`, does not fit int64: the
    ledger then could not hold the step's EX calls exactly.
    """
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
    of x orthogonal to w_hat (distributions.ball_radial).
    """
    zw = z.dot(w_hat)
    if radial is None:
        # orthogonal part of a standard normal stays standard normal
        return z + (m - zw) * w_hat
    # uniform ball: given the margin, the rest is uniform in a (d-1)-ball
    z_perp = z - zw * w_hat
    z_perp /= math.sqrt(z_perp.dot(z_perp))
    return m * w_hat + radial * z_perp


def _complete_band_points(W_hat, m, Z, radial, out):
    """_complete_band_point applied row by row to (K, d) directions and completions.

    m and radial are (K, 1) columns; writes the points into out and returns it.
    np.vecdot takes each row's dot product as _complete_band_point's .dot does,
    so a row gets the same bits as it would alone.
    """
    zw = np.vecdot(Z, W_hat, keepdims=True)
    if radial is None:
        np.subtract(m, zw, out=zw)
        np.multiply(zw, W_hat, out=out)
        return np.add(Z, out, out=out)
    np.multiply(zw, W_hat, out=out)
    Z_perp = np.subtract(Z, out, out=out)
    Z_perp /= np.sqrt(np.vecdot(Z_perp, Z_perp, keepdims=True))
    Z_perp *= radial
    return np.add(m * W_hat, Z_perp, out=out)


class LockstepBandSampler:
    """One band-conditional draw per trial and step for K trials run side by side.

    Trial k draws only from streams[k]. Its attempt counts, margins, isotropic
    completions and label-flip uniforms are generated in blocks of at most
    BLOCK steps laid out by the integer step count alone (None: unbounded), so trial
    k's draws do not depend on the other trials or on K. Each row has the law
    of literal rejection sampling (module docstring), and the EX charges are
    those of the K draws made one after another.

    A block is stored step-major, (steps, K) and (steps, K, d), so a step reads
    contiguous rows; each stream still fills its own values in its own order,
    through one per-stream buffer. Every step of a block is used, so the
    block's EX charge per step and, for the uniform ball, its radial factors
    are formed once per block. The sampler is read through blocks(), which
    charges a block's EX calls when it is made, then points() and flips.
    """

    # steps generated at a time; generating whole epochs took the peak RSS of one
    # criterion-3 learn (Gaussian d=10, N=44) from 104 MB to 142 MB
    BLOCK = 512

    def __init__(self, dist, b, streams, ledger, steps):
        self.streams = list(streams)
        self.b = real("band sampler: b", b)
        self.p = _checked_band_probability(dist, self.b, len(self.streams))
        self.dist = dist
        self.ledger = ledger
        self.left = math.inf if steps is None else integer("steps", steps, 0)  # not yet generated

    def _refill(self):
        n = min(self.BLOCK, self.left)
        K, d = len(self.streams), self.dist.d
        ball = self.dist.family == "uniform_ball"
        self.Z = self.margins = self.radial = self.flips = None  # free the spent block first
        # each stream fills its own column, in its own order: attempt, margin, radius
        # (uniform ball only) and flip uniforms, with its isotropic completions; its
        # attempt uniforms become counts at once, so no (n, K) array holds them
        margin_u, self.flips = np.empty((n, K)), np.empty((n, K))
        V = np.empty((n, K)) if ball else None
        self.Z = np.empty((n, K, d))
        u, z = np.empty(n), np.empty((n, d))
        step_ex = np.zeros(n, dtype=np.int64)
        for k, g in enumerate(self.streams):
            step_ex += _geometric_attempts(self.p, g.random(out=u))
            margin_u[:, k] = g.random(out=u)
            self.Z[:, k] = g.standard_normal(out=z)
            if ball:
                V[:, k] = g.random(out=u)
            self.flips[:, k] = g.random(out=u)
        self.step_ex = step_ex.tolist()
        margin_u *= 2.0  # in place, as 2 u - 1: the block's peak memory is its temporaries
        margin_u -= 1.0
        margins = dists.truncated_margin(self.dist, self.b, margin_u)
        del margin_u
        # margins and radial factors as (n, K, 1): step i reads (K, 1) columns
        self.margins = margins[:, :, None]
        if ball:
            self.radial = dists.ball_radial(self.dist, margins, V)[:, :, None]
        self.left -= n
        self.n = n

    def blocks(self):
        """Make the remaining blocks one at a time, for an epoch that takes every step.

        Yields each block's step count once the block is made and all of its EX
        calls are charged; the epoch reads step i's points from points(i, ...)
        and its flip uniforms from flips[i]. The epoch must let go of what it
        read from a block before it asks for the next, so the spent block is
        freed before the next one is made.
        """
        while self.left > 0:
            self._refill()
            self.ledger.ex_calls += sum(self.step_ex)
            yield self.n

    def points(self, i, W_hat, out):
        """Step i's rows x_k ~ D given |<W_hat[k], x>| <= b, written into out."""
        radial = None if self.radial is None else self.radial[i]
        return _complete_band_points(W_hat, self.margins[i], self.Z[i], radial, out)


class BandSampler(LockstepBandSampler):
    """LockstepBandSampler with one stream, drawing around one unit direction at a time.

    Reads the same blocks, so an epoch drawing from BandSampler(dist, b, rng,
    ledger, T) takes the values a one-row lockstep block on [rng] takes. Left
    at None, `steps` is unbounded; a draw past it raises InvalidInputError. A
    draw takes one step of the current block and charges that step's EX
    calls. It reads its scalars from the block as Python numbers and completes
    the point on 1-d vectors, which costs less than the lockstep epoch's row
    operations on a single row.
    """

    def __init__(self, dist, b, rng, ledger, steps=None):
        super().__init__(dist, b, [rng], ledger, steps)
        self.pos = self.n = 0  # next step to read, and the current block's step count

    def draw(self, w_hat):
        """One point x ~ D given |<w_hat, x>| <= b, plus its flip uniform: (x, u)."""
        if self.pos >= self.n:
            if self.left < 1:
                raise InvalidInputError("band sampler: more draws than its step count")
            self._refill()
            self.pos = 0
        i = self.pos
        self.pos += 1
        self.ledger.ex_calls += self.step_ex[i]
        radial = None if self.radial is None else self.radial.item(i)
        x = _complete_band_point(w_hat, self.margins.item(i), self.Z[i, 0], radial)
        return x, self.flips.item(i)


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
