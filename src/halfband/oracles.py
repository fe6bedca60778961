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
block by block through blocks(). BandSampler is its one-stream case, read
block by block by the scalar epoch or one draw at a time, so a scalar epoch
and a one-row lockstep epoch read the same values from their generator. The
lockstep code takes its row-wise dot products with np.vecdot, row by row the
kernel of ndarray.dot that the one-point code uses, so a row's point and
label have the same bits as the one-point draw's.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import distributions as dists
from .errors import BandTooThinError, InvalidInputError
from .geometry import (MAX_COUNT, choice, finite_array, generator, generators, integer, normalize,
                       per_row, real)


@dataclass
class QueryLedger:
    """Exact oracle call counts, and the largest feasibility gap any descent epoch reported."""

    ex_calls: int = 0
    label_calls: int = 0
    max_feasibility_gap: float = 0.0


@dataclass(frozen=True)
class GroundTruth:
    w_star: np.ndarray


def make_ground_truth(d, rng, s=None):
    """Hidden optimum: a seeded uniformly random unit vector.

    Sparse mode places s nonzeros of equal magnitude and random sign at
    seeded random coordinates. d is an integer in [2, distributions.MAX_D],
    the dimension rule of every distribution, s an integer in [1, d] and rng
    a numpy Generator, checked before any draw; a d that memory cannot hold
    raises MemoryError.
    """
    d = integer("make_ground_truth: dimension d", d, 2, dists.MAX_D)
    generator("make_ground_truth: rng", rng)
    if s is None:
        return GroundTruth(normalize(rng.standard_normal(d)))
    s = integer("make_ground_truth: sparse support size s", s, 1, d)
    w = np.zeros(d)
    idx = rng.choice(d, size=s, replace=False)
    w[idx] = rng.choice([-1.0, 1.0], size=s) / np.sqrt(s)
    return GroundTruth(w)


# noise kind -> its fields, in constructor order
NOISE_KINDS = {
    "massart": ("eta",),
    "massart_band": ("eta", "tau"),
    "geometric_tsybakov": ("B", "alpha"),
}


def noise_fields(kind):
    """Fields of noise kind `kind`, in constructor order; kind is a choice (geometry.choice)."""
    return NOISE_KINDS[choice("noise kind", kind, NOISE_KINDS)]


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

    A new array of m's shape, 0-d for one margin. One in-place array kernel for
    every shape, so a rate has the same bits alone or among other margins, and
    is 0, silently, where B|m|^e overflows. _flip_rate, the scalar label's
    rate, takes its own np.power on a float, with the same bits (tested).
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

    Building a 0-d array costs more than the rest of a label, so this works on
    Python floats, to the same bits. The Massart kinds raise nothing to a
    power. The geometric kind takes |m|^e with np.power on floats, which runs
    the one-element float64 loop that eta_of_margin's arrays run (not libm's
    pow, which Python's ** calls), then the same correctly rounded product,
    minimum (min keeps a NaN first, as np.minimum does) and difference. Only
    |m| > 1 can overflow, and only there is the warning silenced.
    """
    if model.kind == "massart":
        return model.eta
    if model.kind == "massart_band":
        return model.eta if abs(m) <= model.tau else 0.0
    a = abs(m)
    e = (1.0 - model.alpha) / model.alpha
    if a <= 1.0:
        p = float(np.power(a, e))
    else:
        with np.errstate(over="ignore"):
            p = float(np.power(a, e))
    return 0.5 - min(model.B * p, 0.5)


def query_label(model, truth, x, u, ledger):
    """One labeling-oracle call: sign(<w*,x>) (sign(0) = +1), flipped when u < eta(x).

    A uniform u ~ Unif[0,1) gives the flip probability eta(x); BandSampler.draw
    returns one with each point. Increments ledger.label_calls by exactly 1; a
    point x that is not a (d,) vector for w* of length d, or whose margin is
    not finite, raises InvalidInputError, with nothing charged. A non-finite x
    always has a non-finite margin, so one float test on the margin refuses it
    without a per-coordinate check on the scalar epoch's path. An inf times a
    zero of w* makes the dot warn first; where warnings are raised as errors,
    that RuntimeWarning is refused the same way (elsewhere it prints).
    """
    try:  # costs nothing on the scalar epoch's path, where no point is malformed
        m = float(truth.w_star.dot(x))
    except (ValueError, TypeError, RuntimeWarning) as exc:
        raise InvalidInputError(
            f"query_label: x must be a point of shape {truth.w_star.shape}: {exc}") from exc
    if m - m != 0.0:  # m is nan or +-inf
        raise InvalidInputError(f"query_label: x must be finite, its margin is {m}")
    y = 1.0 if m >= 0.0 else -1.0
    ledger.label_calls += 1
    if u < _flip_rate(model, m):
        y = -y
    return y


def _label_rule(m, flip, s=1.0):
    """s times the labels at margins m = <w*,x>: sign(m) with sign(0) = +1, negated where flip."""
    return np.where((m >= 0.0) != flip, s, -s)


def query_labels(model, truth, X, u, ledger):
    """Labeling-oracle calls for the rows of X; query_label for a batch.

    Row i is labeled sign(<w*,x_i>) (sign(0) = +1), flipped when u[i] < eta(x_i),
    so uniforms u ~ Unif[0,1) give each row its flip probability. X must be a
    finite (n, d) array for w* of length d, u one finite uniform or n of them
    (geometry.finite_array, per_row); InvalidInputError otherwise, with nothing
    charged. Increments ledger.label_calls by exactly n. The one-step case of block_labels.
    """
    X = finite_array("query_labels: X", X, (None, truth.w_star.shape[0]))
    u = per_row("query_labels: u", u, len(X))
    return block_labels(model, truth, u[None].copy(), ledger)(0, X)  # it may write into u


def block_labels(model, truth, u, ledger, s=1.0):
    """Signed labels for every step of one lockstep block whose flip uniforms are u (steps, K).

    Returns label(i, X): s times the labels of step i's rows X, a new (K,)
    array. The lockstep dense epoch passes its step size as s, a 0-d array, so
    label returns each row's signed step alpha * y; as y is +-1 that product
    is exact, the bits the step would get from multiplying. The block's labels
    are charged here, all at once, for an epoch that takes every step of it.
    Massart noise's flips do not read x, so the value each row takes at
    m >= 0 (s, or -s where it flips) and its negation are formed here for the
    whole block, the negation in u's own memory: the block's uniforms are
    spent once read, and a third (steps, K) array would set the epoch's peak
    memory. A step then takes np.vecdot, one comparison and one np.where. The
    other kinds test their flips step by step and leave u as it is. np.vecdot
    takes each row's dot product with w* as query_label's .dot does, so a
    row's label does not depend on the row count.
    """
    ledger.label_calls += u.size
    w_star = truth.w_star
    m = np.empty(u.shape[1])
    if model.kind == "massart":
        up = _label_rule(0.0, u < model.eta, s)  # the signed label at m >= 0
        down = np.negative(up, out=u)
        nonneg = np.empty(u.shape[1], dtype=bool)
        zero = np.zeros(())  # on a short array, a 0-d operand costs less than the float 0.0

        def label(i, X):
            np.greater_equal(np.vecdot(X, w_star, out=m), zero, out=nonneg)
            return np.where(nonneg, up[i], down[i])
    else:

        def label(i, X):
            np.vecdot(X, w_star, out=m)
            return _label_rule(m, u[i] < eta_of_margin(model, m), s)

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


def checked_band_probability(dist, b, rows):
    """band_probability(dist, b) for a run that draws `rows` points per step.

    rows is a lockstep sampler's row count, or all the trials of a warm start
    split between processes. Raises BandTooThinError when p is 0, or when the
    largest attempt count _geometric_attempts can return, times `rows`, does
    not fit int64: the ledger then could not hold the step's EX calls exactly.
    """
    p = dists.band_probability(dist, b)
    if p < 1.0:
        with np.errstate(divide="ignore", over="ignore"):  # p = 0 or tiny gives inf
            floor = float(np.floor(np.log1p(-U_MAX) / math.log1p(-p)))
        if not (math.isfinite(floor) and (int(floor) + 1) * rows <= np.iinfo(np.int64).max):
            raise BandTooThinError(b, p)
    return p


def complete_band_point(w_hat, m, z, radial, out, S, c):
    """Assemble x with <w_hat,x> = m from isotropic z, written into out; returns out.

    radial is None for the Gaussian, else the uniform ball's length of the part
    of x orthogonal to w_hat (distributions.ball_radial). S is a (d,) and c a
    0-d scratch array. Each scalar that scales a vector is passed as c: a ufunc
    call on a short vector costs about half as much with a 0-d array as with
    a Python float it must convert, for the same IEEE operation.
    """
    zw = z.dot(w_hat)
    if radial is None:
        # orthogonal part of a standard normal stays standard normal: z + (m - zw) w_hat
        c[()] = m - zw
        return np.add(z, np.multiply(w_hat, c, out), out)
    # uniform ball: given the margin, the rest is uniform in a (d-1)-ball;
    # x = m w_hat + radial z_perp / |z_perp| with z_perp = z - zw w_hat
    c[()] = zw
    z_perp = np.subtract(z, np.multiply(w_hat, c, out), out)
    c[()] = math.sqrt(z_perp.dot(z_perp))
    np.divide(z_perp, c, z_perp)
    c[()] = radial
    np.multiply(z_perp, c, z_perp)
    c[()] = m
    return np.add(np.multiply(w_hat, c, S), z_perp, out)


def _complete_band_points(W_hat, m, Z, radial, out, S, c, c_flat):
    """complete_band_point applied row by row to (K, d) directions and completions.

    m and radial are (K, 1) columns; writes the points into out and returns it.
    np.vecdot takes each row's dot product as complete_band_point's .dot does,
    so a row gets the same bits as it would alone. S is a (K, d) and c a (K, 1)
    scratch array, and c_flat c's (K,) view, into which np.vecdot writes at
    less cost than into c with keepdims. A column that scales the rows is
    first copied across out or S by slice assignment, so each ufunc runs on
    two (K, d) arrays: a ufunc that broadcasts a column costs more than the
    copy and the same-shape call together, for the same elementwise operation
    and so the same bits.
    """
    np.vecdot(Z, W_hat, out=c_flat)  # c holds <z_k, w_hat_k>
    if radial is None:
        out[...] = np.subtract(m, c, out=c)
        np.multiply(out, W_hat, out=out)
        return np.add(Z, out, out=out)
    out[...] = c
    np.multiply(out, W_hat, out=out)
    Z_perp = np.subtract(Z, out, out=out)
    np.vecdot(Z_perp, Z_perp, out=c_flat)
    S[...] = np.sqrt(c, out=c)
    Z_perp /= S
    S[...] = radial
    Z_perp *= S
    S[...] = m
    return np.add(np.multiply(S, W_hat, out=S), Z_perp, out=out)


class LockstepBandSampler:
    """One band-conditional draw per trial and step for K trials run side by side.

    Trial k draws only from streams[k]; streams is a list or tuple of numpy
    Generators (geometry.generators, checked before any draw). Its attempt
    counts, margins, isotropic completions and label-flip uniforms are
    generated in blocks of at most BLOCK steps laid out by the integer step
    count alone (None: unbounded), so trial k's draws do not depend on the
    other trials or on K. Each row has the law
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
        self.streams = generators("band sampler: streams", streams)
        self.b = real("band sampler: b", b)
        self.p = checked_band_probability(dist, self.b, len(self.streams))
        self.dist = dist
        self.ledger = ledger
        # steps not yet generated
        self.left = math.inf if steps is None else integer("steps", steps, 0, MAX_COUNT)
        K = len(self.streams)
        c = np.empty((K, 1))
        self.scratch = np.empty((K, dist.d)), c, c[:, 0]  # for points()

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
        del u, z, step_ex  # free the per-stream buffers before the margins' temporaries peak
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
        return _complete_band_points(W_hat, self.margins[i], self.Z[i], radial, out,
                                     *self.scratch)


class BandSampler(LockstepBandSampler):
    """LockstepBandSampler with one stream, drawing around one unit direction at a time.

    Reads the same blocks, so an epoch drawing from BandSampler(dist, b, rng,
    ledger, T) takes the values a one-row lockstep block on [rng] takes. Left
    at None, `steps` is unbounded; a draw past it raises InvalidInputError. A
    draw takes one step of the current block and charges that step's EX
    calls. It reads its scalars from the block as Python numbers and completes
    the point on 1-d vectors (complete_band_point), which costs less than the
    lockstep epoch's row operations on a single row. An epoch that takes every
    step reads the blocks through blocks() instead, as optimize does.
    """

    def __init__(self, dist, b, rng, ledger, steps=None):
        super().__init__(dist, b, [rng], ledger, steps)
        self.pos = self.n = 0  # next step to read, and the current block's step count
        self.c = np.empty(())  # complete_band_point's 0-d scratch

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
        x = complete_band_point(w_hat, self.margins.item(i), self.Z[i, 0], radial,
                                np.empty(self.dist.d), self.scratch[0][0], self.c)
        return x, self.flips.item(i)


def exact_tsybakov_A(B, alpha, dist):
    """The least A with which geometric noise meets the TNC condition under this margin law.

    The condition is P(1/2 - eta(x) <= t) <= A t^k on (0, 1/2], k = alpha/(1-alpha).
    Below 1/2 that is P(|<w*,x>| <= (t/B)^k) <= 2 f0 (t/B)^k, the margin CDF
    being f0-Lipschitz at 0 (f0 = margin_density_at_zero); at t = 1/2 it is 1.
    So A = max(2 f0 B^-k, 2^k) holds on all of (0, 1/2], and the TNC bounds'
    t* = (q/(2A))^(1/k) stays in it for every q <= 1. B and alpha must be real
    numbers (geometry.real); an A beyond the float range is an InvalidInputError
    naming both. The schedules' regime_params is its one caller.
    """
    B, alpha = real("exact_tsybakov_A: B", B), real("exact_tsybakov_A: alpha", alpha)
    if not B > 0:
        raise InvalidInputError("exact_tsybakov_A: B must be positive")
    if not 0.0 < alpha < 1.0:
        raise InvalidInputError("exact_tsybakov_A: alpha must lie in (0, 1)")
    k = alpha / (1.0 - alpha)
    try:
        A = max(2.0 * dists.margin_density_at_zero(dist) * (1.0 / B) ** k, 2.0**k)
    except OverflowError:
        A = math.inf
    if not math.isfinite(A):
        raise InvalidInputError(
            f"exact_tsybakov_A: A = max(2 f0 B^-k, 2^k), k = alpha/(1-alpha), is beyond the float"
            f" range at B = {B!r}, alpha = {alpha!r}"
        )
    return A
