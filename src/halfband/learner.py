"""Band-restricted online gradient descent and the two-stage learning loop.

Stage one runs N independent descent trials from the zero vector through a
short epoch ladder, all N in lockstep as one (N, d) block, and picks a
candidate by empirical risk on a fresh labeled sample. Stage two continues the
ladder from that warm start down to the target proximity scale, one epoch at
a time. Every label the run consumes passes through oracles.query_label,
query_labels or block_labels, so the ledger count is exact.

The lockstep epoch (optimize_block) runs every sparse or "random" epoch, and
optimize's scalar loop every other dense epoch of one trial. The two read the
same values from a generator and take each dot product with the same kernel,
ndarray.dot for one vector and np.vecdot row by row for a block, so a trial
returns the same bits alone, in a block of any size, or as a scalar epoch.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import distributions as dists
from .errors import InvalidInputError, NumericalError
from .geometry import angle, finite_array, hard_threshold, integer, normalize, real
from .oracles import (
    BandSampler,
    GroundTruth,
    LockstepBandSampler,
    NoiseModel,
    QueryLedger,
    block_labels,
    halfspace_labels,
    make_ground_truth,
    query_label,
    query_labels,
)
from .schedules import PROFILES, Profile, proximity, schedule_for
from .sparse import SparseConstraint, bregman_step, mirror_p, project_intersection

AGGREGATIONS = ("average", "random")


def step_size(r, b, T, d, dist, delta, profile, sparse_s=None):
    """Gradient step scale at proximity r; sparse mode swaps the root factor."""
    log_term = math.log(T * d / (delta * r * b * dist.R * dist.L))
    if sparse_s:
        root = math.sqrt(sparse_s * math.log(d) / T)
    else:
        root = math.sqrt(1.0 / (d * T))
    return profile.c_alpha * (r / dist.beta) * root / log_term


def erm_select(candidates, X, y):
    """Candidate with the fewest labeled-sample disagreements, lowest index on ties."""
    if len(candidates) == 0:
        raise InvalidInputError("erm_select needs at least one candidate")
    errs = [float(np.mean(halfspace_labels(X, c) != y)) for c in candidates]
    return candidates[int(np.argmin(errs))]


def _check_epoch(start, ndim, r, b, T, agg, dist, truth, delta, profile, sparse_s=None):
    """Validate one epoch's arguments before any draw; returns (start as floats, T, step size).

    start is optimize's w1 (ndim 1), a finite (d,) vector, or optimize_block's
    W1 (ndim 2), a finite (K, d) array, with d = dist.d; truth.w_star is a
    finite (d,) vector, r, b and delta real numbers (geometry.real) in (0, 1/4],
    (0, R/2] and (0, 1), T an integer >= 1 and sparse_s None or an integer in
    [1, d]. The step size must come out finite and positive, which extreme
    structure constants can prevent.
    """
    d = dist.d
    shape = (d,) if ndim == 1 else (None, d)
    start = finite_array("w1" if ndim == 1 else "W1", start, shape)
    finite_array("truth.w_star", truth.w_star, (d,))
    if not 0.0 < real("proximity scale r", r) <= 0.25 + 1e-12:
        raise InvalidInputError("proximity scale r must lie in (0, 1/4]")
    if not 0.0 < real("bandwidth b", b) <= dist.R / 2.0 + 1e-12:
        raise InvalidInputError("bandwidth b must lie in (0, R/2]")
    if not 0.0 < real("confidence delta", delta) < 1.0:
        raise InvalidInputError("confidence delta must lie in (0, 1)")
    T = integer("iteration count T", T, 1)
    if sparse_s is not None:
        integer("sparse_s", sparse_s, 1, d)
    if agg not in AGGREGATIONS:
        raise InvalidInputError(f"aggregation must be one of {AGGREGATIONS}")
    try:
        alpha = step_size(r, b, T, d, dist, delta, profile, sparse_s=sparse_s)
    except ZeroDivisionError:  # the log's argument or the log itself is 0 in floats
        alpha = math.nan
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise InvalidInputError(
            f"step size must be finite and positive, got {alpha!r}: check R, L, delta, r and b")
    return start, T, alpha


def optimize(
    w1,
    r,
    b,
    T,
    agg,
    dist,
    noise,
    truth,
    rng,
    ledger,
    delta,
    profile,
    sparse_s=None,
):
    """One descent epoch: T labeled band queries around the running iterate.

    Iterates stay inside ball2(w1, 4r); in sparse mode also inside
    ball1(HT_s(w1), 8r*sqrt(2s)), with updates taken in the p-norm mirror
    geometry. Returns the aggregated direction: the mean of the per-step unit
    iterates ("average", norm at most 1) or a sign-flipped uniformly chosen
    one ("random", unit norm). The epoch's largest feasibility gap is recorded
    on the ledger.

    A sparse or a "random" epoch runs as optimize_block(w1[None], ..., [rng],
    ...)[0]: a mirror step costs milliseconds, so the one-row block's overhead
    is lost in it, and no package code asks for a "random" scalar epoch. A
    dense "average" epoch runs the scalar loop below, which costs less than
    half the one-row block per label. It reads rng block by block, as the
    one-row block reads its one stream, and returns the same bits. w1 must be
    a finite (d,) vector, T an integer and sparse_s None or an integer in
    [1, d]; InvalidInputError otherwise, before anything is drawn or charged.
    """
    w1, T, alpha = _check_epoch(w1, 1, r, b, T, agg, dist, truth, delta, profile, sparse_s)
    if sparse_s is not None or agg == "random":
        return optimize_block(w1[None], r, b, T, agg, dist, noise, truth, [rng], ledger,
                              delta, profile, sparse_s=sparse_s)[0]
    d = w1.shape[0]
    sampler = BandSampler(dist, b, rng, ledger, steps=T)
    radius = 4.0 * r
    rad_sq = radius * radius
    w = w1.copy()
    out = np.zeros(d)
    max_gap = 0.0
    for _ in range(T):
        nw = math.sqrt(float(w.dot(w)))
        if nw == 0.0:
            w_hat = np.zeros(d)
            w_hat[0] = 1.0
        else:
            w_hat = w / nw
        out += w_hat
        x, u = sampler.draw(w_hat)
        w = w + (alpha * query_label(noise, truth, x, u, ledger)) * x
        diff = w - w1
        dd = float(diff.dot(diff))
        if dd > rad_sq:  # clip back into ball2(w1, 4r)
            w = w1 + (radius / math.sqrt(dd)) * diff
            moved = w - w1
            max_gap = max(max_gap, math.sqrt(float(moved.dot(moved))) - radius)

    ledger.max_feasibility_gap = max(ledger.max_feasibility_gap, max_gap)
    return out / T


def _projected_step(W1, r, alpha, sparse_s):
    """Start block and update rule of optimize_block's epoch over a (K, d) block.

    Returns (W, step) with step(W, y, X) -> (new W, largest feasibility gap of
    the step). Dense rows update W in place and clip back into ball2(W1[k], 4r)
    in one vectorized update, with scratch arrays made once per epoch. Sparse
    row k starts at W1[k] projected onto its own SparseConstraint, ball2(W1[k],
    4r) and ball1(HT_s(W1[k]), 8r*sqrt(2s)), and takes bregman_step in the
    p-norm mirror geometry, one row at a time. Each sparse step's search for
    its l2 multiplier starts from the row's own last step's, which moves the
    row's bits only within rounding and keeps them independent of the others.
    """
    radius = 4.0 * r
    if sparse_s is None:
        rad_sq = radius * radius
        K = W1.shape[0]
        ay, dd = np.empty((K, 1)), np.empty((K, 1))
        clip = np.empty((K, 1), dtype=bool)
        diff = np.empty(W1.shape)

        def ball_step(W, y, X):
            np.multiply(alpha, y[:, None], out=ay)
            W += np.multiply(ay, X, out=diff)
            np.subtract(W, W1, out=diff)
            np.vecdot(diff, diff, keepdims=True, out=dd)
            np.greater(dd, rad_sq, out=clip)
            if not np.count_nonzero(clip):  # np.count_nonzero costs a quarter of clip.any()
                return W, 0.0
            np.maximum(dd, rad_sq, out=dd)
            np.divide(radius, np.sqrt(dd, out=dd), out=dd)
            clipped = np.add(W1, np.multiply(dd, diff, out=diff), out=diff)
            np.copyto(W, clipped, where=clip)
            moved = np.subtract(clipped, W1, out=diff)
            np.vecdot(moved, moved, keepdims=True, out=dd)
            # sqrt is monotone: the largest gap among the rows that now hold their clipped iterate
            return W, max(math.sqrt(dd[clip].max()) - radius, 0.0)

        return W1.copy(), ball_step

    p = mirror_p(W1.shape[1])
    radius1 = 8.0 * r * math.sqrt(2.0 * sparse_s)
    cons = [SparseConstraint(w1, radius, hard_threshold(w1, sparse_s), radius1) for w1 in W1]

    guesses = [None] * len(cons)  # l2 multiplier of each row's last step

    def mirror_step(W, y, X):
        rows = []
        for k, (c, w, yk, x) in enumerate(zip(cons, W, y, X)):
            w, guesses[k], _ = bregman_step(w, -yk * x, alpha, c, c.center1, p, guess=guesses[k])
            rows.append(w)
        W = np.array(rows)
        return W, max(c.violation(w) for c, w in zip(cons, W))

    return np.array([project_intersection(w1, c) for w1, c in zip(W1, cons)]), mirror_step


def optimize_block(
    W1,
    r,
    b,
    T,
    agg,
    dist,
    noise,
    truth,
    streams,
    ledger,
    delta,
    profile,
    sparse_s=None,
):
    """K descent epochs in lockstep: row k runs optimize's epoch from W1[k] on streams[k].

    Each step makes one band draw per row (LockstepBandSampler), one vector label
    query and one projected update of the (K, d) iterate block. Row k reads
    randomness only from streams[k], and every row-wise dot product is
    np.vecdot's, which takes the dot product optimize takes, so row k returns
    the same bits for any K: optimize(w1, ..., rng) and
    optimize_block(w1[None], ..., [rng]) are equal. A step's (K, d) results go
    into arrays made once per epoch, and work that does not read the step's
    points (EX and label charges, Massart noise's flip tests) is done once per
    block of the sampler. Every sparse epoch runs here, optimize's as a one-row
    block. W1 must be a finite (K, d) array and sparse_s None or an integer in
    [1, d]; InvalidInputError otherwise, before anything is drawn or charged.
    """
    W1, T, alpha = _check_epoch(W1, 2, r, b, T, agg, dist, truth, delta, profile, sparse_s)
    K, d = W1.shape
    if len(streams) != K:
        raise InvalidInputError("optimize_block needs one stream per row of W1")

    if agg == "random":  # which step's iterate each row returns, and its sign
        pick = np.array([g.integers(T) for g in streams])
        sign = np.array([1.0 if g.random() < 0.5 else -1.0 for g in streams])
    sampler = LockstepBandSampler(dist, b, streams, ledger, T)
    W, step = _projected_step(W1, r, alpha, sparse_s)
    out = np.zeros((K, d))
    W_hat, X, nw = np.empty((K, d)), np.empty((K, d)), np.empty((K, 1))
    max_gap = 0.0
    t = 0
    for n in sampler.blocks():
        label = block_labels(noise, truth, sampler.flips, ledger)
        for i in range(n):
            np.sqrt(np.vecdot(W, W, keepdims=True, out=nw), out=nw)
            if np.count_nonzero(nw) == K:
                np.divide(W, nw, out=W_hat)
            else:  # a zero row's direction is e_1
                zero = nw == 0.0
                np.divide(W, np.where(zero, 1.0, nw), out=W_hat)
                W_hat[zero[:, 0], 0] = 1.0
            if agg == "average":
                out += W_hat
            else:
                hit = pick == t
                out[hit] = W_hat[hit]
            W, gap = step(W, label(i, sampler.points(i, W_hat, X)), X)
            if gap > max_gap:
                max_gap = gap
            t += 1
        del label  # it holds the block's flips: let the sampler free the block first

    ledger.max_feasibility_gap = max(ledger.max_feasibility_gap, max_gap)
    return out / T if agg == "average" else sign[:, None] * out


def warm_start_trials(schedule, dist, noise, truth, streams, ledger):
    """The warm start's descent trials from zero, one per stream, run in lockstep.

    Returns the (K, d) block of candidates, row k from streams[k].
    """
    V = np.zeros((len(streams), dist.d))
    for j in range(schedule.k0 + 1):
        V = optimize_block(
            V,
            proximity(j),
            schedule.bandwidths[j],
            schedule.iterations[j],
            "random" if j == 0 else "average",
            dist,
            noise,
            truth,
            streams,
            ledger,
            schedule.delta,
            schedule.profile,
            sparse_s=schedule.sparse_s,
        )
    return V


def initialize(schedule, dist, noise, truth, rng, ledger):
    """Warm start: N descent trials from zero, then empirical risk selection.

    Trial k draws from child k of rng.spawn(N); the selection sample and its
    labels come from rng itself.
    """
    streams = rng.spawn(schedule.N)
    candidates = warm_start_trials(schedule, dist, noise, truth, streams, ledger)
    X = dists.sample(dist, rng, schedule.m)
    ledger.ex_calls += schedule.m
    y = query_labels(noise, truth, X, rng.random(schedule.m), ledger)
    return normalize(erm_select(candidates, X, y))


@dataclass
class LearnerConfig:
    dist: dists.WellBehavedDistribution
    noise: NoiseModel
    epsilon: float
    delta: float
    seed: object  # an integer >= 0, or a nonempty sequence of them for substreams
    sparse_s: int | None = None
    regime: str | None = None  # override the regime implied by the noise
    A: float | None = None  # plain-Tsybakov coefficient, for regime="TNC"
    profile: Profile = PROFILES["desk"]

    def schedule(self):
        """The epoch schedule this run follows."""
        return schedule_for(
            self.noise,
            self.dist,
            self.epsilon,
            self.delta,
            self.profile,
            sparse_s=self.sparse_s,
            regime=self.regime,
            A=self.A,
        )


@dataclass
class LearnResult:
    v: np.ndarray
    ledger: QueryLedger
    schedule: object
    truth: GroundTruth
    trace: list  # one entry per epoch, with the angle of its output to w*


def _checked_seed(seed):
    """config.seed as default_rng takes it: an integer >= 0 or a nonempty list or tuple of them."""
    if not isinstance(seed, (list, tuple)):
        return integer("seed", seed, 0)
    if not seed:
        raise InvalidInputError(f"seed must be an integer or a nonempty sequence, got {seed!r}")
    return [integer(f"seed[{i}]", v, 0) for i, v in enumerate(seed)]


def learn(config, truth=None):
    """Run both stages; returns the unit-vector hypothesis and full accounting."""
    schedule = config.schedule()  # checks the config, and then its seed, before any draw
    rng = np.random.default_rng(_checked_seed(config.seed))
    if truth is None:
        truth = make_ground_truth(config.dist.d, rng, s=config.sparse_s)
    ledger = QueryLedger()
    trace = []

    def record(v, stage, j, **epoch):
        trace.append({"stage": stage, "j": j, **epoch, "labels": ledger.label_calls,
                      "ex_calls": ledger.ex_calls, "angle": angle(v, truth.w_star)})

    v = initialize(schedule, config.dist, config.noise, truth, rng, ledger)
    record(v, "init", schedule.k0)

    for j in range(1, schedule.k_eps + 1):
        v = optimize(
            v,
            proximity(j),
            schedule.bandwidths[j],
            schedule.iterations[j],
            "average",
            config.dist,
            config.noise,
            truth,
            rng,
            ledger,
            schedule.delta,
            schedule.profile,
            sparse_s=config.sparse_s,
        )
        record(v, "main", j, r=proximity(j), b=schedule.bandwidths[j], T=schedule.iterations[j])

    expected = schedule.total_label_budget()
    if ledger.label_calls != expected:
        raise NumericalError(
            f"label ledger shows {ledger.label_calls} calls, schedule predicts {expected}"
        )
    return LearnResult(v=normalize(v), ledger=ledger, schedule=schedule, truth=truth, trace=trace)
