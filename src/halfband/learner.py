"""Band-restricted online gradient descent and the two-stage learning loop.

Stage one runs N independent descent trials from the zero vector through a
short epoch ladder, all N in lockstep as one (N, d) block, and picks a
candidate by empirical risk on a fresh labeled sample. Stage two continues the
ladder from that warm start down to the target proximity scale, one epoch at
a time. Every label the run consumes passes through oracles.query_label or
oracles.query_labels, so the ledger count is exact.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import distributions as dists
from .errors import InvalidInputError, NumericalError
from .geometry import angle, hard_threshold, normalize
from .oracles import (
    BandSampler,
    GroundTruth,
    LockstepBandSampler,
    NoiseModel,
    QueryLedger,
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


def _check_epoch(r, b, T, agg, dist):
    """Validate one epoch's arguments; returns T as an int."""
    if not 0.0 < r <= 0.25 + 1e-12:
        raise InvalidInputError("proximity scale r must lie in (0, 1/4]")
    if not 0.0 < b <= dist.R / 2.0 + 1e-12:
        raise InvalidInputError("bandwidth b must lie in (0, R/2]")
    T = int(T)
    if T < 1:
        raise InvalidInputError("iteration count T must be at least 1")
    if agg not in AGGREGATIONS:
        raise InvalidInputError(f"aggregation must be one of {AGGREGATIONS}")
    return T


def _row_step(w1, r, alpha, sparse_s):
    """Start point and update rule of one epoch from w1.

    Returns (start, step) with step(w, y, x) -> (new iterate, feasibility gap).
    Dense mode takes the gradient step and clips back into ball2(w1, 4r);
    sparse mode takes bregman_step inside ball2(w1, 4r) and
    ball1(HT_s(w1), 8r*sqrt(2s)).
    """
    radius = 4.0 * r
    if sparse_s is None:
        rad_sq = radius * radius

        def ball_step(w, y, x):
            w = w + (alpha * y) * x
            diff = w - w1
            dd = float(diff.dot(diff))
            if dd > rad_sq:
                w = w1 + (radius / math.sqrt(dd)) * diff
                moved = w - w1
                return w, math.sqrt(float(moved.dot(moved))) - radius
            return w, 0.0

        return w1.copy(), ball_step

    p = mirror_p(w1.shape[0])
    c = SparseConstraint(
        center2=w1,
        radius2=radius,
        center1=hard_threshold(w1, sparse_s),
        radius1=8.0 * r * math.sqrt(2.0 * sparse_s),
    )

    def mirror_step(w, y, x):
        w = bregman_step(w, -y * x, alpha, c, c.center1, p)
        return w, c.violation(w)

    return project_intersection(w1, c), mirror_step


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

    It reads rng as optimize_block(w1[None], ..., [rng], ...) reads its one
    stream: the random pick and sign first, then the sampler's blocks.
    """
    w1 = np.asarray(w1, dtype=float)
    d = w1.shape[0]
    T = _check_epoch(r, b, T, agg, dist)

    alpha = step_size(r, b, T, d, dist, delta, profile, sparse_s=sparse_s)
    if agg == "random":  # which step's iterate to return, and its sign
        pick = int(rng.integers(T))
        sign = 1.0 if rng.random() < 0.5 else -1.0
    sampler = BandSampler(dist, b, rng, ledger, steps=T)
    w, step = _row_step(w1, r, alpha, sparse_s)
    out = np.zeros(d)
    max_gap = 0.0
    for t in range(T):
        nw = math.sqrt(float(w.dot(w)))
        if nw == 0.0:
            w_hat = np.zeros(d)
            w_hat[0] = 1.0
        else:
            w_hat = w / nw
        if agg == "average":
            out += w_hat
        elif t == pick:
            out = sign * w_hat
        x, u = sampler.draw(w_hat)
        w, gap = step(w, query_label(noise, truth, x, u, ledger), x)
        if gap > max_gap:
            max_gap = gap

    ledger.max_feasibility_gap = max(ledger.max_feasibility_gap, max_gap)
    return out / T if agg == "average" else out


def _projected_step(W1, r, alpha, sparse_s):
    """Start block and update rule of optimize's epoch, row by row over a (K, d) block.

    Returns (W, step) with step(W, y, X) -> (new W, largest feasibility gap of
    the step). Dense rows clip back into ball2(W1[k], 4r) in one vectorized
    update; sparse rows take _row_step's mirror step one row at a time.
    """
    if sparse_s is None:
        radius = 4.0 * r
        rad_sq = radius * radius

        def ball_step(W, y, X):
            W = W + (alpha * y)[:, None] * X
            diff = W - W1
            dd = np.einsum("ij,ij->i", diff, diff)
            out = dd > rad_sq
            if not np.count_nonzero(out):  # np.count_nonzero costs a quarter of out.any()
                return W, 0.0
            clipped = W1 + (radius / np.sqrt(np.maximum(dd, rad_sq)))[:, None] * diff
            moved = clipped - W1
            gap = np.sqrt(np.einsum("ij,ij->i", moved, moved)) - radius
            np.copyto(W, clipped, where=out[:, None])
            # the largest gap among the rows that now hold their clipped iterate
            return W, max(float(gap[out].max()), 0.0)

        return W1.copy(), ball_step

    rows = [_row_step(w1, r, alpha, sparse_s) for w1 in W1]

    def mirror_step(W, y, X):
        stepped = [step(w, yk, x) for (_, step), w, yk, x in zip(rows, W, y, X)]
        return np.array([w for w, _ in stepped]), max(gap for _, gap in stepped)

    return np.array([start for start, _ in rows]), mirror_step


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
    randomness only from streams[k], so its output is the same for any K.
    """
    W1 = np.asarray(W1, dtype=float)
    K, d = W1.shape
    if len(streams) != K:
        raise InvalidInputError("optimize_block needs one stream per row of W1")
    T = _check_epoch(r, b, T, agg, dist)

    alpha = step_size(r, b, T, d, dist, delta, profile, sparse_s=sparse_s)
    if agg == "random":  # which step's iterate each row returns, and its sign
        pick = np.array([g.integers(T) for g in streams])
        sign = np.array([1.0 if g.random() < 0.5 else -1.0 for g in streams])
    sampler = LockstepBandSampler(dist, b, streams, ledger, T)
    W, step = _projected_step(W1, r, alpha, sparse_s)
    out = np.zeros((K, d))
    max_gap = 0.0
    for t in range(T):
        nw = np.sqrt(np.einsum("ij,ij->i", W, W))
        if np.count_nonzero(nw) == K:
            W_hat = W / nw[:, None]
        else:  # a zero row's direction is e_1
            zero = nw == 0.0
            W_hat = W / np.where(zero, 1.0, nw)[:, None]
            W_hat[zero, 0] = 1.0
        if agg == "average":
            out += W_hat
        else:
            hit = pick == t
            out[hit] = W_hat[hit]
        X, u = sampler.draw(W_hat)
        W, gap = step(W, query_labels(noise, truth, X, u, ledger), X)
        if gap > max_gap:
            max_gap = gap

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
    seed: object  # int, or sequence of ints for substreams
    sparse_s: int | None = None
    regime: str | None = None  # override the regime implied by the noise
    A: float | None = None  # plain-Tsybakov coefficient, for regime="TNC"
    profile: Profile = PROFILES["desk"]
    trace_angles: bool = True

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
    trace: list
    max_feasibility_gap: float  # ledger.max_feasibility_gap, repeated


def learn(config, truth=None):
    """Run both stages; returns the unit-vector hypothesis and full accounting."""
    rng = np.random.default_rng(config.seed)
    if truth is None:
        truth = make_ground_truth(config.dist.d, rng, s=config.sparse_s)
    schedule = config.schedule()
    ledger = QueryLedger()
    trace = []

    def record(v, stage, j, **epoch):
        entry = {"stage": stage, "j": j, **epoch,
                 "labels": ledger.label_calls, "ex_calls": ledger.ex_calls}
        if config.trace_angles:
            entry["angle"] = angle(v, truth.w_star)
        trace.append(entry)

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
    return LearnResult(
        v=normalize(v),
        ledger=ledger,
        schedule=schedule,
        truth=truth,
        trace=trace,
        max_feasibility_gap=ledger.max_feasibility_gap,
    )
