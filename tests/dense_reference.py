"""Reference lockstep epoch for tests only: the per-step code before its overhead was cut.

optimize_block here takes the same draws, labels and ball steps as the
package's lockstep epoch, written as it was before the package laid its
blocks out step-major, formed the uniform ball's radial factors once per
block and read Massart noise's flip rate without eta_of_margin. The tests
require the package's epoch to return the same bits and ledger; nothing in
the package imports this module. Sparse mode is not covered, and neither is
the scalar epoch, which a test holds to the one-row lockstep epoch instead.
"""

import numpy as np

from halfband import distributions as dists
from halfband.learner import _check_epoch, step_size
from halfband.oracles import _geometric_attempts, checked_band_probability, eta_of_margin

LOCKSTEP_BLOCK = 512


def query_labels(model, truth, X, u, ledger):
    X = np.asarray(X, dtype=float)
    m = np.vecdot(X, truth.w_star)
    y = np.where(m >= 0.0, 1.0, -1.0)
    ledger.label_calls += m.shape[0]
    return np.where(np.asarray(u) < eta_of_margin(model, m), -y, y)


def _complete_band_points(dist, W_hat, m, Z, V):
    zw = np.vecdot(Z, W_hat)
    if dist.family == "gaussian":
        return Z + (m - zw)[:, None] * W_hat
    Z_perp = Z - zw[:, None] * W_hat
    Z_perp /= np.sqrt(np.vecdot(Z_perp, Z_perp))[:, None]
    radial = np.sqrt(dist.radius**2 - m * m) * V ** (1.0 / (dist.d - 1))
    return m[:, None] * W_hat + radial[:, None] * Z_perp


class LockstepBandSampler:
    def __init__(self, dist, b, streams, ledger, steps):
        self.streams = list(streams)
        self.p = checked_band_probability(dist, b, len(self.streams))
        self.dist = dist
        self.b = float(b)
        self.ledger = ledger
        self.left = int(steps)
        self.pos = self.n = 0

    def _refill(self):
        n = min(LOCKSTEP_BLOCK, self.left)
        K = len(self.streams)
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
        if self.pos >= self.n:
            self._refill()
        i = self.pos
        self.pos += 1
        self.ledger.ex_calls += self.step_ex[i]
        X = _complete_band_points(
            self.dist, W_hat, self.margins[:, i], self.Z[:, i], self.V[:, i]
        )
        return X, self.flips[:, i]


def optimize_block(W1, r, b, T, agg, dist, noise, truth, streams, ledger, delta, profile):
    W1, T, _ = _check_epoch(W1, 2, r, b, T, agg, dist, truth, delta, profile)
    K, d = W1.shape
    alpha = step_size(r, b, T, d, dist, delta, profile)
    if agg == "random":
        pick = np.array([g.integers(T) for g in streams])
        sign = np.array([1.0 if g.random() < 0.5 else -1.0 for g in streams])
    sampler = LockstepBandSampler(dist, b, streams, ledger, T)
    radius = 4.0 * r
    rad_sq = radius * radius
    W = W1.copy()
    out = np.zeros((K, d))
    max_gap = 0.0
    for t in range(T):
        nw = np.sqrt(np.vecdot(W, W))
        zero = nw == 0.0
        W_hat = W / np.where(zero, 1.0, nw)[:, None]
        W_hat[zero, 0] = 1.0
        if agg == "average":
            out += W_hat
        else:
            hit = pick == t
            out[hit] = W_hat[hit]
        X, u = sampler.draw(W_hat)
        y = query_labels(noise, truth, X, u, ledger)
        W = W + (alpha * y)[:, None] * X
        diff = W - W1
        dd = np.vecdot(diff, diff)
        clip = dd > rad_sq
        gap = 0.0
        if clip.any():
            clipped = W1 + (radius / np.sqrt(np.maximum(dd, rad_sq)))[:, None] * diff
            moved = clipped - W1
            gaps = np.sqrt(np.vecdot(moved, moved)) - radius
            W = np.where(clip[:, None], clipped, W)
            gap = float(np.max(gaps, where=clip, initial=0.0))
        if gap > max_gap:
            max_gap = gap
    ledger.max_feasibility_gap = max(ledger.max_feasibility_gap, max_gap)
    return out / T if agg == "average" else sign[:, None] * out
