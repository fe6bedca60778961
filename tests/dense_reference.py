"""Reference dense epochs for tests only: the per-label code before its overhead was cut.

optimize and optimize_block here take the same draws, labels and ball steps as
the package's dense epochs, written as they were before the package read
per-draw scalars unboxed, cached the uniform ball's radius, laid lockstep
blocks out step-major and stopped calling eta_of_margin once per label. The
tests require the package's epochs to return the same bits and ledger; nothing
in the package imports this module. Sparse mode is not covered.
"""

import math

import numpy as np

from halfband import distributions as dists
from halfband.learner import _check_epoch, step_size
from halfband.oracles import _checked_band_probability, _geometric_attempts, eta_of_margin

DRAW_BLOCK = 8192
LOCKSTEP_BLOCK = 512


def query_label(model, truth, x, rng, ledger):
    m = float(np.dot(truth.w_star, x))
    y = 1.0 if m >= 0.0 else -1.0
    ledger.label_calls += 1
    if rng.random() < float(eta_of_margin(model, m)):
        y = -y
    return y


def query_labels(model, truth, X, u, ledger):
    X = np.asarray(X, dtype=float)
    m = np.einsum("ij,j->i", X, truth.w_star)
    y = np.where(m >= 0.0, 1.0, -1.0)
    ledger.label_calls += m.shape[0]
    return np.where(np.asarray(u) < eta_of_margin(model, m), -y, y)


def _complete_band_point(dist, w_hat, m, z, v):
    if dist.family == "gaussian":
        return z + (m - z @ w_hat) * w_hat
    z_perp = z - (z @ w_hat) * w_hat
    z_perp /= np.linalg.norm(z_perp)
    radial = math.sqrt(dist.radius**2 - m * m) * v ** (1.0 / (dist.d - 1))
    return m * w_hat + radial * z_perp


def _complete_band_points(dist, W_hat, m, Z, V):
    zw = np.einsum("ij,ij->i", Z, W_hat)
    if dist.family == "gaussian":
        return Z + (m - zw)[:, None] * W_hat
    Z_perp = Z - zw[:, None] * W_hat
    Z_perp /= np.sqrt(np.einsum("ij,ij->i", Z_perp, Z_perp))[:, None]
    radial = np.sqrt(dist.radius**2 - m * m) * V ** (1.0 / (dist.d - 1))
    return m[:, None] * W_hat + radial[:, None] * Z_perp


class BandSampler:
    def __init__(self, dist, b, rng, ledger):
        self.p = _checked_band_probability(dist, b, 1)
        self.dist = dist
        self.b = float(b)
        self.rng = rng
        self.ledger = ledger
        self.pos = DRAW_BLOCK

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
    def __init__(self, dist, b, streams, ledger, steps):
        self.streams = list(streams)
        self.p = _checked_band_probability(dist, b, len(self.streams))
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


def optimize(w1, r, b, T, agg, dist, noise, truth, rng, ledger, delta, profile):
    w1 = np.asarray(w1, dtype=float)
    d = w1.shape[0]
    T = _check_epoch(r, b, T, agg, dist)
    alpha = step_size(r, b, T, d, dist, delta, profile)
    sampler = BandSampler(dist, b, rng, ledger)
    radius = 4.0 * r
    rad_sq = radius * radius
    w = w1.copy()
    acc = np.zeros(d)
    snaps = [] if agg == "random" else None
    max_gap = 0.0
    for _ in range(T):
        nw = math.sqrt(float(w @ w))
        if nw == 0.0:
            w_hat = np.zeros(d)
            w_hat[0] = 1.0
        else:
            w_hat = w / nw
        if snaps is None:
            acc += w_hat
        else:
            snaps.append(w_hat)
        x = sampler.draw(w_hat)
        y = query_label(noise, truth, x, rng, ledger)
        w = w + (alpha * y) * x
        diff = w - w1
        dd = float(diff @ diff)
        gap = 0.0
        if dd > rad_sq:
            w = w1 + (radius / math.sqrt(dd)) * diff
            gap = math.sqrt(float((w - w1) @ (w - w1))) - radius
        if gap > max_gap:
            max_gap = gap
    ledger.max_feasibility_gap = max(ledger.max_feasibility_gap, max_gap)
    if agg == "average":
        return acc / T
    tau = int(rng.integers(T))
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return sign * snaps[tau]


def optimize_block(W1, r, b, T, agg, dist, noise, truth, streams, ledger, delta, profile):
    W1 = np.asarray(W1, dtype=float)
    K, d = W1.shape
    T = _check_epoch(r, b, T, agg, dist)
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
        nw = np.sqrt(np.einsum("ij,ij->i", W, W))
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
        dd = np.einsum("ij,ij->i", diff, diff)
        clip = dd > rad_sq
        gap = 0.0
        if clip.any():
            clipped = W1 + (radius / np.sqrt(np.maximum(dd, rad_sq)))[:, None] * diff
            moved = clipped - W1
            gaps = np.sqrt(np.einsum("ij,ij->i", moved, moved)) - radius
            W = np.where(clip[:, None], clipped, W)
            gap = float(np.max(gaps, where=clip, initial=0.0))
        if gap > max_gap:
            max_gap = gap
    ledger.max_feasibility_gap = max(ledger.max_feasibility_gap, max_gap)
    return out / T if agg == "average" else sign[:, None] * out
