"""Mirror-descent step for the sparse variant.

The regularizer is R(w) = ||w - u1||_p^2 / (2(p-1)) with p = ln d/(ln d - 1),
requiring d >= 3. Each step minimizes the linearized loss plus the Bregman
divergence of R over the intersection of an l2 ball (iterate proximity) and
an l1 ball (sparsity). The minimization runs consensus ADMM: the p-norm
piece has an exact prox (separable once one scalar is fixed), and each ball
projects in closed form. Euclidean projected gradient is a poor fit here:
the active l1 ball parks coordinates of w - u1 at zero, where the p-norm
curvature is unbounded for p < 2 and line searches stall.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import InvalidInputError, NumericalError
from .geometry import project_l2_ball


@dataclass(frozen=True)
class SparseConstraint:
    """Intersection of ball2(center2, radius2) and ball1(center1, radius1)."""

    center2: np.ndarray
    radius2: float
    center1: np.ndarray
    radius1: float

    def violation(self, w):
        g2 = float(np.linalg.norm(w - self.center2)) - self.radius2
        g1 = float(np.abs(w - self.center1).sum()) - self.radius1
        return max(g2, g1, 0.0)


def project_l1_ball(v, center, radius):
    """Euclidean projection of v onto {w : ||w - center||_1 <= radius}."""
    if radius < 0:
        raise InvalidInputError("l1 radius must be nonnegative")
    z = np.asarray(v, dtype=float) - center
    a = np.abs(z)
    if a.sum() <= radius:
        return np.asarray(v, dtype=float).copy()
    if radius == 0:  # the ball is the single point center
        return np.array(center, dtype=float)
    # soft threshold at the level where the shrunk mass equals the radius
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    k = np.nonzero(u * np.arange(1, len(u) + 1) > css - radius)[0][-1]
    theta = (css[k] - radius) / (k + 1.0)
    return center + np.sign(z) * np.maximum(a - theta, 0.0)


def project_intersection(v, constraint, tol=1e-12, max_iter=1000):
    """Dykstra projection onto the l2/l1 intersection."""
    x = np.asarray(v, dtype=float).copy()
    p_inc = np.zeros_like(x)
    q_inc = np.zeros_like(x)
    scale = 1.0 + float(np.linalg.norm(x))
    for _ in range(max_iter):
        y = project_l2_ball(x + p_inc, constraint.center2, constraint.radius2)
        p_inc = x + p_inc - y
        x_new = project_l1_ball(y + q_inc, constraint.center1, constraint.radius1)
        q_inc = y + q_inc - x_new
        done = np.linalg.norm(x_new - x) <= tol * scale
        x = x_new
        if done:
            break
    return x


def pnorm_sq_grad(z, p):
    """Gradient of ||z||_p^2 / 2, zero at z = 0."""
    nrm = float(np.linalg.norm(z, ord=p))
    if nrm == 0.0:
        return np.zeros_like(z)
    return nrm ** (2.0 - p) * np.sign(z) * np.abs(z) ** (p - 1.0)


def mirror_p(d):
    """Mirror-map exponent for ambient dimension d."""
    if d < 3:
        raise InvalidInputError("mirror exponent needs d >= 3")
    return math.log(d) / (math.log(d) - 1.0)


def _magnitudes_for(S, m, e, rho2):
    """Coordinatewise solve of S*t + rho2*t^e = m for t >= 0, returning t^e.

    In the prox stationarity equations t stands for |z_i|^(p-1) and e is
    1/(p-1), so t^e recovers |z_i|. Monotone in t; safeguarded vectorized
    Newton inside a sign bracket.
    """
    if S > 0.0:
        t_hi = np.minimum(m / S, (m / rho2) ** (1.0 / e))
    else:
        t_hi = (m / rho2) ** (1.0 / e)
    lo = np.zeros_like(m)
    hi = t_hi
    t = 0.5 * t_hi
    for _ in range(80):
        val = S * t + rho2 * t**e - m
        lo = np.where(val < 0.0, t, lo)
        hi = np.where(val > 0.0, t, hi)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            cand = t - val / (S + rho2 * e * t ** (e - 1.0))
        mid = 0.5 * (lo + hi)
        t_new = np.where((cand > lo) & (cand < hi) & np.isfinite(cand), cand, mid)
        if float(np.max(np.abs(t_new - t))) <= 1e-16 * (1.0 + float(np.max(t_new))):
            t = t_new
            break
        t = t_new
    return t**e


def _pnorm_linear_prox(lin, u1, vbar, rho, p, s_warm=None):
    """argmin_w <lin, w> + ||w - u1||_p^2/(2(p-1)) + rho ||w - vbar||^2, exact.

    Stationarity is separable once the scalar S = ||w - u1||_p^(2-p)/(p-1)
    is fixed; the objective is strictly convex, so the scalar consistency
    equation h(S) = 0 has exactly one root. Returns (w, S) so callers can
    warm-start the next bracket.
    """
    c = lin + 2.0 * rho * (u1 - vbar)
    m = np.abs(c)
    if not np.any(m > 0.0):
        return u1.copy(), 0.0
    sgn = -np.sign(c)
    inv = 1.0 / (p - 1.0)
    e = inv
    rho2 = 2.0 * rho
    if p == 2.0:
        return u1 + sgn * (m / (inv + rho2)), inv

    def h(S):
        a = _magnitudes_for(S, m, e, rho2)
        return inv * float(np.linalg.norm(a, ord=p)) ** (2.0 - p) - S

    # bracket the root: h(0) > 0 and h is eventually negative (sublinear growth)
    s_hi = None
    if s_warm is not None and s_warm > 0.0:
        lo_guess, hi_guess = 0.5 * s_warm, 2.0 * s_warm
        if h(hi_guess) <= 0.0:
            s_hi = hi_guess
            s_lo = lo_guess if h(lo_guess) > 0.0 else 0.0
    if s_hi is None:
        s_lo = 0.0
        s_hi = max(h(0.0), 1e-12)
        for _ in range(200):
            if h(s_hi) <= 0.0:
                break
            s_lo = s_hi
            s_hi *= 4.0
        else:
            raise NumericalError("prox bracket for the p-norm scalar did not close")
    s_star = brentq(h, s_lo, s_hi, xtol=1e-14 * (1.0 + s_hi), rtol=8.9e-16)
    return u1 + sgn * _magnitudes_for(s_star, m, e, rho2), s_star


def bregman_step(u_t, g, alpha, constraint, u1, p, tol=1e-8, max_iter=10**4):
    """argmin_{w in K} alpha*<g, w> + D_R(w, u_t) for R(w) = ||w-u1||_p^2/(2(p-1)).

    Consensus ADMM: one copy per ball, exact prox of the smooth piece, scaled
    duals, residual-balanced penalty. Stops when the primal and dual KKT
    residuals fall below tol (relative); the returned point is projected to
    be feasible. Raises NumericalError with the residuals attached if the
    iteration cap is reached first.
    """
    if not p > 1.0:
        raise InvalidInputError("mirror exponent p must exceed 1")
    u_t = np.asarray(u_t, dtype=float)
    g = np.asarray(g, dtype=float)
    u1 = np.asarray(u1, dtype=float)
    step_dir = alpha * g
    if not np.any(step_dir) and constraint.violation(u_t) == 0.0:
        return u_t.copy()
    inv = 1.0 / (p - 1.0)
    lin = step_dir - inv * pnorm_sq_grad(u_t - u1, p)

    w = project_intersection(u_t, constraint)
    z1 = w.copy()
    z2 = w.copy()
    y1 = np.zeros_like(w)
    y2 = np.zeros_like(w)
    rho = 1.0
    s_warm = None
    for it in range(max_iter):
        vbar = 0.5 * ((z1 - y1) + (z2 - y2))
        w, s_warm = _pnorm_linear_prox(lin, u1, vbar, rho, p, s_warm=s_warm)
        z1_new = project_l1_ball(w + y1, constraint.center1, constraint.radius1)
        z2_new = project_l2_ball(w + y2, constraint.center2, constraint.radius2)
        y1 += w - z1_new
        y2 += w - z2_new
        r_prim = math.sqrt(
            float(np.sum((w - z1_new) ** 2)) + float(np.sum((w - z2_new) ** 2))
        )
        r_dual = rho * math.sqrt(
            float(np.sum((z1_new - z1) ** 2)) + float(np.sum((z2_new - z2) ** 2))
        )
        z1, z2 = z1_new, z2_new
        scale = 1.0 + float(np.linalg.norm(w))
        if r_prim <= tol * scale and r_dual <= tol * scale:
            return project_intersection(w, constraint)
        # residual balancing keeps both residuals shrinking at similar rates
        if it % 10 == 9:
            if r_prim > 10.0 * r_dual:
                rho *= 2.0
                y1 *= 0.5
                y2 *= 0.5
            elif r_dual > 10.0 * r_prim:
                rho *= 0.5
                y1 *= 2.0
                y2 *= 2.0
    raise NumericalError(
        "mirror step failed to converge",
        residuals={"primal": r_prim, "dual": r_dual},
    )
