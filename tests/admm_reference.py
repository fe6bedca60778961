"""Reference mirror step for tests only: consensus ADMM with a Dykstra start.

This is the iterative solver the package used before its exact active-set
step. The tests compare the exact step against it; nothing in the package
imports it. Each ADMM iteration takes one exact prox of the p-norm piece
(separable once one scalar is fixed, found by a bracketed root search) and
projects onto each ball in closed form. The l2-ball projection it uses,
project_l2_ball, is defined here too: no package code needs one, and the
tests take it as their reference for the learner's inlined ball clip.
"""

import math

import numpy as np
from scipy.optimize import brentq

from halfband.errors import InvalidInputError
from halfband.sparse import pnorm_sq_grad, project_l1_ball


def project_l2_ball(w, center, radius):
    """Euclidean projection of w onto the ball {x: ||x - center|| <= radius}."""
    if not radius > 0.0:
        raise InvalidInputError("project_l2_ball: radius must be positive")
    w = np.asarray(w, dtype=float)
    center = np.asarray(center, dtype=float)
    diff = w - center
    dist = np.linalg.norm(diff)
    if dist <= radius:
        return w
    return center + (radius / dist) * diff


def dykstra_projection(v, constraint, tol=1e-12, max_iter=1000):
    """Dykstra projection onto the l2/l1 intersection; silent on an empty set."""
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


def _magnitudes_for(S, m, e, rho2):
    """Coordinatewise solve of S*t + rho2*t^e = m for t >= 0, returning t^e."""
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
    """argmin_w <lin, w> + ||w - u1||_p^2/(2(p-1)) + rho ||w - vbar||^2; returns (w, S)."""
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
            raise RuntimeError("prox bracket for the p-norm scalar did not close")
    s_star = brentq(h, s_lo, s_hi, xtol=1e-14 * (1.0 + s_hi), rtol=8.9e-16)
    return u1 + sgn * _magnitudes_for(s_star, m, e, rho2), s_star


def admm_bregman_step(u_t, g, alpha, constraint, u1, p, tol=1e-8, max_iter=10**4):
    """argmin_{w in K} alpha*<g, w> + D_R(w, u_t) by consensus ADMM, to relative tol."""
    u_t = np.asarray(u_t, dtype=float)
    g = np.asarray(g, dtype=float)
    u1 = np.asarray(u1, dtype=float)
    step_dir = alpha * g
    if not np.any(step_dir) and constraint.violation(u_t) == 0.0:
        return u_t.copy()
    inv = 1.0 / (p - 1.0)
    lin = step_dir - inv * pnorm_sq_grad(u_t - u1, p)

    w = dykstra_projection(u_t, constraint)
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
            return dykstra_projection(w, constraint)
        if it % 10 == 9:
            if r_prim > 10.0 * r_dual:
                rho *= 2.0
                y1 *= 0.5
                y2 *= 0.5
            elif r_dual > 10.0 * r_prim:
                rho *= 0.5
                y1 *= 2.0
                y2 *= 2.0
    raise RuntimeError(f"ADMM reference did not converge: primal {r_prim}, dual {r_dual}")
