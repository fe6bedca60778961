"""Mirror-descent step for the sparse variant.

The regularizer is R(w) = ||w - u1||_p^2 / (2(p-1)) with p = ln d/(ln d - 1),
requiring d >= 3. Each step minimizes the linearized loss plus the Bregman
divergence of R over K, the intersection of an l2 ball (iterate proximity)
and an l1 ball (sparsity). In z = w - u1 that is

    minimize <lin, z> + ||z||_p^2/(2(p-1))
    subject to ||z - a||_2 <= r2 and ||z - b||_1 <= r1,

with a and b the ball centers less u1. The step solves the KKT conditions
exactly, by which balls bind:

- neither: the closed-form p-norm dual-map step (Gentile 2003);
- only the l2 ball: a monotone 1-D search for its multiplier mu;
- the l1 ball: a monotone search for its multiplier lam, each trial holding
  mu at its own root, which makes the 2-D search in (lam, mu).

At fixed (lam, mu) the problem separates once the scalar
S = ||z||_p^(2-p)/(p-1) is fixed: coordinate i sits at the l1 kink b_i or
solves S sign(z)|z|^(p-1) + mu*z = tau_i, a convex scalar equation in a
suitable power of |z_i|. S must then reproduce itself; in log S that
equation is monotone with slope between min(1, 1/(p-1)) and max(1, 1/(p-1)),
so a safeguarded Newton finds it to rounding. The multiplier searches take
Newton steps whose slopes come from differentiating the same equations, a
system diagonal in z and bordered by S, solved in O(d). The search for mu
steps on the secular form 1/r2 - 1/||z - a||_2 of its gap (More & Sorensen
1983), nearly linear in mu and exactly so for the p = 2 projection. It
starts from a guess when the caller has one: the sparse epoch passes each
row's step the l2 multiplier of that row's last step. The guess is solved
first, and mu = 0 only when neither the guess nor one Newton step down from
it shows where the root lies; the result moves only within rounding.

The Euclidean projection onto K is the p = 2, lin = 0 case of the same
solver. K itself can be empty; the smallest l1 distance from the l1 center
to the l2 ball has a closed form, and a larger one than the l1 radius
raises EmptyConstraintError when the SparseConstraint is built, so a
sparse epoch checks each row's K once.
"""

import dataclasses
import math

import numpy as np

from .errors import EmptyConstraintError, InvalidInputError, NumericalError

EPS = float(np.finfo(float).eps)
ROOT_STEPS = 200  # safeguarded Newton converges long before this; reaching it is a fault


def _l1_distance_to_ball2(v, radius):
    """min ||v - x||_1 over ||x||_2 <= radius, in closed form.

    The minimizer clips v to [-theta, theta] coordinatewise at the level
    theta where the clipped part has l2 norm radius; the distance is the
    l1 norm of what is cut off, soft-threshold(v, theta).
    """
    u = np.sort(np.abs(v))
    sq = u * u
    before = np.concatenate(([0.0], np.cumsum(sq)[:-1]))
    # clipping at u[i] leaves squared norm before[i] + (d - i) u[i]^2, increasing in i
    k = int(np.count_nonzero(before + (len(u) - np.arange(len(u))) * sq <= radius * radius))
    if k == len(u):
        return 0.0
    theta = math.sqrt((radius * radius - before[k]) / (len(u) - k))
    return float((u[k:] - theta).sum())


@dataclasses.dataclass(frozen=True)
class SparseConstraint:
    """Intersection of ball2(center2, radius2) and ball1(center1, radius1).

    Raises EmptyConstraintError when built (dataclasses.replace included) if no
    point lies in both balls.
    """

    center2: np.ndarray
    radius2: float
    center1: np.ndarray
    radius1: float

    def __post_init__(self):
        distance = _l1_distance_to_ball2(self.center1 - self.center2, self.radius2)
        if distance > self.radius1:
            raise EmptyConstraintError(distance, self.radius1)

    def violation(self, w):
        diff = w - self.center2
        g2 = math.sqrt(float(diff.dot(diff))) - self.radius2
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


def _magnitudes(lin_coef, pow_coef, gamma, target, y):
    """Elementwise root y >= 0 of lin_coef*y + pow_coef*y^gamma = target, gamma >= 1.

    The left side is convex and increasing in y, so a Newton step from any
    start lands at or above the root and the steps then fall to it
    monotonically. Starts at the warm guess y (None for none), capped by
    the root's upper bound. Returns (y, y^(gamma-1)).
    """
    if gamma == 1.0:
        return target / (lin_coef + pow_coef), np.ones_like(target)
    cap = target / lin_coef if lin_coef > 0.0 else np.full_like(target, np.inf)
    if pow_coef > 0.0:
        cap = np.minimum(cap, (target / pow_coef) ** (1.0 / gamma))
    if lin_coef == 0.0 or pow_coef == 0.0:
        y = cap
    else:
        y = cap if y is None else np.minimum(y, cap)
        for _ in range(ROOT_STEPS):
            yg1 = y ** (gamma - 1.0)
            step = (lin_coef * y + pow_coef * y * yg1 - target) / (
                lin_coef + (pow_coef * gamma) * yg1)
            y_new = np.minimum(y - step, cap)
            # count_nonzero skips numpy's Python wrapper around ndarray.all; NaN never settles
            if np.count_nonzero(abs(y_new - y) <= 4.0 * EPS * y_new) == y.size:
                y = y_new
                break
            y = y_new
        else:
            raise NumericalError("coordinate magnitudes of the mirror step did not settle")
    return y, y ** (gamma - 1.0)


@dataclasses.dataclass
class _Point:
    """The exact minimizer z at fixed multipliers, with what its slopes need."""

    lam: float
    mu: float
    z: np.ndarray
    free: np.ndarray | None  # coordinates off the l1 kink; None when all are
    sigma: np.ndarray  # sign of the l1 subgradient on free coordinates
    t: np.ndarray  # |z_i|^(p-1), zero on the kink
    r: np.ndarray  # d z_i / d tau_i at fixed S, zero on the kink
    sgn: np.ndarray  # sign of z_i
    kappa: float  # d S / d(sum_i sign(z_i) t_i dz_i)
    border: float  # 1 + kappa * sum_i r_i t_i^2, the Schur complement of the bordered system


class _Step:
    """KKT system of one step in z = w - u1: exact solves at fixed multipliers and their slopes."""

    def __init__(self, lin, a, b, r2, r1, p):
        self.lin, self.a, self.b, self.r2, self.r1, self.p = lin, a, b, r2, r1, p
        self.inv = 1.0 / (p - 1.0)
        self.gamma = max(self.inv, p - 1.0)
        self.small_p = p < 2.0
        self.shifted = bool(b.any())  # the l1 center differs from u1
        if self.shifted:
            ab = np.abs(b)
            self.b_grad = np.sign(b) * ab ** (p - 1.0)
            self.b_pow = ab**p
        self.slope_lo = min(1.0, self.inv)  # bounds the slope of the log S equation
        self.log_s = 0.0 if p == 2.0 else None
        self.y = None

    def _coords(self, S, lam, mu, c_hat):
        """Coordinatewise minimizer at fixed S: (z, free, sigma, m, t, y^(gamma-1)).

        h_i is the derivative of coordinate i's smooth part at the kink b_i;
        the coordinate stays on the kink while |h_i| <= lam, and otherwise
        its target tau_i moves with lam in the direction sigma_i = sign(h_i).
        """
        h = c_hat + S * self.b_grad + mu * self.b if self.shifted else c_hat
        sigma = np.sign(h)
        if lam > 0.0:
            free = np.abs(h) > lam
            tau = np.where(free, lam * sigma - c_hat, 0.0)
        else:
            free = None
            tau = -c_hat
        lin_coef, pow_coef = (S, mu) if self.small_p else (mu, S)
        y, yg1 = _magnitudes(lin_coef, pow_coef, self.gamma, np.abs(tau), self.y)
        self.y = y
        m, t = (y * yg1, y) if self.small_p else (y, y * yg1)
        z = np.sign(tau) * m
        if free is not None and self.shifted:
            z = np.where(free, z, self.b)
        return z, free, sigma, m, t, yg1

    def solve(self, lam, mu):
        """The minimizer at multipliers (lam, mu), with S found by safeguarded Newton in log S."""
        c_hat = self.lin - mu * self.a if mu else self.lin
        if self.log_s is None:  # first call: S of the dual-map step on the unpinned targets
            theta = np.abs(c_hat)
            q = self.p * self.inv
            nrm = float((theta**q).sum()) ** (1.0 / q)
            self.log_s = math.log(self.inv) + (2.0 - self.p) * math.log(
                (self.p - 1.0) * nrm) if nrm > 0.0 else math.log(self.inv)
        s, lo, hi = self.log_s, -math.inf, math.inf
        p = self.p
        for it in range(ROOT_STEPS):
            S = math.exp(s)
            z, free, sigma, m, t, yg1 = self._coords(S, lam, mu, c_hat)
            mt = m * t
            n_sum = float(mt.sum())
            if free is not None and self.shifted:
                n_sum = float(np.where(free, mt, self.b_pow).sum())
            if n_sum == 0.0 and p != 2.0:  # z = 0, where S is immaterial
                r = np.zeros_like(z)
                return _Point(lam, mu, z, free, sigma, t, r, np.sign(z), 0.0, 1.0)
            if self.small_p:
                r = yg1 / (S * (p - 1.0) + mu * yg1)
            else:
                with np.errstate(divide="ignore"):
                    r = 1.0 / (S * (p - 1.0) * yg1 + mu)
            if free is not None:
                r = np.where(free, r, 0.0)
            if p == 2.0:  # S = 1/(p-1) whatever z is
                kappa, border, rho = 0.0, 1.0, s
            else:
                kappa = S * (2.0 - p) / n_sum
                if self.small_p:
                    border = 1.0 + kappa * float((r * t * t).sum())
                else:  # r = inf meets t = 0 on a coordinate at 0
                    with np.errstate(invalid="ignore"):
                        border = 1.0 + kappa * float((r * t * t).sum())
                rho = s - math.log(self.inv) - (2.0 - p) / p * math.log(n_sum)
            if rho == 0.0:
                break
            if rho > 0.0:
                hi = s
            else:
                lo = s
            if it == 0:  # the slope is at least slope_lo, which bounds the root
                reach = 1.01 * rho / self.slope_lo
                lo, hi = (s - reach, hi) if rho > 0.0 else (lo, s - reach)
            step = rho / border if border > 0.0 and math.isfinite(border) else math.nan
            resolution = 4.0 * EPS * max(1.0, abs(s))
            if abs(step) <= resolution or hi - lo <= resolution:
                break
            s -= step
            if not lo < s < hi:
                s = 0.5 * (lo + hi)
        else:
            raise NumericalError("the p-norm scalar of the mirror step did not settle")
        self.log_s = s
        return _Point(lam, mu, z, free, sigma, t, r, np.sign(z), kappa, border)

    def dz(self, pt, v):
        """Derivative of z when the free targets tau move by v, S following (O(d))."""
        u = pt.sgn * pt.t * pt.r
        dS = pt.kappa * float(u @ v) / pt.border
        return pt.r * v - u * dS

    def dz_dmu(self, pt):
        return self.dz(pt, self.a - pt.z)

    def g2(self, z):
        """Gap of the l2 constraint at z, and its unit normal there."""
        diff = z - self.a
        nrm = math.sqrt(float(diff.dot(diff)))
        return nrm - self.r2, diff / nrm if nrm > 0.0 else diff

    def g1(self, z):
        """Gap of the l1 constraint at z, and its subgradient off the kinks."""
        diff = z - self.b
        return float(abs(diff).sum()) - self.r1, np.sign(diff)

    def ball2(self, lam, mu_guess):
        """Point at multiplier lam with mu at the root of the l2 constraint (0 when slack).

        The gap falls as mu grows. With a guess mu_guess > 0 (None for none)
        the search solves there first: a gap > 0 shows the ball binds and the
        root lies above, |gap| <= ftol is the answer, and a gap < 0 takes one
        secular Newton step down (_newton), whose landing point, if its gap is
        > 0, brackets the root with the guess. Only otherwise is mu = 0
        solved: the answer when the ball is slack there, else the lower end of
        a search whose upper end is the smallest mu tried with a gap <= 0.
        """

        def at(mu):
            pt = self.solve(lam, mu)
            gap, normal = self.g2(pt.z)
            return gap, float(normal @ self.dz_dmu(pt)), pt

        ftol = 8.0 * EPS * (self.r2 + math.sqrt(float(self.a.dot(self.a))))
        upper = None  # (mu, point) with gap <= 0
        if mu_guess is not None:
            gap, slope, pt = at(mu_guess)
            if gap > 0.0:
                return self._root(at, (mu_guess, gap, slope, pt), ftol, self.g2, self.r2)
            if gap >= -ftol:
                return pt
            upper = (mu_guess, pt)
            mu = _newton(mu_guess, gap, slope, self.r2)
            if 0.0 < mu < mu_guess:
                gap, slope, pt = at(mu)
                if gap > 0.0:
                    return self._root(at, (mu, gap, slope, pt), ftol, self.g2, self.r2, upper)
                upper = (mu, pt)
        gap, slope, pt = at(0.0)
        if gap <= 0.0:
            return pt
        return self._root(at, (0.0, gap, slope, pt), ftol, self.g2, self.r2, upper)

    def both(self, start):
        """Point with lam at the root of the l1 constraint, mu following as in ball2."""

        def slope(pt, sign):
            dz = self.dz(pt, pt.sigma)
            if pt.mu > 0.0:  # mu moves along with lam to keep the l2 ball tight
                _, normal = self.g2(pt.z)
                dz_mu = self.dz_dmu(pt)
                along = float(normal @ dz_mu)
                if along == 0.0:
                    return math.nan
                dz = dz - (float(normal @ dz) / along) * dz_mu
            return float(sign @ dz)

        def at(lam):
            pt = self.ball2(lam, last[0])
            last[0] = pt.mu or None
            gap, sign = self.g1(pt.z)
            return gap, slope(pt, sign), pt

        last = [start.mu or None]
        gap, sign = self.g1(start.z)
        ftol = 8.0 * EPS * (self.r1 + float(abs(self.b).sum()))
        return self._root(at, (0.0, gap, slope(start, sign), start), ftol, self.g1)

    @staticmethod
    def _root(at, start, ftol, gap, radius=None, upper=None):
        """Multiplier x > x0 where the constraint gap f(x) is 0, by safeguarded Newton.

        f is nonincreasing with f(x0) > 0. at(x) -> (f(x), f'(x), point);
        start = (x0, f(x0), f'(x0), point); upper = (x1, point), when given, is
        a known x1 > x0 with f(x1) <= 0. The Newton steps are _newton's, on
        the secular form when radius (the l2 ball's) is given. Steps that
        leave the bracket become bisections, or doublings while no point with
        f <= 0 is known. Returns the point once |f| <= ftol. When the bracket
        or the step reaches rounding first, f can still jump between its ends:
        for p > 2, |z_i| grows like |tau_i|^(1/(p-1)), steep where tau_i
        crosses 0. Both end points are then stationary to rounding, and the
        point returned is the one on the segment between them where gap(z) is 0.
        """
        lo, f, slope, at_lo = start
        hi, at_hi = upper or (math.inf, None)
        x = lo
        for _ in range(ROOT_STEPS):
            cand = _newton(x, f, slope, radius)
            if not lo < cand < hi:
                cand = 0.5 * (lo + hi) if hi < math.inf else (2.0 * lo if lo > 0.0 else 1.0)
            moved = abs(cand - x)
            x = cand
            f, slope, pt = at(x)
            if f > 0.0:
                lo, at_lo = x, pt
            else:
                hi, at_hi = x, pt
            if abs(f) <= ftol:
                return pt
            if at_hi is None:
                if moved <= 4.0 * EPS * x:
                    return pt
            elif moved <= 4.0 * EPS * x or hi - lo <= 4.0 * EPS * hi:
                return _blend(at_lo, at_hi, gap)
        raise NumericalError("multiplier search of the mirror step did not converge")


def _newton(x, f, slope, radius):
    """Newton's next x for the root of the gap f at x, slope f'(x) < 0 (NaN without one).

    With radius None (or 0) the step is the plain one. With radius, the l2
    ball's, f = ||z - a|| - radius and the step is Newton's on the secular
    form 1/radius - 1/||z - a|| (More & Sorensen, "Computing a trust region
    step", 1983), which is nearly linear in mu and exactly so for the p = 2
    projection: the plain step times 1 + f/radius. Where that factor is not
    positive (z = a) the plain step stands.
    """
    if not (slope < 0.0 and math.isfinite(slope)):
        return math.nan
    step = f / slope
    if radius:
        factor = 1.0 + f / radius
        if factor > 0.0:
            step *= factor
    return x - step


def _blend(pos, neg, gap):
    """The point between pos (gap > 0) and neg (gap <= 0) where gap is 0; gap is convex."""
    lo, hi = 0.0, 1.0  # fraction of the way from neg to pos
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if gap(neg.z + mid * (pos.z - neg.z))[0] > 0.0:
            hi = mid
        else:
            lo = mid
    # on the kink are the coordinates on it at both ends, where both hold z_i = b_i
    free = None if pos.free is None or neg.free is None else pos.free | neg.free
    return dataclasses.replace(neg, z=neg.z + lo * (pos.z - neg.z), free=free)


def _solve(lin, u1, p, constraint, guess=None):
    """argmin over K of <lin, w - u1> + ||w - u1||_p^2/(2(p-1)), exactly.

    Returns (w, mu, lam): the minimizer and the multipliers of the l2 and
    the l1 constraint, which certify it through the KKT conditions. guess,
    an l2 multiplier such as a nearby step's mu, is the first mu the search
    tries (_Step.ball2); guess None or 0 starts it cold, at mu = 0. The
    answer is the same to rounding either way. The search for lam always starts cold:
    on a warm start that binds the l1 ball, seeding it with the last step's
    lam took more solves, not fewer.
    """
    b = constraint.center1 - u1
    step = _Step(lin, constraint.center2 - u1, b, constraint.radius2, constraint.radius1, p)
    pt = step.ball2(0.0, guess or None)  # the dual-map step when its l2 gap is <= 0
    if step.g1(pt.z)[0] > 0.0:
        pt = step.both(pt)
    w = u1 + pt.z
    if pt.free is not None:  # kink coordinates sit exactly on the l1 center
        w = np.where(pt.free, w, constraint.center1)
    return w, pt.mu, pt.lam


def project_intersection(v, constraint):
    """Euclidean projection of v onto K: the mirror step at p = 2 with no linear term."""
    v = np.asarray(v, dtype=float)
    return _solve(np.zeros_like(v), v, 2.0, constraint)[0]


def bregman_step(u_t, g, alpha, constraint, u1, p, guess=None):
    """argmin_{w in K} alpha*<g, w> + D_R(w, u_t) for R(w) = ||w-u1||_p^2/(2(p-1)).

    Exact up to rounding: the KKT point over K's active balls (module
    docstring). Returns (w, mu, lam) as _solve does, w with the multipliers
    of the l2 and the l1 ball; the next step of the same row can pass mu
    back as guess to seed its search for mu (_solve); without a guess it
    starts cold.
    """
    if not p > 1.0:
        raise InvalidInputError("mirror exponent p must exceed 1")
    u_t = np.asarray(u_t, dtype=float)
    g = np.asarray(g, dtype=float)
    u1 = np.asarray(u1, dtype=float)
    step_dir = alpha * g
    if not step_dir.any() and constraint.violation(u_t) == 0.0:
        return u_t.copy(), 0.0, 0.0
    lin = step_dir - pnorm_sq_grad(u_t - u1, p) / (p - 1.0)
    return _solve(lin, u1, p, constraint, guess)
