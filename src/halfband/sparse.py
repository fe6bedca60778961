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
so a safeguarded Newton finds it to rounding. Each S iterate solves the d
scalar equations together by Newton (_magnitudes), from the last iterate's
answer, and keeps the power of |z_i| that Newton's last step formed. Where S
does not move the targets tau_i (at lam = 0, and wherever the l1 center is
u1, as on every step of the sparse epoch) they are formed once per solve,
not once per S iterate. The multiplier searches take
Newton steps whose slopes come from differentiating the same equations, a
system diagonal in z and bordered by S, solved in O(d). The search for mu
steps on the secular form 1/r2 - 1/||z - a||_2 of its gap (More & Sorensen
1983), nearly linear in mu and exactly so for the p = 2 projection. It
starts from a guess when the caller has one: the sparse epoch passes each
row's step the l2 multiplier of that row's last step. The guess is solved
first, and mu = 0 only when neither the guess nor one Newton step down from
it shows where the root lies; the result moves only within rounding.

The searches carry S and the magnitudes from trial to trial: each new trial
starts from the last one's point moved to first order along the search's own
direction (_Step.predict, by the bordered system's dz and dS), and within a
solve the magnitudes follow each Newton step of log S. A trial mu solves S
only as tightly as the next mu step needs (inexact Newton; Dembo, Eisenstat
& Steihaug 1982), where the gap's sign is certain (_Step.solve's loose); any
point a search returns is solved to the root of S (_Step.settle), so every
answer is still the exact KKT point to rounding.

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
from .geometry import MAX_COUNT, finite_array, integer, real

EPS = float(np.finfo(float).eps)
ROOT_STEPS = 200  # safeguarded Newton converges long before this; reaching it is a fault
FOUR_EPS = np.array(4.0 * EPS)  # _magnitudes' settling tolerance, relative, as a 0-d operand
# Newton steps a warm _magnitudes takes before it caps by the cold start's bound too: its
# calls settle in at most 6 on sparse-epoch-d50 and the d = 20 warm start, and a warm
# start far below the root at d = 3 took up to 67 steps without the second cap (15 with it)
WARM_STEPS = 8
# log S stays at or below this, where S = e^700 is finite with room to spare. S outgrows
# it only at p > 2 with every free |z_i| below about S^(-1/(p-1)) < 1e-30, z's limit 0 to
# rounding, which the iterate at the cap then stands for.
LOG_S_MAX = 700.0


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


def _bounded(name, value, lo, closed):
    """real(value) (geometry.real); InvalidInputError unless finite and >= lo (> lo if open)."""
    x = real(name, value)
    if not (math.isfinite(x) and (x >= lo if closed else x > lo)):
        raise InvalidInputError(f"{name} must be a finite real {'>=' if closed else '>'} {lo:g}, "
                                f"got {x!r}")
    return x


@dataclasses.dataclass(frozen=True)
class SparseConstraint:
    """Intersection of ball2(center2, radius2) and ball1(center1, radius1).

    The centers must be finite 1-d arrays of one length (geometry.finite_array,
    stored as float arrays), radius2 a finite real > 0 and radius1 a finite
    real >= 0; InvalidInputError otherwise. Raises EmptyConstraintError when
    built (dataclasses.replace included) if no point lies in both balls.
    """

    center2: np.ndarray
    radius2: float
    center1: np.ndarray
    radius1: float

    def __post_init__(self):
        center2 = finite_array("SparseConstraint: center2", self.center2, (None,))
        object.__setattr__(self, "center2", center2)
        object.__setattr__(self, "center1", finite_array(
            "SparseConstraint: center1", self.center1, center2.shape))
        object.__setattr__(self, "radius2", _bounded(
            "SparseConstraint: radius2", self.radius2, 0.0, False))
        object.__setattr__(self, "radius1", _bounded(
            "SparseConstraint: radius1", self.radius1, 0.0, True))
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
    """Mirror-map exponent for ambient dimension d, an integer in [3, 2^53] (geometry.integer)."""
    d = integer("mirror exponent: d", d, 3, MAX_COUNT)
    return math.log(d) / (math.log(d) - 1.0)


def _magnitudes(lin_coef, pow_coef, gamma, target, y):
    """Elementwise root y >= 0 of lin_coef*y + pow_coef*y^gamma = target, gamma >= 1.

    Returns (y, y^(gamma-1)). gamma = 1, lin_coef = 0 and pow_coef = 0 have
    closed forms. Otherwise Newton: the left side is convex and increasing
    in y, so a step from any start y >= 0 lands at or above the root and the
    steps then fall to it monotonically. The loop stops at the first iterate
    whose own step is within 4 eps y on every coordinate and returns it with
    the power that step was formed from, so no power is taken twice. A cold
    start (y None) begins at the root's upper bound min(target/lin_coef,
    (target/pow_coef)^(1/gamma)), which also caps the iterates. A warm y is
    capped by target/lin_coef alone, which spares the cold start's power,
    until WARM_STEPS steps have passed unsettled: a warm coordinate far below
    its root overshoots to near target/lin_coef, and falls from there by a
    factor of only about 1 - 1/gamma a step (gamma = 10.1 at d = 3), so the
    loop then takes the power cap too. The loop's scalars are 0-d arrays,
    which cost its ufuncs less than Python floats, with the same bits.
    """
    if gamma == 1.0:
        return target / (lin_coef + pow_coef), np.ones_like(target)
    gm1 = np.array(gamma - 1.0)
    if pow_coef == 0.0:
        y = target / lin_coef
        return y, y**gm1
    if lin_coef == 0.0 or y is None:
        root_cap = (target / pow_coef) ** (1.0 / gamma)
        if lin_coef == 0.0:
            return root_cap, root_cap**gm1
        y = cap = np.minimum(target / lin_coef, root_cap)
        tighten = -1  # the cap holds both bounds already
    else:
        cap = target / lin_coef
        y = np.minimum(y, cap)
        tighten = WARM_STEPS  # the step after which the cap takes the power bound too
    lin, pw, pwg = np.array(lin_coef), np.array(pow_coef), np.array(pow_coef * gamma)
    for k in range(ROOT_STEPS):
        yg1 = y**gm1
        step = (lin * y + pw * y * yg1 - target) / (lin + pwg * yg1)
        # count_nonzero skips numpy's Python wrapper around ndarray.all; NaN never settles
        if np.count_nonzero(abs(step) <= FOUR_EPS * y) == y.size:
            return y, yg1
        if k == tighten:
            cap = np.minimum(cap, (target / pow_coef) ** (1.0 / gamma))
        y = np.minimum(y - step, cap)
    raise NumericalError("coordinate magnitudes of the mirror step did not settle")


@dataclasses.dataclass
class _Point:
    """The minimizer z at fixed multipliers, with what its slopes and the predictor need.

    Exact to rounding unless exact is False: then S stopped short of its
    root (solve's loose), s holds the next Newton iterate of log S, and
    settle resumes the solve from there.
    """

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
    s: float  # log S
    y: np.ndarray  # the magnitudes _magnitudes solved for
    dy: np.ndarray  # d y_i / d|tau_i| at fixed S, zero on the kink
    exact: bool


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

    def _kink_slopes(self, S, mu, c_hat):
        """h: the derivative of each coordinate's smooth part at its l1 kink b_i."""
        return c_hat + S * self.b_grad + mu * self.b if self.shifted else c_hat

    def _targets(self, S, lam, mu, c_hat):
        """Coordinate targets at fixed S: (free, sigma, |tau|, sign(tau)).

        A coordinate stays on its kink while |h_i| <= lam, and otherwise its
        target tau_i moves with lam in the direction sigma_i = sign(h_i). At
        lam = 0 none is held (free None) and tau = -c_hat; sigma is then None,
        formed by solve for the point it returns alone. S is read only at
        lam > 0 with a shifted l1 center (_kink_slopes).
        """
        if lam == 0.0:
            free = sigma = None
            tau = -c_hat
        else:
            h = self._kink_slopes(S, mu, c_hat)
            sigma = np.sign(h)
            free = np.abs(h) > lam
            tau = np.where(free, lam * sigma - c_hat, 0.0)
        return free, sigma, np.abs(tau), np.sign(tau)

    def _coords(self, S, mu, free, target, sign):
        """Coordinatewise minimizer at fixed S on _targets' targets: (z, m, t, y^(gamma-1)).

        One S iterate of solve. The magnitudes start from the last iterate's,
        and _magnitudes takes S and mu into its Newton loop as 0-d arrays.
        """
        lin_coef, pow_coef = (S, mu) if self.small_p else (mu, S)
        y, yg1 = _magnitudes(lin_coef, pow_coef, self.gamma, target, self.y)
        self.y = y
        m, t = (y * yg1, y) if self.small_p else (y, y * yg1)
        z = sign * m
        if free is not None and self.shifted:
            z = np.where(free, z, self.b)
        return z, m, t, yg1

    def solve(self, lam, mu, loose=False):
        """The minimizer at multipliers (lam, mu), with S found by safeguarded Newton in log S.

        Each S iterate is one _coords call, from log S and the magnitudes the
        last solve or predict left. Where tau does not move with S (lam = 0,
        where tau = -c_hat, or an l1 center at u1, where h = c_hat) |tau| and
        sign(tau) are formed once, before the loop, not once per S iterate; at
        lam = 0, h and sigma are formed once, for the point returned. Either
        way the bits are those of forming them per iterate. log S is held at
        or below LOG_S_MAX.

        loose (a trial of ball2's search at mu > 0, targets fixed) lets the
        loop stop short of the root of S, at the first iterate where the l2
        gap's first-order move under the rest of the S correction,
        S*step*<normal, sign*t*r>, is at most gap^2/r2: the gap of the next
        trial is of order gap^2/r2 anyway (Newton's quadratic convergence in
        mu), so such an error costs the search no trial. The point returned
        then has z moved by that first-order correction, which leaves its gap
        off by a second-order amount, and is marked inexact; settle finishes
        it. Its gap must also have the exact point's sign, which sets the
        bracket, for sure: rho's slope is at least slope_lo, so log S is
        within |rho|/slope_lo of its root; at fixed targets
        |d log m_i / d log S| <= 1/(p-1), so the exact z lies within
        ||m|| expm1(|rho|/(slope_lo (p-1))) of the iterate's in l2, which,
        with the correction's length, must be below |gap|.
        """
        c_hat = self.lin - mu * self.a if mu else self.lin
        if self.log_s is None:  # first call: S of the dual-map step on the unpinned targets
            theta = np.abs(c_hat)
            q = self.p * self.inv
            nrm = float((theta**q).sum()) ** (1.0 / q)
            self.log_s = math.log(self.inv) + (2.0 - self.p) * math.log(
                (self.p - 1.0) * nrm) if nrm > 0.0 else math.log(self.inv)
        s, lo, hi = min(self.log_s, LOG_S_MAX), -math.inf, LOG_S_MAX
        p = self.p
        fixed = lam == 0.0 or not self.shifted  # _targets does not read S
        targets = self._targets(None, lam, mu, c_hat) if fixed else None

        def point(r, dy, kappa, border, s, exact=True):
            sig = sigma if lam else np.sign(self._kink_slopes(S, mu, c_hat))
            if free is not None and self.small_p:
                dy = np.where(free, dy, 0.0)
            return _Point(lam, mu, z, free, sig, t, r, np.sign(z), kappa, border, s, self.y, dy,
                          exact)

        for it in range(ROOT_STEPS):
            S = math.exp(s)
            free, sigma, target, sign = targets or self._targets(S, lam, mu, c_hat)
            z, m, t, yg1 = self._coords(S, mu, free, target, sign)
            mt = m * t
            n_sum = float(mt.sum())
            if free is not None and self.shifted:
                n_sum = float(np.where(free, mt, self.b_pow).sum())
            if n_sum == 0.0 and p != 2.0:  # z = 0, where S is immaterial
                return point(np.zeros_like(z), np.zeros_like(z), 0.0, 1.0, s)
            # dy = d y_i / d|tau_i| at fixed S, as _magnitudes' Newton step forms it
            if self.small_p:
                den = S * (p - 1.0) + mu * yg1
                r, dy = yg1 / den, (p - 1.0) / den
            else:
                with np.errstate(divide="ignore"):
                    r = 1.0 / (S * (p - 1.0) * yg1 + mu)
            if free is not None:
                r = np.where(free, r, 0.0)
            if not self.small_p:
                dy = r
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
                lo, hi = (s - reach, hi) if rho > 0.0 else (lo, min(hi, s - reach))
            step = rho / border if border > 0.0 and math.isfinite(border) else math.nan
            resolution = 4.0 * EPS * max(1.0, abs(s))
            if abs(step) <= resolution or hi - lo <= resolution:
                break
            if loose and mu and fixed:
                # the rest of the S correction, S*step to first order, moves z by S*step*u
                u = sign * t * r  # -dz/dS at fixed targets
                diff = z - self.a
                nrm = math.sqrt(float(diff.dot(diff)))
                log_err = abs(rho) / self.slope_lo * self.inv  # bounds |log m_i - log m_i*|
                if log_err < 1.0 and abs(S * step * float(diff.dot(u))) <= nrm * (
                        nrm - self.r2) ** 2 / self.r2:
                    shift = (S * step) * u
                    diff = diff + shift
                    gap = math.sqrt(float(diff.dot(diff))) - self.r2
                    if (math.sqrt(float(m.dot(m))) * math.expm1(log_err)
                            + math.sqrt(float(shift.dot(shift))) < abs(gap)):
                        z = z + shift
                        self.log_s = s - step
                        return point(r, dy, kappa, border, s - step, exact=False)
            s -= step
            if not lo < s < hi:
                s = 0.5 * (lo + hi)
            elif mu:  # the magnitudes follow S to first order: dy/dS = -t dy/d|tau|
                self.y = np.maximum(self.y + (S * step) * t * dy, 0.0)
        else:
            raise NumericalError("the p-norm scalar of the mirror step did not settle")
        self.log_s = s
        return point(r, dy, kappa, border, s)

    def dz(self, pt, v):
        """Derivative of z when the free targets tau move by v, S following (O(d)).

        For p > 2 a free coordinate at 0 has r = inf and t = 0: z moves there
        like |tau|^(1/(p-1)), with no finite slope, and the derivative comes out
        NaN, which the multiplier searches take as no slope (_newton).
        """
        if self.small_p:
            return self._dz(pt, v)
        with np.errstate(invalid="ignore"):
            return self._dz(pt, v)

    @staticmethod
    def _dz(pt, v):
        """(dz, dS): the bordered system's solution for the target move v."""
        u = pt.sgn * pt.t * pt.r
        dS = pt.kappa * float(u @ v) / pt.border
        return pt.r * v - u * dS, dS

    def predict(self, pt, v, dS, dx):
        """Start the next solve from pt moved by dx to first order, the targets moving by v.

        dS is S's rate along the move (dz). log S moves by dS/S*dx, and each
        magnitude by its slope dy_i times the move of |tau_i| at fixed S,
        sign(z_i) v_i - t_i dS (the bordered system's), clipped at 0. The
        start stays as it is where log S would move by more than 1, where the
        linear model is poor (a bisection or doubling step), where dS is not
        finite (for p > 2, a free coordinate at 0), and at p = 2, where S is
        fixed and the magnitudes closed-form.
        """
        ds = dS / math.exp(pt.s) * dx
        if self.p == 2.0 or not abs(ds) <= 1.0:
            return
        self.log_s = pt.s + ds
        self.y = np.maximum(pt.y + (pt.sgn * v - pt.t * dS) * pt.dy * dx, 0.0)

    def settle(self, pt):
        """pt solved to the root of S: pt itself when exact, else its solve resumed."""
        if pt.exact:
            return pt
        self.log_s, self.y = pt.s, pt.y
        return self.solve(pt.lam, pt.mu)

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

        Each trial after the first starts from the last one's point moved to
        first order along mu (predict; the targets move by a - z per unit mu),
        and solves S loosely (solve); every point returned is settled.
        """

        def at(mu):
            if last:
                self.predict(*last, mu - last[0].mu)
            pt = self.solve(lam, mu, loose=True)
            gap, normal = self.g2(pt.z)
            v = self.a - pt.z
            dz, dS = self.dz(pt, v)
            last[:] = pt, v, dS
            return gap, float(normal @ dz), pt

        last = []  # the last trial's point, its target move v and S's rate dS
        ftol = 8.0 * EPS * (self.r2 + math.sqrt(float(self.a.dot(self.a))))
        upper = None  # (mu, point) with gap <= 0
        if mu_guess is not None:
            gap, slope, pt = at(mu_guess)
            if gap > 0.0:
                return self._root(at, (mu_guess, gap, slope, pt), ftol, self.g2, self.r2)
            if gap >= -ftol:
                return self.settle(pt)
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
            dz = self.dz(pt, pt.sigma)[0]
            if pt.mu > 0.0:  # mu moves along with lam to keep the l2 ball tight
                _, normal = self.g2(pt.z)
                dz_mu = self.dz(pt, self.a - pt.z)[0]
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

    def _root(self, at, start, ftol, gap, radius=None, upper=None):
        """Multiplier x > x0 where the constraint gap f(x) is 0, by safeguarded Newton.

        f is nonincreasing with f(x0) > 0. at(x) -> (f(x), f'(x), point);
        start = (x0, f(x0), f'(x0), point); upper = (x1, point), when given, is
        a known x1 > x0 with f(x1) <= 0. The Newton steps are _newton's, on
        the secular form when radius (the l2 ball's) is given. Steps that
        leave the bracket become bisections, or doublings while no point with
        f <= 0 is known, and so does a step longer than half the step before
        last inside a bracket (rtsafe's rule in Numerical Recipes): where f is
        steep between two multipliers, Newton steps from either end can land
        near the other, each shrinking the bracket by a sliver. A step shorter than 2 eps x inside a bracket is
        lengthened to 2 eps x, so the bracket closes on x: Newton's step
        reaches rounding near a root while the bracket's other end may still
        lie far off, and a blend toward that end would take its multiplier.
        Returns the point once |f| <= ftol. When the bracket reaches rounding
        first, f can still jump between its ends: for p > 2, |z_i| grows like
        |tau_i|^(1/(p-1)), steep where tau_i crosses 0. Both end points, a few
        ulps apart, are then stationary to rounding, and the point returned is
        the one on the segment between them where gap(z) is 0. A step that
        reaches rounding before any point with f <= 0 is known returns its point.
        A trial point may be loose (solve); each point returned is settled, and
        a blend settles both its ends first.
        """
        lo, f, slope, at_lo = start
        hi, at_hi = upper or (math.inf, None)
        x, before, moved = lo, math.inf, math.inf  # the step before last, the last step
        for _ in range(ROOT_STEPS):
            cand = _newton(x, f, slope, radius)
            if not lo < cand < hi or (hi < math.inf and abs(cand - x) > 0.5 * before):
                cand = 0.5 * (lo + hi) if hi < math.inf else (2.0 * lo if lo > 0.0 else 1.0)
            elif at_hi is not None and abs(cand - x) < 2.0 * EPS * x:
                cand = x + math.copysign(2.0 * EPS * x, f)  # toward the root
            before, moved = moved, abs(cand - x)
            x = cand
            f, slope, pt = at(x)
            if f > 0.0:
                lo, at_lo = x, pt
            else:
                hi, at_hi = x, pt
            if abs(f) <= ftol:
                return self.settle(pt)
            if at_hi is None:
                if moved <= 4.0 * EPS * x:
                    return self.settle(pt)
            elif hi - lo <= 4.0 * EPS * hi:
                return _blend(self.settle(at_lo), self.settle(at_hi), gap)
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


def _constraint(name, constraint):
    """constraint itself; InvalidInputError unless it is a SparseConstraint."""
    if not isinstance(constraint, SparseConstraint):
        raise InvalidInputError(f"{name}: constraint must be a SparseConstraint, "
                                f"got {type(constraint).__name__}")
    return constraint


def project_intersection(v, constraint):
    """Euclidean projection of v onto K: the mirror step at p = 2 with no linear term.

    v must be a finite array of the constraint's shape (geometry.finite_array).
    """
    constraint = _constraint("project_intersection", constraint)
    v = finite_array("project_intersection: v", v, constraint.center2.shape)
    return _solve(np.zeros_like(v), v, 2.0, constraint)[0]


def bregman_step(u_t, g, alpha, constraint, u1, p, guess=None):
    """argmin_{w in K} alpha*<g, w> + D_R(w, u_t) for R(w) = ||w-u1||_p^2/(2(p-1)).

    Exact up to rounding: the KKT point over K's active balls (module
    docstring). Returns (w, mu, lam) as _solve does, w with the multipliers
    of the l2 and the l1 ball; the next step of the same row can pass mu
    back as guess to seed its search for mu (_solve); without a guess it
    starts cold.

    Every argument is checked before any solve, with InvalidInputError:
    constraint a SparseConstraint; u_t, g and u1 finite arrays of its shape
    (geometry.finite_array); alpha a finite real >= 0, p one > 1 and guess
    None or one >= 0 (geometry.real).
    """
    constraint = _constraint("bregman_step", constraint)
    shape = constraint.center2.shape
    u_t = finite_array("bregman_step: u_t", u_t, shape)
    g = finite_array("bregman_step: g", g, shape)
    u1 = finite_array("bregman_step: u1", u1, shape)
    alpha = _bounded("bregman_step: alpha", alpha, 0.0, True)
    p = _bounded("bregman_step: mirror exponent p", p, 1.0, False)
    if guess is not None:
        guess = _bounded("bregman_step: guess", guess, 0.0, True)
    step_dir = alpha * g
    if not step_dir.any() and constraint.violation(u_t) == 0.0:
        return u_t.copy(), 0.0, 0.0
    lin = step_dir - pnorm_sq_grad(u_t - u1, p) / (p - 1.0)
    return _solve(lin, u1, p, constraint, guess)
