"""Per-epoch bandwidth and iteration schedules for the three noise regimes.

Epoch j targets proximity r_j = 4^{-(j+1)}. Every expression keeps its
analysis form with the hidden constants replaced by explicit multipliers;
bandwidths are clipped to R/2 (the band lemmas' validity range) and the
initialization target eps0 to 1/2. The regime bounds the lemma suite checks
(excess_lower_bound, psi_lower_bound) are written here, once.
"""

import math
from dataclasses import dataclass, fields

from .errors import InvalidInputError, UnsupportedRegimeError
from .geometry import integer, real
from .oracles import NOISE_KINDS

REGIMES = ("MNC", "TNC", "GTNC")


@dataclass(frozen=True)
class Profile:
    """Explicit multipliers standing in for the analysis's hidden constants.

    c_b scales bandwidths, c_T iteration counts, c_alpha the gradient step
    size, c_eps the initialization target, c_S the selection sample size.
    c_S defaults to 4 (the selection stage's sample bound carries no other
    pinned constant); the rest default to 1, i.e. the analysis expressions
    verbatim. Every multiplier must be a positive real, dataclasses.replace included.
    """

    c_b: float = 1.0
    c_T: float = 1.0
    c_alpha: float = 1.0
    c_eps: float = 1.0
    c_S: float = 4.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not real(f"multipliers.{f.name}", value) > 0:
                raise InvalidInputError(f"multipliers.{f.name} must be positive, got {value!r}")


# "desk" is calibrated so the per-epoch contraction contract holds at desk
# scale (50-seed Monte Carlo, see README); "paper-constants" is the verbatim
# expressions, whose hidden Theta-tilde factors they stand in for are far
# from 1, so it does not contract at desk problem sizes.
PROFILES = {
    "paper-constants": Profile(),
    "desk": Profile(c_b=4.0, c_T=0.0625, c_alpha=96.0, c_eps=16.0, c_S=64.0),
}


def proximity(j):
    """Target l2 proximity of epoch j."""
    return 4.0 ** -(j + 1)


def bandwidth(regime, r, dist, profile, eta=None, A=None, alpha=None, B=None):
    """Sampling bandwidth b_j at proximity scale r, clipped to R/2."""
    L, R, U, beta = dist.L, dist.R, dist.U, dist.beta
    c = profile.c_b
    if regime == "MNC":
        b = c * min(r * R, (1.0 - 2.0 * eta) * r * R**2 * L / (U * beta))
    elif regime == "TNC":
        e1 = (1.0 - alpha) / (2.0 * alpha - 1.0)
        e2 = alpha / (2.0 * alpha - 1.0)
        b = c * min(r * R, (R * L / A) ** e1 * (R**2 * L * r / (U * beta)) ** e2)
    elif regime == "GTNC":
        b = (
            c
            * min(R * L / (U * beta), 1.0)
            * min(R * r, B * (R * r) ** (1.0 / alpha))
        )
    else:
        raise InvalidInputError(f"unknown regime {regime!r}")
    return min(b, R / 2.0)


def iteration_factor(regime, r, dist, eta=None, A=None, alpha=None, B=None):
    """Regime-specific factor of T_j excluding dimension and polylog terms."""
    L, R, U, beta = dist.L, dist.R, dist.U, dist.beta
    if regime == "MNC":
        return (U * beta**2 / ((1.0 - 2.0 * eta) * R**2 * L)) ** 2
    if regime == "TNC":
        t1 = (A / (beta * R * L * r)) ** ((2.0 - 2.0 * alpha) / (2.0 * alpha - 1.0)) * (
            U * beta**2 / (R**2 * L)
        ) ** (2.0 * alpha / (2.0 * alpha - 1.0))
        t2 = (A / (R**2 * L * r)) ** ((2.0 - 2.0 * alpha) / alpha) * (
            U * beta**2 / (R**2 * L)
        ) ** 2
        return max(t1, t2)
    if regime == "GTNC":
        t1 = (beta**2 * U / (R**2 * L)) ** 2
        t2 = (
            (beta**2 * U / (B * R * L)) ** 2
            * R ** (-2.0 / alpha)
            * r ** (-(2.0 - 2.0 * alpha) / alpha)
        )
        return max(t1, t2)
    raise InvalidInputError(f"unknown regime {regime!r}")


def _dim_factor(d, sparse_s):
    """The schedules' dimension factor: d, or s ln d for a sparse run."""
    return sparse_s * math.log(d) if sparse_s else d


def iteration_count(regime, r, dist, delta, profile, dim_factor, **params):
    """Per-epoch label count T_j at proximity scale r."""
    polylog = math.log(1.0 / (delta * r)) ** 3
    return math.ceil(
        profile.c_T * dim_factor * polylog * iteration_factor(regime, r, dist, **params)
    )


def excess_lower_bound(regime, q, dist, c=1.0, eta=None, A=None, alpha=None, B=None):
    """The analysis's lower bound on the excess error at disagreement probability q.

    The leading factor c multiplies first: the schedules' eps0 is this bound at
    q = L R^2 / 4 with c = c_eps (initial_target), and the lemma suite checks it
    with c = 1 at measured disagreements.
    """
    if regime == "MNC":
        return c * (1.0 - 2.0 * eta) * q
    if regime == "TNC":
        return c * (1.0 / (2.0 * A)) ** ((1.0 - alpha) / alpha) * q ** (1.0 / alpha)
    if regime == "GTNC":
        log_term = 12.0 * dist.U * dist.beta * math.log(9.0 / q)
        return c * B * (q / 3.0) ** (1.0 / alpha) * log_term ** (-(1.0 - alpha) / alpha)
    raise InvalidInputError(f"unknown regime {regime!r}")


def psi_lower_bound(regime, b, theta, dist, eta=None, A=None, alpha=None, B=None):
    """The analysis's lower bound on the band potential at bandwidth b and tilde angle theta."""
    L, R, U, beta = dist.L, dist.R, dist.U, dist.beta
    logf = math.log(2.0 / (b * U * beta))
    if regime == "MNC":
        return (1.0 - 2.0 * eta) * R**2 * L / (128.0 * U * beta * logf) * theta
    if regime == "TNC":
        return ((R * b * L / (8.0 * A)) ** ((1.0 - alpha) / alpha) * R**2 * L
                / (256.0 * U * beta * logf) * theta)
    if regime == "GTNC":
        scale = R * theta / 8.0
        return R * L / (16.0 * U * beta * logf) * min(scale, B * scale ** (1.0 / alpha))
    raise InvalidInputError(f"unknown regime {regime!r}")


def initial_target(regime, dist, profile, **params):
    """Initialization excess-error target eps0, clipped to 1/2."""
    P = dist.L * dist.R**2 / 4.0
    if regime == "GTNC" and not P < 9.0:
        raise InvalidInputError("GTNC schedule needs L R^2 < 36, so that log(9/P) > 0")
    return min(excess_lower_bound(regime, P, dist, profile.c_eps, **params), 0.5)


def target_epoch(eps, dist):
    """(r, k): the l2 proximity r that keeps excess error within eps, and k = ceil(log_4(1/r))."""
    r = eps / (32.0 * dist.U * dist.beta**2 * math.log(12.0 / eps) ** 2)
    return r, math.ceil(math.log(1.0 / r, 4.0))


@dataclass(frozen=True)
class Schedule:
    regime: str
    d: int
    sparse_s: int | None
    epsilon: float
    delta: float
    profile: Profile
    params: dict  # regime parameters: eta / (A, alpha) / (B, alpha)
    eps0: float
    r_eps: float
    k_eps: int
    r0: float
    k0: int
    N: int  # initialization trials
    m: int  # selection sample size
    bandwidths: tuple  # b_j for j = 0..max(k0, k_eps)
    iterations: tuple  # T_j likewise

    @property
    def dim_factor(self):
        return _dim_factor(self.d, self.sparse_s)

    def per_trial_init_labels(self):
        return sum(self.iterations[: self.k0 + 1])

    def init_label_total(self):
        return self.N * self.per_trial_init_labels() + self.m

    def main_label_total(self):
        return sum(self.iterations[1 : self.k_eps + 1])

    def total_label_budget(self):
        return self.init_label_total() + self.main_label_total()

    def to_dict(self):
        return {
            "regime": self.regime,
            "d": self.d,
            "s": self.sparse_s,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "params": self.params,
            "eps0": self.eps0,
            "r_eps": self.r_eps,
            "k_eps": self.k_eps,
            "r0": self.r0,
            "k0": self.k0,
            "N": self.N,
            "m": self.m,
            "bandwidths": list(self.bandwidths),
            "iterations": list(self.iterations),
            "init_label_total": self.init_label_total(),
            "main_label_total": self.main_label_total(),
            "total_label_budget": self.total_label_budget(),
        }


def make_schedule(
    regime, dist, epsilon, delta, profile, eta=None, A=None, alpha=None, B=None, sparse_s=None
):
    """Instantiate the full epoch schedule for one learning run.

    epsilon, delta and the given noise parameters must be real numbers
    (geometry.real), and sparse_s None or an integer in [1, d] (geometry.integer).
    """
    epsilon, delta = real("epsilon", epsilon), real("delta", delta)
    eta, A, alpha, B = (None if v is None else real(k, v)
                        for k, v in (("eta", eta), ("A", A), ("alpha", alpha), ("B", B)))
    if not 0.0 < epsilon < 1.0:
        raise InvalidInputError("epsilon must lie in (0, 1)")
    if not 0.0 < delta < 0.1:
        raise InvalidInputError("delta must lie in (0, 1/10)")
    if regime not in REGIMES:
        raise InvalidInputError(f"unknown regime {regime!r}")
    if regime == "MNC":
        if eta is None or not 0.0 <= eta < 0.5:
            raise InvalidInputError("MNC schedule needs eta in [0, 1/2)")
        params = {"eta": eta}
    elif regime == "TNC":
        if A is None or not A > 0:
            raise InvalidInputError("TNC schedule needs A > 0")
        if alpha is None or not 0.5 < alpha <= 1.0:
            raise UnsupportedRegimeError(
                "TNC schedule requires alpha in (1/2, 1]; smaller alpha has no guarantee"
            )
        params = {"A": A, "alpha": alpha}
    else:
        if B is None or not B > 0:
            raise InvalidInputError("GTNC schedule needs B > 0")
        if alpha is None or not 0.0 < alpha <= 1.0:
            raise InvalidInputError("GTNC schedule needs alpha in (0, 1]")
        params = {"B": B, "alpha": alpha}
    if sparse_s is not None:
        sparse_s = integer("sparse_s", sparse_s, 1, dist.d)
        if dist.d < 3:
            raise InvalidInputError("sparse schedules need d >= 3")

    # extreme constants or multipliers overflow a count to inf (math.ceil raises) or
    # underflow a scale to 0 (division or log raises); both are bad input
    try:
        r_eps, k_eps = target_epoch(epsilon, dist)
        eps0 = initial_target(regime, dist, profile, **params)
        r0, k0 = target_epoch(eps0 / 2.0, dist)  # initialization aims at half its target
        N = math.ceil(10.0 * math.log(4.0 / delta))
        m = math.ceil(profile.c_S * math.log(N / delta) / eps0**2)

        dim = _dim_factor(dist.d, sparse_s)
        bws, its = [], []
        for j in range(max(k0, k_eps) + 1):
            r = proximity(j)
            bws.append(bandwidth(regime, r, dist, profile, **params))
            its.append(iteration_count(regime, r, dist, delta, profile, dim, **params))
    except InvalidInputError:
        raise
    except (ArithmeticError, ValueError) as exc:
        raise InvalidInputError(
            f"{regime} schedule arithmetic fails at these parameters: {exc}"
        ) from exc
    if not all(math.isfinite(b) for b in bws):
        raise InvalidInputError(f"{regime} schedule has a bandwidth that is not finite")
    # the learner draws step indices below T_j and sample sizes as int64
    if max(*its, N, m) > 2**63 - 1:
        raise InvalidInputError(f"{regime} schedule has a count (T_j, N or m) past 2^63 - 1")
    return Schedule(
        regime=regime,
        d=dist.d,
        sparse_s=sparse_s,
        epsilon=epsilon,
        delta=delta,
        profile=profile,
        params=params,
        eps0=eps0,
        r_eps=r_eps,
        k_eps=k_eps,
        r0=r0,
        k0=k0,
        N=N,
        m=m,
        bandwidths=tuple(bws),
        iterations=tuple(its),
    )


def regime_for_noise(noise):
    """Default schedule regime implied by a noise model."""
    return NOISE_KINDS[noise.kind][1]


# regime -> the noise fields its make_schedule parameters read (TNC also takes A);
# a regime applies to the noise kinds that have all of them
REGIME_FIELDS = {"MNC": ("eta",), "TNC": ("alpha",), "GTNC": ("B", "alpha")}


def schedule_for(noise, dist, epsilon, delta, profile, sparse_s=None, regime=None, A=None):
    """Schedule for a noise model; regime override needs A for plain-Tsybakov runs."""
    regime = regime or regime_for_noise(noise)
    if regime not in REGIME_FIELDS:
        raise InvalidInputError(f"unknown regime {regime!r}; choose from {REGIMES}")
    needs = REGIME_FIELDS[regime]
    kinds = [k for k, (k_fields, _) in NOISE_KINDS.items() if set(needs) <= set(k_fields)]
    if noise.kind not in kinds:
        raise InvalidInputError(
            f"{regime} schedule needs noise of kind {' or '.join(kinds)}, got {noise.kind!r}"
        )
    params = {f: getattr(noise, f) for f in needs}
    if regime == "TNC":
        params["A"] = A
    return make_schedule(regime, dist, epsilon, delta, profile, sparse_s=sparse_s, **params)
