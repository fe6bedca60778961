"""Per-epoch bandwidth and iteration schedules for the three noise regimes.

Epoch j targets proximity r_j = 4^{-(j+1)}. Every expression keeps its
analysis form with the hidden constants replaced by explicit multipliers;
bandwidths are clipped to R/2 (the band lemmas' validity range) and the
initialization target eps0 to 1/2.
"""

import math
from dataclasses import dataclass

from .errors import InvalidInputError, UnsupportedRegimeError

REGIMES = ("MNC", "TNC", "GTNC")


@dataclass(frozen=True)
class Profile:
    """Explicit multipliers standing in for the analysis's hidden constants.

    c_b scales bandwidths, c_T iteration counts, c_alpha the gradient step
    size, c_eps the initialization target, c_S the selection sample size.
    c_S defaults to 4 (the selection stage's sample bound carries no other
    pinned constant); the rest default to 1, i.e. the analysis expressions
    verbatim.
    """

    c_b: float = 1.0
    c_T: float = 1.0
    c_alpha: float = 1.0
    c_eps: float = 1.0
    c_S: float = 4.0


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


def iteration_count(regime, r, dist, delta, profile, dim_factor, **params):
    """Per-epoch label count T_j at proximity scale r."""
    polylog = math.log(1.0 / (delta * r)) ** 3
    return math.ceil(
        profile.c_T * dim_factor * polylog * iteration_factor(regime, r, dist, **params)
    )


def initial_target(regime, dist, profile, eta=None, A=None, alpha=None, B=None):
    """Initialization excess-error target eps0, clipped to 1/2."""
    L, R, U, beta = dist.L, dist.R, dist.U, dist.beta
    P = L * R**2 / 4.0
    if regime == "MNC":
        eps0 = profile.c_eps * (1.0 - 2.0 * eta) * P
    elif regime == "TNC":
        eps0 = profile.c_eps * (1.0 / (2.0 * A)) ** ((1.0 - alpha) / alpha) * P ** (1.0 / alpha)
    elif regime == "GTNC":
        if not P < 9.0:
            raise InvalidInputError("GTNC schedule needs L R^2 < 36, so that log(9/P) > 0")
        eps0 = (
            profile.c_eps
            * B
            * (P / 3.0) ** (1.0 / alpha)
            * (12.0 * U * beta * math.log(9.0 / P)) ** (-(1.0 - alpha) / alpha)
        )
    else:
        raise InvalidInputError(f"unknown regime {regime!r}")
    return min(eps0, 0.5)


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
        return self.sparse_s * math.log(self.d) if self.sparse_s else self.d

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
    """Instantiate the full epoch schedule for one learning run."""
    if not 0.0 < epsilon < 1.0:
        raise InvalidInputError("epsilon must lie in (0, 1)")
    if not 0.0 < delta < 0.1:
        raise InvalidInputError("delta must lie in (0, 1/10)")
    if regime not in REGIMES:
        raise InvalidInputError(f"unknown regime {regime!r}")
    if regime == "MNC":
        if eta is None or not 0.0 <= eta < 0.5:
            raise InvalidInputError("MNC schedule needs eta in [0, 1/2)")
        params = {"eta": float(eta)}
    elif regime == "TNC":
        if A is None or not A > 0:
            raise InvalidInputError("TNC schedule needs A > 0")
        if alpha is None or not 0.5 < alpha <= 1.0:
            raise UnsupportedRegimeError(
                "TNC schedule requires alpha in (1/2, 1]; smaller alpha has no guarantee"
            )
        params = {"A": float(A), "alpha": float(alpha)}
    else:
        if B is None or not B > 0:
            raise InvalidInputError("GTNC schedule needs B > 0")
        if alpha is None or not 0.0 < alpha <= 1.0:
            raise InvalidInputError("GTNC schedule needs alpha in (0, 1]")
        params = {"B": float(B), "alpha": float(alpha)}
    if sparse_s is not None:
        sparse_s = int(sparse_s)
        if sparse_s < 1:
            raise InvalidInputError("sparse_s must be at least 1")
        if dist.d < 3:
            raise InvalidInputError("sparse schedules need d >= 3")

    U, beta = dist.U, dist.beta
    # extreme constants or multipliers overflow a count to inf (math.ceil raises) or
    # underflow a scale to 0 (division or log raises); both are bad input
    try:
        r_eps = epsilon / (32.0 * U * beta**2 * math.log(12.0 / epsilon) ** 2)
        k_eps = math.ceil(math.log(1.0 / r_eps, 4.0))
        eps0 = initial_target(regime, dist, profile, **params)
        r0 = eps0 / (64.0 * U * beta**2 * math.log(24.0 / eps0) ** 2)
        k0 = math.ceil(math.log(1.0 / r0, 4.0))
        N = math.ceil(10.0 * math.log(4.0 / delta))
        m = math.ceil(profile.c_S * math.log(N / delta) / eps0**2)

        dim = sparse_s * math.log(dist.d) if sparse_s else dist.d
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
    return Schedule(
        regime=regime,
        d=dist.d,
        sparse_s=sparse_s,
        epsilon=float(epsilon),
        delta=float(delta),
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
    if noise.kind in ("massart", "massart_band"):
        return "MNC"
    if noise.kind == "geometric_tsybakov":
        return "GTNC"
    raise InvalidInputError(f"unknown noise kind {noise.kind!r}")


# regime -> (noise kinds it applies to, its make_schedule parameters from (noise, A))
REGIME_PARAMS = {
    "MNC": (("massart", "massart_band"), lambda noise, A: {"eta": noise.eta}),
    "TNC": (("geometric_tsybakov",), lambda noise, A: {"A": A, "alpha": noise.alpha}),
    "GTNC": (("geometric_tsybakov",), lambda noise, A: {"B": noise.B, "alpha": noise.alpha}),
}


def schedule_for(noise, dist, epsilon, delta, profile, sparse_s=None, regime=None, A=None):
    """Schedule for a noise model; regime override needs A for plain-Tsybakov runs."""
    regime = regime or regime_for_noise(noise)
    if regime not in REGIME_PARAMS:
        raise InvalidInputError(f"unknown regime {regime!r}; choose from {REGIMES}")
    kinds, params = REGIME_PARAMS[regime]
    if noise.kind not in kinds:
        raise InvalidInputError(
            f"{regime} schedule needs noise of kind {' or '.join(kinds)}, got {noise.kind!r}"
        )
    return make_schedule(
        regime, dist, epsilon, delta, profile, sparse_s=sparse_s, **params(noise, A)
    )
