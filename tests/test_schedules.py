"""Deterministic schedule arithmetic: bandwidths, iteration counts, stage sizes."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import halfband as hb
from halfband.errors import InvalidInputError, UnsupportedRegimeError
from halfband.oracles import NOISE_KINDS
from halfband.schedules import (
    PROFILES,
    REGIMES,
    Profile,
    bandwidth,
    initial_target,
    iteration_count,
    proximity,
    regime_for_noise,
    regime_params,
)

GAUSS5 = hb.make_distribution("gaussian", 5)
GAUSS10 = hb.make_distribution("gaussian", 10)
ONES = Profile(c_b=1.0, c_T=1.0, c_alpha=1.0, c_eps=1.0, c_S=4.0)


def test_proximity_schedule():
    assert proximity(0) == 0.25
    assert proximity(3) == 4.0**-4


def test_profiles_frozen_values():
    desk = PROFILES["desk"]
    assert (desk.c_b, desk.c_T, desk.c_alpha, desk.c_eps, desk.c_S) == (
        4.0, 0.0625, 96.0, 16.0, 64.0)
    paper = PROFILES["paper-constants"]
    assert (paper.c_b, paper.c_T, paper.c_alpha, paper.c_eps, paper.c_S) == (
        1.0, 1.0, 1.0, 1.0, 4.0)


@pytest.mark.parametrize("value", [True, "2", None, [1.0]])
def test_profile_multipliers_must_be_real_numbers(value):
    with pytest.raises(InvalidInputError, match="multipliers.c_T must be a real number"):
        dataclasses.replace(PROFILES["desk"], c_T=value)
    # numpy scalars pass and are kept as given
    assert Profile(c_T=np.float32(0.5), c_S=np.int64(8)).c_S == 8


@pytest.mark.parametrize("field, value", [("c_S", 0.0), ("c_T", -1.0), ("c_b", math.nan)])
def test_profile_multipliers_must_be_positive(field, value):
    # c_S = 0 would give a selection sample of 0 points and NaN candidate risks
    with pytest.raises(InvalidInputError, match=f"multipliers.{field} must be positive"):
        dataclasses.replace(PROFILES["desk"], **{field: value})


def test_mnc_bandwidth_frozen_example():
    # min(r, (1-2 eta) r L/U) at eta=0.2, r=1/16; L/U = e^{-1/2}
    b = bandwidth("MNC", 1.0 / 16.0, GAUSS10, ONES, eta=0.2)
    assert b == pytest.approx(0.0375 * math.exp(-0.5), rel=1e-14)
    assert b == pytest.approx(0.022744899739223754, rel=1e-13)


def test_mnc_iteration_count_frozen_example():
    # ceil(10 ln(320)^3 (U/(0.6 L))^2), (U/(0.6L))^2 = e/0.36
    T = iteration_count("MNC", 1.0 / 16.0, GAUSS10, 0.05, ONES, GAUSS10.d, eta=0.2)
    oracle = math.ceil(10.0 * math.log(320.0) ** 3 * math.exp(1.0) / 0.36)
    assert T == oracle == 14493


def test_tnc_bandwidth_formula():
    r, A, alpha = 1.0 / 16.0, 1.0, 0.75
    L, R, U, beta = GAUSS5.L, GAUSS5.R, GAUSS5.U, GAUSS5.beta
    expected = min(r * R, (R * L / A) ** ((1 - alpha) / (2 * alpha - 1))
                   * (R * R * L * r / (U * beta)) ** (alpha / (2 * alpha - 1)))
    assert bandwidth("TNC", r, GAUSS5, ONES, A=A, alpha=alpha) == pytest.approx(
        min(expected, R / 2), rel=1e-12)


def test_gtnc_bandwidth_formula():
    r, B, alpha = 1.0 / 64.0, 1.0, 0.75
    L, R, U, beta = GAUSS5.L, GAUSS5.R, GAUSS5.U, GAUSS5.beta
    expected = min(R * L / (U * beta), 1.0) * min(R * r, B * (R * r) ** (1 / alpha))
    assert bandwidth("GTNC", r, GAUSS5, ONES, B=B, alpha=alpha) == pytest.approx(
        min(expected, R / 2), rel=1e-12)


def test_tnc_iteration_factor_formula():
    r, A, alpha = 1.0 / 16.0, 1.0, 0.75
    L, R, U, beta = GAUSS5.L, GAUSS5.R, GAUSS5.U, GAUSS5.beta
    term1 = (A / (beta * R * L * r)) ** ((2 - 2 * alpha) / (2 * alpha - 1)) * (
        U * beta**2 / (R * R * L)) ** (2 * alpha / (2 * alpha - 1))
    term2 = (A / (R * R * L * r)) ** ((2 - 2 * alpha) / alpha) * (
        U * beta**2 / (R * R * L)) ** 2
    d, delta = 5, 0.05
    oracle = math.ceil(d * math.log(1 / (delta * r)) ** 3 * max(term1, term2))
    assert iteration_count("TNC", r, GAUSS5, delta, ONES, d, A=A, alpha=alpha) == oracle


def test_gtnc_iteration_factor_formula():
    r, B, alpha = 1.0 / 16.0, 1.0, 0.75
    L, R, U, beta = GAUSS5.L, GAUSS5.R, GAUSS5.U, GAUSS5.beta
    term1 = (beta * beta * U / (R * R * L)) ** 2
    term2 = (beta * beta * U / (B * R * L)) ** 2 * R ** (-2 / alpha) * r ** (
        -(2 - 2 * alpha) / alpha)
    d, delta = 5, 0.05
    oracle = math.ceil(d * math.log(1 / (delta * r)) ** 3 * max(term1, term2))
    assert iteration_count("GTNC", r, GAUSS5, delta, ONES, d, B=B, alpha=alpha) == oracle


def test_initial_target_formulas():
    L, R = GAUSS5.L, GAUSS5.R
    assert initial_target("MNC", GAUSS5, ONES, eta=0.2) == pytest.approx(
        0.6 * L * R * R / 4.0, rel=1e-14)
    desk = PROFILES["desk"]
    assert initial_target("MNC", GAUSS5, desk, eta=0.2) == pytest.approx(
        16.0 * 0.6 * L / 4.0, rel=1e-14)
    # clipped at 1/2
    assert initial_target("MNC", GAUSS5, Profile(c_eps=1e6), eta=0.2) == 0.5
    A, alpha = 1.0, 0.75
    expected = (1 / (2 * A)) ** ((1 - alpha) / alpha) * (L * R * R / 4) ** (1 / alpha)
    assert initial_target("TNC", GAUSS5, ONES, A=A, alpha=alpha) == pytest.approx(
        expected, rel=1e-12)
    B = 1.0
    P = L * R * R / 4
    expected = B * (P / 3) ** (1 / alpha) * (
        12 * GAUSS5.U * GAUSS5.beta * math.log(9 / P)) ** (-(1 - alpha) / alpha)
    assert initial_target("GTNC", GAUSS5, ONES, B=B, alpha=alpha) == pytest.approx(
        expected, rel=1e-12)


def test_make_schedule_epoch_counts_frozen():
    sched = hb.make_schedule("MNC", GAUSS10, 0.1, 0.05, PROFILES["desk"], eta=0.2)
    # r_eps = eps/(32 U ln^2(12/eps)), k_eps = ceil(log4(1/r_eps))
    r_eps = 0.1 / (32.0 * GAUSS10.U * math.log(120.0) ** 2)
    assert sched.r_eps == pytest.approx(r_eps, rel=1e-12)
    assert sched.r_eps == pytest.approx(0.0008566705044037207, rel=1e-12)
    assert sched.k_eps == 6 == math.ceil(math.log(1.0 / r_eps, 4.0))
    eps0 = min(0.5, 16.0 * 0.6 * GAUSS10.L / 4.0)
    assert sched.eps0 == pytest.approx(eps0, rel=1e-12)
    r0 = eps0 / (64.0 * GAUSS10.U * math.log(24.0 / eps0) ** 2)
    assert sched.r0 == pytest.approx(r0, rel=1e-12)
    assert sched.k0 == 5 == math.ceil(math.log(1.0 / r0, 4.0))
    assert sched.N == 44 == math.ceil(10.0 * math.log(4.0 / 0.05))
    assert sched.m == math.ceil(64.0 * math.log(44.0 / 0.05) / eps0**2)


def test_make_schedule_desk_totals_frozen():
    sched = hb.make_schedule("MNC", GAUSS10, 0.1, 0.05, PROFILES["desk"], eta=0.2)
    assert sched.init_label_total() == 774785
    assert sched.main_label_total() == 26694
    assert sched.total_label_budget() == 801479
    assert sched.iterations[1:] == (906, 1729, 2941, 4617, 6834, 9667)
    small = hb.make_schedule("MNC", GAUSS5, 0.3, 0.05, PROFILES["desk"], eta=0.1)
    assert small.k0 == 5 and small.k_eps == 4
    assert small.init_label_total() == 220280
    assert small.main_label_total() == 2868
    assert small.total_label_budget() == 223148


def test_paper_constants_initial_target():
    sched = hb.make_schedule("MNC", GAUSS10, 0.1, 0.05, PROFILES["paper-constants"], eta=0.2)
    assert sched.eps0 == pytest.approx(0.6 * GAUSS10.L / 4.0, rel=1e-14)
    assert sched.eps0 == pytest.approx(0.014479852894508087, rel=1e-12)
    assert sched.m == math.ceil(4.0 * math.log(44.0 / 0.05) / sched.eps0**2)


def test_schedule_structure_invariants():
    for regime, params in (
        ("MNC", {"eta": 0.3}),
        ("TNC", {"A": 1.0, "alpha": 0.75}),
        ("GTNC", {"B": 1.0, "alpha": 0.75}),
    ):
        sched = hb.make_schedule(regime, GAUSS10, 0.05, 0.05, PROFILES["desk"], **params)
        bws = np.array(sched.bandwidths)
        assert np.all(bws[1:] <= bws[:-1] + 1e-15)
        assert np.all(bws > 0) and np.all(bws <= GAUSS10.R / 2 + 1e-15)
        assert all(t >= 1 for t in sched.iterations)
        assert len(sched.bandwidths) == len(sched.iterations) == max(sched.k0, sched.k_eps) + 1
        total = sched.N * sum(sched.iterations[: sched.k0 + 1]) + sched.m
        assert sched.init_label_total() == total
        assert sched.main_label_total() == sum(sched.iterations[1 : sched.k_eps + 1])


def test_tnc_alpha_domain():
    with pytest.raises(UnsupportedRegimeError):
        hb.make_schedule("TNC", GAUSS5, 0.1, 0.05, PROFILES["desk"], A=1.0, alpha=0.5)
    with pytest.raises(UnsupportedRegimeError):
        hb.make_schedule("TNC", GAUSS5, 0.1, 0.05, PROFILES["desk"], A=1.0, alpha=0.3)
    sched = hb.make_schedule("TNC", GAUSS5, 0.1, 0.05, PROFILES["desk"], A=1.0, alpha=1.0)
    assert sched.k_eps >= 1
    # every power of A in the TNC formulas has an exponent with the factor 1 - alpha, so at
    # alpha = 1 regime_params' stand-in A = 1 builds the schedule any other A builds
    assert hb.schedule_for(hb.geometric_tsybakov(2.0, 1.0), GAUSS5, 0.1, 0.05,
                           PROFILES["desk"], regime="TNC") == sched
    for A in (8.0, 1e300):
        other = hb.make_schedule("TNC", GAUSS5, 0.1, 0.05, PROFILES["desk"], A=A, alpha=1.0)
        assert dataclasses.replace(other, params=sched.params) == sched


def test_epsilon_delta_domains():
    with pytest.raises(InvalidInputError):
        hb.make_schedule("MNC", GAUSS5, 1.2, 0.05, PROFILES["desk"], eta=0.2)
    with pytest.raises(InvalidInputError):
        hb.make_schedule("MNC", GAUSS5, 0.1, 0.2, PROFILES["desk"], eta=0.2)
    with pytest.raises(InvalidInputError):
        hb.make_schedule("MNC", GAUSS5, 0.1, 0.05, PROFILES["desk"], eta=0.6)


def test_regime_for_noise_mapping():
    assert regime_for_noise(hb.massart(0.1)) == "MNC"
    assert regime_for_noise(hb.massart_band(0.1, 1.0)) == "MNC"
    assert regime_for_noise(hb.geometric_tsybakov(1.0, 0.75)) == "GTNC"
    # REGIMES names each noise kind's default regime once; NOISE_KINDS holds only fields
    defaults = [kind for _, kinds in REGIMES.values() for kind in kinds]
    assert sorted(defaults) == sorted(NOISE_KINDS)
    assert {f for fields in NOISE_KINDS.values() for f in fields} == {"eta", "tau", "B", "alpha"}


def test_schedule_for_regime_override():
    sched = hb.schedule_for(
        hb.geometric_tsybakov(1.0, 0.75), GAUSS5, 0.1, 0.05, PROFILES["desk"], regime="TNC")
    assert sched.regime == "TNC"
    # TNC's A is derived from the noise, as the lemma suite's: 2^3 > 2 f0 at (B, alpha) = (1, 0.75)
    assert sched.params == {"A": 8.0, "alpha": 0.75}
    assert regime_params("TNC", hb.geometric_tsybakov(1.0, 0.75), GAUSS5) == sched.params
    with pytest.raises(InvalidInputError):
        hb.schedule_for(hb.massart(0.1), GAUSS5, 0.1, 0.05, PROFILES["desk"],
                        regime="GTNC")


def test_schedule_for_names_the_regime_it_rejects():
    with pytest.raises(InvalidInputError, match="unknown regime 'XYZ'"):
        hb.schedule_for(hb.massart(0.1), GAUSS5, 0.1, 0.05, PROFILES["desk"], regime="XYZ")
    with pytest.raises(InvalidInputError, match="TNC schedule needs noise of kind"):
        hb.schedule_for(hb.massart(0.1), GAUSS5, 0.1, 0.05, PROFILES["desk"], regime="TNC")
    assert issubclass(UnsupportedRegimeError, InvalidInputError)


@pytest.mark.parametrize(
    "profile, dist",
    [
        (Profile(c_T=1e308), GAUSS5),  # iteration counts overflow to inf
        (Profile(c_S=1e308, c_eps=1e-300), GAUSS5),  # selection size m overflows
        # make_distribution rejects constants this small; a replaced model still reaches
        # the schedule, which must reject it on its own
        (PROFILES["desk"], dataclasses.replace(GAUSS5, L=1e-301, U=1e-300, beta=1e-10)),
    ],
    ids=["c_T", "m", "tiny-constants"],
)
def test_schedule_overflow_is_invalid_input(profile, dist):
    with pytest.raises(InvalidInputError, match="schedule arithmetic fails"):
        hb.make_schedule("MNC", dist, 0.1, 0.05, profile, eta=0.2)


def test_gtnc_target_needs_log_argument_above_one():
    wide = hb.make_distribution("gaussian", 5, params=(0.05, 30.0, 0.2, 1.0))  # L R^2 = 45
    with pytest.raises(InvalidInputError, match="L R\\^2 < 36"):
        hb.make_schedule("GTNC", wide, 0.1, 0.05, PROFILES["desk"], B=1.0, alpha=0.75)


def test_sparse_dim_factor_replaces_d():
    d, s = 100, 5
    dist = hb.make_distribution("gaussian", d)
    sparse = hb.make_schedule("MNC", dist, 0.1, 0.05, PROFILES["desk"], eta=0.1, sparse_s=s)
    dense = hb.make_schedule("MNC", dist, 0.1, 0.05, PROFILES["desk"], eta=0.1)
    assert sparse.dim_factor == pytest.approx(s * math.log(d), rel=1e-14)
    profile = PROFILES["desk"]
    for j, T in enumerate(sparse.iterations):
        oracle = iteration_count("MNC", proximity(j), dist, 0.05, profile,
                                 s * math.log(d), eta=0.1)
        assert T == oracle
    assert sparse.total_label_budget() < dense.total_label_budget()


def test_sparse_requires_d_at_least_three():
    with pytest.raises(InvalidInputError):
        hb.make_schedule("MNC", hb.make_distribution("gaussian", 2), 0.1, 0.05,
                         PROFILES["desk"], eta=0.1, sparse_s=1)


def test_sparse_support_at_most_d():
    dist = hb.make_distribution("gaussian", 5)
    hb.make_schedule("MNC", dist, 0.1, 0.05, PROFILES["desk"], eta=0.1, sparse_s=5)
    # an np.int64 sparse_s builds the int's schedule; 2.5, a bool and a float 2.0 are no integers
    wide = hb.make_schedule("MNC", dist, 0.1, 0.05, PROFILES["desk"], eta=0.1, sparse_s=np.int64(2))
    assert wide == hb.make_schedule("MNC", dist, 0.1, 0.05, PROFILES["desk"], eta=0.1, sparse_s=2)
    assert type(wide.sparse_s) is int
    for s in (6, 2.5, True, np.float64(2.0)):
        with pytest.raises(InvalidInputError, match="sparse_s"):
            hb.make_schedule("MNC", dist, 0.1, 0.05, PROFILES["desk"], eta=0.1, sparse_s=s)


SCHEDULE_PARAMS = {"MNC": {"eta": 0.1}, "TNC": {"A": 1.0, "alpha": 0.75},
                   "GTNC": {"B": 1.0, "alpha": 0.75}}


@pytest.mark.parametrize("regime, name, value", [
    ("MNC", "epsilon", "0.1"), ("MNC", "delta", "0.05"), ("MNC", "eta", False),
    ("MNC", "eta", "0.1"), ("TNC", "A", True), ("GTNC", "alpha", True), ("GTNC", "B", "1"),
])
def test_make_schedule_takes_only_real_numbers(regime, name, value):
    args = {"epsilon": 0.1, "delta": 0.05, **SCHEDULE_PARAMS[regime]}
    with pytest.raises(InvalidInputError, match=f"{name} must be a real number"):
        hb.make_schedule(regime, GAUSS5, profile=PROFILES["desk"], **{**args, name: value})
    # numpy reals and integers pass, and build the schedule of the same floats
    numpy_args = {k: np.int64(v) if v == 1.0 else np.float64(v) for k, v in args.items()}
    schedule = hb.make_schedule(regime, GAUSS5, profile=PROFILES["desk"], **numpy_args)
    assert schedule == hb.make_schedule(regime, GAUSS5, profile=PROFILES["desk"], **args)
    values = (schedule.epsilon, schedule.delta, *schedule.params.values())
    assert all(type(v) is float for v in values)


@given(st.floats(0.01, 0.45), st.sampled_from([0.1, 0.2, 0.3, 0.4]), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_mnc_bandwidth_positive_and_clipped(eps, eta, j):
    b = bandwidth("MNC", proximity(j), GAUSS10, PROFILES["desk"], eta=eta)
    assert 0.0 < b <= GAUSS10.R / 2 + 1e-15
