"""Vector geometry: normalization conventions, angles, projections, hard threshold."""

import itertools
import math

import numpy as np
import pytest
from admm_reference import project_l2_ball
from hypothesis import given, settings
from hypothesis import strategies as st

import halfband as hb
from halfband.cli import parse_spec
from halfband.errors import InvalidInputError

RNG = np.random.default_rng(90210)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def test_normalize_returns_unit_vector():
    w = np.array([3.0, -4.0])
    out = hb.normalize(w)
    assert math.isclose(float(np.linalg.norm(out)), 1.0, rel_tol=1e-12)
    assert np.allclose(out, [0.6, -0.8])


def test_normalize_zero_is_first_basis_vector():
    out = hb.normalize(np.zeros(4))
    assert np.array_equal(out, np.array([1.0, 0.0, 0.0, 0.0]))


def test_normalize_rejects_non_finite():
    with pytest.raises(InvalidInputError):
        hb.normalize(np.array([1.0, np.nan]))
    with pytest.raises(InvalidInputError):
        hb.normalize(np.array([np.inf, 0.0]))


def test_normalize_power_of_two_scaling_is_bit_exact():
    # scaling by 2 changes neither the norm ratio nor any quotient bit
    w = RNG.standard_normal(7)
    assert np.array_equal(hb.normalize(2.0 * w), hb.normalize(w))


def test_angle_examples():
    e1, e2 = np.eye(2)
    assert math.isclose(hb.angle(e1, e2), math.pi / 2, rel_tol=1e-12)
    assert hb.angle(e1, e1) == 0.0
    assert math.isclose(hb.angle(e1, -e1), math.pi, rel_tol=1e-12)


def test_angle_rejects_zero_vector():
    with pytest.raises(InvalidInputError):
        hb.angle(np.zeros(3), np.ones(3))


@pytest.mark.parametrize("call, args, message", [
    (hb.angle, ([np.inf, 0.0], [1.0, 0.0]), "angle: u must be finite"),
    (hb.angle, ([1.0, 0.0], [np.nan, 0.0]), "angle: v must be finite"),
    (hb.angle, (np.ones(3), np.ones(2)), r"angle: v must be an array of shape \(3,\), got shape \(2,\)"),
    (hb.angle, ([[1.0, 0.0]], [1.0, 0.0]), r"angle: u must be an array of shape \(K,\)"),
    (hb.angle, (["a", "b"], [1.0, 0.0]), "angle: u must be an array of numbers"),
    (hb.normalize, ([[1.0, 2.0], [3.0, 4.0]],), r"normalize: w must be an array of shape \(K,\)"),
    (hb.normalize, (3.0,), r"normalize: w must be an array of shape \(K,\), got shape \(\)"),
    (hb.normalize, ([],), "normalize: w must not be empty"),
    (hb.hard_threshold, (np.ones((2, 3)), 1), r"hard_threshold: w must be an array of shape \(K,\)"),
    (hb.hard_threshold, ([np.inf, 1.0, 2.0], 1), "hard_threshold: w must be finite"),
], ids=["angle-inf", "angle-nan", "angle-lengths", "angle-matrix", "angle-text",
        "normalize-matrix", "normalize-scalar", "normalize-empty", "threshold-matrix",
        "threshold-inf"])
def test_vector_arguments_are_checked(call, args, message):
    # malformed vectors raise the package's typed error, never a raw numpy error,
    # a nan, or a silently reshaped result
    with pytest.raises(InvalidInputError, match=message):
        call(*args)


def test_angle_l2_inequalities_zero_violations():
    # (i) ||normalize(w) - u|| <= 2||w - u||, (ii) angle(w,u) <= pi ||w - u||,
    # (iii) unit w: ||w - u|| <= angle(w,u); u unit throughout
    rng = np.random.default_rng(3141)
    violations = 0
    for _ in range(10**4):
        d = int(rng.integers(2, 9))
        u = unit(rng.standard_normal(d))
        w = rng.standard_normal(d) * float(rng.uniform(0.05, 3.0))
        gap = float(np.linalg.norm(w - u))
        if float(np.linalg.norm(hb.normalize(w) - u)) > 2.0 * gap + 1e-12:
            violations += 1
        if hb.angle(w, u) > math.pi * gap + 1e-12:
            violations += 1
        w_unit = unit(w)
        if float(np.linalg.norm(w_unit - u)) > hb.angle(w_unit, u) + 1e-12:
            violations += 1
    assert violations == 0


def test_project_l2_ball_contract():
    # the tests' reference projection (the package inlines its ball clip)
    center = np.array([1.0, 1.0, 0.0])
    inside = center + np.array([0.05, 0.0, 0.0])
    assert np.array_equal(project_l2_ball(inside, center, 0.1), inside)
    far = center + np.array([3.0, 0.0, 0.0])
    out = project_l2_ball(far, center, 0.5)
    assert np.linalg.norm(out - center) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(InvalidInputError):
        project_l2_ball(far, center, 0.0)


def test_hard_threshold_examples():
    assert np.array_equal(hb.hard_threshold(np.array([3.0, -5.0, 1.0]), 1), [0.0, -5.0, 0.0])
    # tie on |2| and |-2|: lowest index wins
    assert np.array_equal(hb.hard_threshold(np.array([2.0, -2.0, 0.0]), 1), [2.0, 0.0, 0.0])


@pytest.mark.parametrize("s", [True, 2.5, np.float64(2.0), "2"])
def test_hard_threshold_s_must_be_an_integer(s):
    w = np.array([3.0, -5.0, 1.0])
    with pytest.raises(InvalidInputError, match="hard_threshold: s must be an integer at least 1"):
        hb.hard_threshold(w, s)
    assert np.array_equal(hb.hard_threshold(w, np.int64(2)), hb.hard_threshold(w, 2))


@pytest.mark.parametrize("value, shown", [
    (-10**5000, "a negative integer of 5001 digits"),
    (-(10**5000 - 1), "a negative integer of 5000 digits"),
    (-10**50, "a negative integer of 51 digits"),
    (-(10**50 - 1), f"{-(10**50 - 1)}"),  # 50 digits: shown as they are
    ([10**5000], "a list too large to show"),
], ids=["5001-digits", "5000-digits", "51-digits", "50-digits", "list"])
def test_huge_int_argument_is_a_typed_error(value, shown):
    # Python will not turn an int of more than 4,300 digits into a string, so the
    # message describes a long int by its sign and length instead of printing it
    with pytest.raises(InvalidInputError, match=f"s must be an integer at least 1, got {shown}$"):
        hb.hard_threshold(np.ones(3), value)
    with pytest.raises(InvalidInputError, match=f"dimension d must be an integer in .*, got {shown}$"):
        hb.make_ground_truth(value, np.random.default_rng(0))
    with pytest.raises(InvalidInputError, match="d must be an integer in .*, got an integer of 5001"):
        hb.make_ground_truth(10**5000, np.random.default_rng(0))
    with pytest.raises(InvalidInputError, match="must be a real number, got a list too large"):
        hb.massart([10**5000])


def test_hard_threshold_s_at_least_d_copies():
    w = np.array([1.0, -2.0])
    out = hb.hard_threshold(w, 5)
    assert np.array_equal(out, w)
    out[0] = 9.0
    assert w[0] == 1.0  # returned a copy


def test_hard_threshold_matches_exhaustive_best_subset():
    # HT(w, s) is the closest s-sparse vector; verify against all supports
    rng = np.random.default_rng(77)
    for _ in range(200):
        d = int(rng.integers(2, 9))
        s = int(rng.integers(1, 4))
        w = rng.standard_normal(d)
        out = hb.hard_threshold(w, s)
        best = math.inf
        for support in itertools.combinations(range(d), min(s, d)):
            z = np.zeros(d)
            z[list(support)] = w[list(support)]
            best = min(best, float(np.linalg.norm(w - z)))
        assert float(np.linalg.norm(w - out)) == pytest.approx(best, abs=1e-12)
        assert np.count_nonzero(out) <= s


@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_normalize_parallel_and_unit(d, seed):
    w = np.random.default_rng(seed).standard_normal(d)
    out = hb.normalize(w)
    assert math.isclose(float(np.linalg.norm(out)), 1.0, rel_tol=1e-9)
    cross = np.outer(w, out) - np.outer(out, w)
    assert np.max(np.abs(cross)) <= 1e-9 * max(1.0, float(np.max(np.abs(w))))


@given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.floats(0.01, 100.0))
@settings(max_examples=60, deadline=None)
def test_angle_symmetric_and_scale_invariant(d, seed, scale):
    rng = np.random.default_rng(seed)
    u, v = rng.standard_normal(d), rng.standard_normal(d)
    assert hb.angle(u, v) == pytest.approx(hb.angle(v, u), abs=1e-12)
    assert hb.angle(scale * u, v) == pytest.approx(hb.angle(u, v), abs=1e-9)
    assert 0.0 <= hb.angle(u, v) <= math.pi


def test_int_too_large_for_a_float_is_a_typed_error_naming_the_argument():
    huge = 10**400
    gauss5 = hb.make_distribution("gaussian", 5)
    truth = hb.make_ground_truth(5, np.random.default_rng(0))
    calls = {
        "eta": lambda: hb.massart(huge),
        "params[0]": lambda: hb.make_distribution("gaussian", 5, params=(huge, 1, 1, 1)),
        "multipliers.c_T": lambda: hb.Profile(c_T=huge),
        "exact_tsybakov_A: B": lambda: hb.exact_tsybakov_A(huge, 0.75, gauss5),
        "w": lambda: hb.estimate_psi([huge, 0, 0, 0, 0], 0.1, gauss5, hb.massart(0.2), truth,
                                     10, np.random.default_rng(1)),
        "real: x": lambda: hb.geometry.real("real: x", huge),
        "finite_array: a": lambda: hb.geometry.finite_array("finite_array: a", [[1.0, -huge]],
                                                            (1, 2)),
    }
    for name, call in calls.items():
        with pytest.raises(InvalidInputError) as caught:
            call()
        assert str(caught.value).startswith(name + " must be")


def _rng_entries():
    """Each public entry that draws, called with `bad` where it takes a generator.

    An entry that takes a block of streams gets [good, bad], so a draw from good
    before the check would show.
    """
    dist = hb.make_distribution("gaussian", 5)
    truth = hb.make_ground_truth(5, np.random.default_rng(0))
    noise = hb.massart(0.2)
    desk = hb.PROFILES["desk"]
    w = truth.w_star
    epoch = (1 / 16, 0.3, 5)
    return {
        "optimize": lambda bad, good, ledger: hb.optimize(
            np.zeros(5), *epoch, "average", dist, noise, truth, bad, ledger, 0.05, desk),
        "optimize_block": lambda bad, good, ledger: hb.learner.optimize_block(
            np.zeros((2, 5)), *epoch, "random", dist, noise, truth, [good, bad], ledger, 0.05,
            desk),
        # the streams container itself: bad in place of the list, or one bare Generator
        "optimize_block_streams": lambda bad, good, ledger: hb.learner.optimize_block(
            np.zeros((1, 5)), *epoch, "random", dist, noise, truth, bad, ledger, 0.05, desk),
        "optimize_block_bare_stream": lambda bad, good, ledger: hb.learner.optimize_block(
            np.zeros((1, 5)), *epoch, "random", dist, noise, truth, good, ledger, 0.05, desk),
        "initialize": lambda bad, good, ledger: hb.initialize(
            hb.schedule_for(noise, dist, 0.45, 0.05, desk), dist, noise, truth, bad, ledger),
        "BandSampler": lambda bad, good, ledger: hb.BandSampler(dist, 0.3, bad, ledger),
        "LockstepBandSampler": lambda bad, good, ledger: hb.oracles.LockstepBandSampler(
            dist, 0.3, [good, bad], ledger, 5),
        "make_ground_truth": lambda bad, good, ledger: hb.make_ground_truth(5, bad),
        "sample": lambda bad, good, ledger: hb.sample(dist, bad, 3),
        "estimate_psi": lambda bad, good, ledger: hb.estimate_psi(
            w, 0.3, dist, noise, truth, 10, bad),
        "excess_error": lambda bad, good, ledger: hb.excess_error(
            w, dist, noise, truth, rng=bad, n=10, method="mc"),
        "certify_parameters": lambda bad, good, ledger: hb.certify_parameters(dist, bad, 10),
        "verify_lemma_suite": lambda bad, good, ledger: hb.verify_lemma_suite(
            dist, truth, bad, samples=10),
    }


@pytest.mark.parametrize("bad", [None, 7, np.random.RandomState(0)],
                         ids=["None", "int", "RandomState"])
@pytest.mark.parametrize("entry", sorted(_rng_entries()))
def test_non_generator_rng_is_a_typed_error_before_any_draw(entry, bad):
    # geometry.generator: an rng that is not a numpy Generator is an InvalidInputError,
    # raised before any draw or charge
    good = np.random.default_rng(5)
    state = good.bit_generator.state
    ledger = hb.QueryLedger(label_calls=7, ex_calls=3)
    with pytest.raises(InvalidInputError):
        _rng_entries()[entry](bad, good, ledger)
    assert ledger == hb.QueryLedger(label_calls=7, ex_calls=3)
    assert good.bit_generator.state == state


def _size_entries():
    """Each public entry that takes a count of samples or steps, called with `big` there.

    `good` is the entry's generator (a block's one stream) and `ledger` its ledger,
    where it takes them.
    """
    dist = hb.make_distribution("gaussian", 5)
    truth = hb.make_ground_truth(5, np.random.default_rng(0))
    noise = hb.massart(0.2)
    desk = hb.PROFILES["desk"]
    w = truth.w_star
    cfg = {"seed": 1, "dist": {"family": "gaussian", "d": 5},
           "noise": {"kind": "massart", "eta": 0.2}}
    return {
        "estimate_psi_n": lambda big, good, ledger: hb.estimate_psi(
            w, 0.3, dist, noise, truth, big, good),
        "excess_error_n": lambda big, good, ledger: hb.excess_error(
            w, dist, noise, truth, rng=good, n=big, method="mc"),
        "sample_n": lambda big, good, ledger: hb.sample(dist, good, big),
        "certify_parameters_samples": lambda big, good, ledger: hb.certify_parameters(
            dist, good, big),
        "verify_lemma_suite_samples": lambda big, good, ledger: hb.verify_lemma_suite(
            dist, truth, good, samples=big),
        "optimize_T": lambda big, good, ledger: hb.optimize(
            np.zeros(5), 1 / 16, 0.3, big, "average", dist, noise, truth, good, ledger, 0.05,
            desk),
        "optimize_block_T": lambda big, good, ledger: hb.learner.optimize_block(
            np.zeros((1, 5)), 1 / 16, 0.3, big, "random", dist, noise, truth, [good], ledger,
            0.05, desk),
        "BandSampler_steps": lambda big, good, ledger: hb.BandSampler(
            dist, 0.3, good, ledger, steps=big),
        "LockstepBandSampler_steps": lambda big, good, ledger: hb.oracles.LockstepBandSampler(
            dist, 0.3, [good], ledger, big),
        "config_verify_samples": lambda big, good, ledger: parse_spec(
            {**cfg, "verify_samples": big}, "verify"),
        "config_excess_mc_samples": lambda big, good, ledger: parse_spec(
            {**cfg, "excess_mc_samples": big}, "run"),
        "config_replicates": lambda big, good, ledger: parse_spec(
            {**cfg, "replicates": big}, "run"),
    }


@pytest.mark.parametrize("big", [2**53 + 1, 10**400], ids=["2^53+1", "10^400"])
@pytest.mark.parametrize("entry", sorted(_size_entries()))
def test_a_count_above_the_float_exact_cap_is_a_typed_error_before_any_draw(entry, big):
    # geometry.MAX_COUNT = 2^53 caps every count, as distributions.MAX_D caps d: a larger
    # one would only run until stopped (estimate_psi at n = 10**400 walks n / CHUNK chunks)
    assert hb.geometry.MAX_COUNT == hb.distributions.MAX_D == 2**53
    good = np.random.default_rng(5)
    state = good.bit_generator.state
    ledger = hb.QueryLedger(label_calls=7, ex_calls=3)
    with pytest.raises(InvalidInputError, match=r"in \[\d, 9007199254740992\]"):
        _size_entries()[entry](big, good, ledger)
    assert ledger == hb.QueryLedger(label_calls=7, ex_calls=3)
    assert good.bit_generator.state == state


def _choice_sites():
    """Each argument that names a row of a table, called with a list in place of the name."""
    dist = hb.make_distribution("gaussian", 5)
    truth = hb.make_ground_truth(5, np.random.default_rng(0))
    noise = hb.massart(0.2)
    desk = hb.PROFILES["desk"]
    cfg = {"seed": 1, "dist": {"family": "gaussian", "d": 5},
           "noise": {"kind": "massart", "eta": 0.2}}
    return {  # site -> (the argument's name in the message, the call)
        "make_distribution": ("family", lambda: hb.make_distribution(["gaussian"], 5)),
        "NoiseModel": ("noise kind", lambda: hb.NoiseModel(["massart"], eta=0.2)),
        "optimize": ("aggregation", lambda: hb.optimize(
            np.zeros(5), 1 / 16, 0.3, 5, ["average"], dist, noise, truth,
            np.random.default_rng(1), hb.QueryLedger(), 0.05, desk)),
        "excess_error": ("excess method", lambda: hb.excess_error(
            truth.w_star, dist, noise, truth, method=["exact"])),
        "config_regime": ("regime", lambda: parse_spec({**cfg, "regime": ["MNC"]},
                                                       "preview-schedule")),
        "make_schedule": ("regime", lambda: hb.make_schedule(["MNC"], dist, 0.1, 0.05, desk,
                                                             eta=0.2)),
        "schedule_for": ("regime", lambda: hb.schedule_for(noise, dist, 0.1, 0.05, desk,
                                                           regime=["MNC"])),
        "config_profile": ("profile", lambda: parse_spec({**cfg, "profile": ["desk"]},
                                                         "preview-schedule")),
        "config_sweep_axis": ("sweep.axis", lambda: parse_spec(
            {**cfg, "sweep": {"axis": ["eta"], "values": [0.1, 0.2, 0.3]}}, "sweep")),
    }


@pytest.mark.parametrize("site", sorted(_choice_sites()))
def test_a_choice_that_is_not_a_name_is_a_typed_error_naming_the_argument(site):
    # geometry.choice: a value that is not a str naming one of the table's rows (here a
    # list, which no dict lookup can hash) is an InvalidInputError in one format
    name, call = _choice_sites()[site]
    with pytest.raises(InvalidInputError) as caught:
        call()
    message = str(caught.value)
    assert message.startswith(f"unknown {name} [") and "; choose from " in message
