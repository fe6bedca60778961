"""Epoch optimizer, initialization, full learner: contracts and accounting."""

import copy
import dataclasses
import itertools
import json
import math
import os
import signal
import threading
import time
import tracemalloc

import dense_reference
import numpy as np
import pytest
from admm_reference import project_l2_ball

import halfband as hb
from halfband import learner, oracles, sparse
from halfband.errors import BandTooThinError, InvalidInputError, NumericalError
from halfband.learner import (
    _projected_step,
    erm_select,
    optimize_block,
    step_size,
    warm_start_trials,
)
from halfband.oracles import LockstepBandSampler, halfspace_labels
from halfband.schedules import PROFILES, bandwidth, iteration_count

GAUSS5 = hb.make_distribution("gaussian", 5)
DESK = PROFILES["desk"]
NOISE = hb.massart(0.1)


def make_start(truth, r, rng):
    # a point at exact distance 4r from w*, orthogonal offset
    u = rng.standard_normal(truth.w_star.shape[0])
    u -= (u @ truth.w_star) * truth.w_star
    return truth.w_star + 4.0 * r * (u / np.linalg.norm(u))


def test_step_size_formula():
    r, b, T, d, delta = 1 / 16, 0.12, 255, 5, 0.05
    expected = DESK.c_alpha * (r / GAUSS5.beta) * math.sqrt(1.0 / (d * T)) / math.log(
        T * d / (delta * r * b * GAUSS5.R * GAUSS5.L))
    assert step_size(r, b, T, d, GAUSS5, delta, DESK) == pytest.approx(expected, rel=1e-12)
    dist20 = hb.make_distribution("gaussian", 20)
    sparse = step_size(r, b, T, 20, dist20, delta, DESK, sparse_s=3)
    expected_sparse = DESK.c_alpha * (r / dist20.beta) * math.sqrt(
        3 * math.log(20) / T) / math.log(T * 20 / (delta * r * b * dist20.R * dist20.L))
    assert sparse == pytest.approx(expected_sparse, rel=1e-12)


def test_optimize_single_step_average_is_normalized_start():
    rng = np.random.default_rng(21)
    truth = hb.make_ground_truth(5, rng)
    w1 = make_start(truth, 1 / 16, rng)
    ledger = hb.QueryLedger()
    out = hb.optimize(w1, 1 / 16, 0.1, 1, "average", GAUSS5, NOISE, truth, rng, ledger,
                      0.05, DESK)
    assert np.array_equal(out, hb.normalize(w1))
    assert ledger.label_calls == 1


def record_directions(monkeypatch):
    """List that collects the unit direction of every band point optimize completes, in order.

    optimize's scalar epoch samples around, aggregates and returns exactly
    these directions; it completes each point through learner.complete_band_point.
    """
    seen = []
    complete = learner.complete_band_point

    def recording_complete(w_hat, *rest):
        seen.append(w_hat.copy())
        return complete(w_hat, *rest)

    monkeypatch.setattr(learner, "complete_band_point", recording_complete)
    return seen


def test_optimize_exact_label_count_and_feasibility(monkeypatch):
    rng = np.random.default_rng(22)
    truth = hb.make_ground_truth(5, rng)
    r = 1 / 16
    w1 = make_start(truth, r, rng)
    ledger = hb.QueryLedger()
    seen = record_directions(monkeypatch)
    hb.optimize(w1, r, 0.1, 64, "average", GAUSS5, NOISE, truth, rng, ledger, 0.05, DESK)
    assert ledger.label_calls == 64
    assert ledger.ex_calls >= 64
    assert ledger.max_feasibility_gap <= 1e-9
    assert len(seen) == 64
    # an iterate inside ball2(w1, 4r) points within asin(4r/|w1|) of w1
    cone = math.asin(4 * r / float(np.linalg.norm(w1)))
    for w_hat in seen:
        assert hb.angle(w_hat, w1) <= cone + 1e-9


def test_optimize_random_aggregation_returns_signed_iterate(monkeypatch):
    rng = np.random.default_rng(23)
    truth = hb.make_ground_truth(5, rng)
    r = 1 / 16
    w1 = make_start(truth, r, rng)
    # a "random" epoch runs as a one-row lockstep block, which draws through points()
    seen = []
    points = LockstepBandSampler.points

    def recording_points(self, i, W_hat, out):
        seen.append(W_hat[0].copy())
        return points(self, i, W_hat, out)

    monkeypatch.setattr(LockstepBandSampler, "points", recording_points)
    out = hb.optimize(w1, r, 0.1, 5, "random", GAUSS5, NOISE, truth,
                      np.random.default_rng(23), hb.QueryLedger(), 0.05, DESK)
    assert len(seen) == 5
    assert any(np.array_equal(out, sign * w_hat) for w_hat in seen for sign in (1.0, -1.0))
    assert float(np.linalg.norm(out)) == pytest.approx(1.0, rel=1e-12)


def test_optimize_validation():
    rng = np.random.default_rng(24)
    truth = hb.make_ground_truth(5, rng)
    w1 = make_start(truth, 1 / 16, rng)
    with pytest.raises(InvalidInputError):
        hb.optimize(w1, 0.3, 0.1, 4, "average", GAUSS5, NOISE, truth, rng,
                    hb.QueryLedger(), 0.05, DESK)  # r > 1/4
    with pytest.raises(InvalidInputError):
        hb.optimize(w1, 1 / 16, 0.6, 4, "average", GAUSS5, NOISE, truth, rng,
                    hb.QueryLedger(), 0.05, DESK)  # b > R/2
    with pytest.raises(InvalidInputError):
        hb.optimize(w1, 1 / 16, 0.1, 0, "average", GAUSS5, NOISE, truth, rng,
                    hb.QueryLedger(), 0.05, DESK)
    with pytest.raises(InvalidInputError):
        hb.optimize(w1, 1 / 16, 0.1, 4, "mode", GAUSS5, NOISE, truth, rng,
                    hb.QueryLedger(), 0.05, DESK)


# malformed sparse_s values, each tried on optimize and, with the suffix -W1, on optimize_block
BAD_SPARSE_S = {"fractional-s": 2.5, "bool-s": True, "large-s": 40}


# malformed real arguments of optimize: r, b and delta, and structure constants that
# make the step size negative (log argument below 1) or divide by an underflowed zero
BAD_REALS = {
    "str-r": {"r": "0.0625"},
    "str-b": {"b": "0.1"},
    "str-delta": {"delta": "0.05"},
    "nan-delta": {"delta": float("nan")},
    "zero-delta": {"delta": 0.0},
    "inf-delta": {"delta": float("inf")},
    "one-delta": {"delta": 1.0},
    "negative-step": {"dist": hb.make_distribution("gaussian", 5, (1e50, 1e50, 1e100, 1.0))},
    "underflow-step": {"delta": 1e-300,
                       "dist": hb.make_distribution("gaussian", 5, (1e-100, 1.0, 0.15, 1.0))},
}


def _epoch_call(case):
    """The epoch function, arguments, delta and sparse_s of one malformed-input case, on GAUSS5."""
    rng = np.random.default_rng(24)
    truth = hb.make_ground_truth(5, rng)
    w1, W1, T = make_start(truth, 1 / 16, rng), np.zeros((2, 5)), 4
    sparse_s = BAD_SPARSE_S.get(case.removesuffix("-W1"))
    reals = {"r": 1 / 16, "b": 0.1, "delta": 0.05, "dist": GAUSS5, **BAD_REALS.get(case, {})}
    r, b, dist = reals["r"], reals["b"], reals["dist"]
    if case == "nan-w1":
        w1 = np.full(5, np.nan)
    elif case == "inf-w1":
        w1 = np.array([1.0, np.inf, 0.0, 0.0, 0.0])
    elif case == "short-w1":
        w1 = w1[:4]
    elif case == "2d-w1":
        w1 = w1[None]
    elif case == "short-w_star":
        truth = hb.GroundTruth(truth.w_star[:4])
    elif case == "nan-row-W1":
        W1[1, 2] = np.nan
    elif case == "1d-W1":
        W1 = W1[0]
    elif case.endswith("-T"):
        T = {"fractional-T": 5.7, "nan-T": float("nan"), "bool-T": True}[case]
    if case.endswith("W1"):
        return optimize_block, (W1, r, b, T, "average", dist, NOISE, truth,
                                rng.spawn(len(np.atleast_2d(W1)))), reals["delta"], sparse_s
    return hb.optimize, (w1, r, b, T, "average", dist, NOISE, truth, rng), reals["delta"], sparse_s


@pytest.mark.parametrize("case", [
    "nan-w1", "inf-w1", "short-w1", "2d-w1", "short-w_star", "nan-row-W1", "1d-W1",
    "fractional-T", "nan-T", "bool-T", *BAD_SPARSE_S, *(f"{c}-W1" for c in BAD_SPARSE_S),
    *BAD_REALS,
])
def test_malformed_epoch_input_is_rejected_before_any_draw(case):
    epoch, args, delta, sparse_s = _epoch_call(case)
    gens = args[-1] if isinstance(args[-1], list) else [args[-1]]
    states = [g.bit_generator.state for g in gens]
    ledger = hb.QueryLedger()
    with pytest.raises(InvalidInputError):
        epoch(*args, ledger, delta, DESK, sparse_s=sparse_s)
    assert ledger == hb.QueryLedger()
    assert [g.bit_generator.state for g in gens] == states


def test_average_aggregation_norm_at_most_one():
    rng = np.random.default_rng(25)
    truth = hb.make_ground_truth(5, rng)
    w1 = make_start(truth, 1 / 16, rng)
    out = hb.optimize(w1, 1 / 16, 0.1, 32, "average", GAUSS5, NOISE, truth, rng,
                      hb.QueryLedger(), 0.05, DESK)
    assert float(np.linalg.norm(out)) <= 1.0 + 1e-12


def test_erm_select_contracts():
    rng = np.random.default_rng(26)
    w_star = hb.normalize(rng.standard_normal(4))
    X = rng.standard_normal((100, 4))
    y = halfspace_labels(X, w_star)
    pick = erm_select([w_star, -w_star], X, y)
    assert np.array_equal(pick, w_star)
    # tie: two identical candidates, lowest index wins
    a, b = hb.normalize(rng.standard_normal(4)), None
    b = a.copy()
    tied = erm_select([a, b], X, y)
    assert tied is a or np.array_equal(tied, a)
    single = erm_select([w_star], X, y)
    assert np.array_equal(single, w_star)
    with pytest.raises(InvalidInputError):
        erm_select([], X, y)


def test_erm_select_tie_break_constructed():
    # candidate 0 errs only on point 0, candidate 1 errs only on point 1
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    X = np.array([[1.0, -1.0], [-1.0, 1.0]])
    y = np.array([-1.0, -1.0])
    errs0 = (halfspace_labels(X, e1) != y).sum()
    errs1 = (halfspace_labels(X, e2) != y).sum()
    assert errs0 == errs1 == 1
    pick = erm_select([e1, e2], X, y)
    assert np.array_equal(pick, e1)


def test_band_draw_depends_only_on_direction():
    # identical random streams, w vs 2w: identical samples and flip uniforms bit for bit
    draws = []
    for scale in (1.0, 2.0):
        rng = np.random.default_rng(27)
        ledger = hb.QueryLedger()
        w = scale * np.array([3.0, -1.0, 0.5, 0.0, 2.0])
        sampler = hb.BandSampler(GAUSS5, 0.15, rng, ledger=ledger)
        pairs = [sampler.draw(hb.normalize(w)) for _ in range(64)]
        draws.append((np.array([x for x, _ in pairs]), np.array([u for _, u in pairs])))
    assert np.array_equal(draws[0][0], draws[1][0])
    assert np.array_equal(draws[0][1], draws[1][1])


def test_optimize_descent_in_band_potential(monkeypatch):
    # thinned Monte Carlo of (1/T) sum psi(w_t) against psi(w1), 50 seeds;
    # psi depends on w only through its direction
    seen = record_directions(monkeypatch)
    r = 1.0 / 16.0
    b = bandwidth("MNC", r, GAUSS5, DESK, eta=0.1)
    T = iteration_count("MNC", r, GAUSS5, 0.05, DESK, GAUSS5.d, eta=0.1)
    wins = 0
    for seed in range(50):
        rng = np.random.default_rng((31, seed))
        truth = hb.make_ground_truth(5, rng)
        w1 = make_start(truth, r, rng)
        seen.clear()
        hb.optimize(w1, r, b, T, "average", GAUSS5, NOISE, truth, rng, hb.QueryLedger(),
                    0.05, DESK)
        iterates = seen[::16]
        psi_rng = np.random.default_rng((32, seed))
        start = hb.estimate_psi(w1, b, GAUSS5, NOISE, truth, 2000, psi_rng).value
        along = [hb.estimate_psi(w, b, GAUSS5, NOISE, truth, 2000, psi_rng).value
                 for w in iterates]
        wins += float(np.mean(along)) <= start
    assert wins >= 45


def test_initialize_output_unit_and_ledger():
    sched = hb.make_schedule("MNC", GAUSS5, 0.3, 0.05, DESK, eta=0.1)
    rng = np.random.default_rng(33)
    truth = hb.make_ground_truth(5, rng)
    ledger = hb.QueryLedger()
    u0 = hb.initialize(sched, GAUSS5, NOISE, truth, rng, ledger)
    assert float(np.linalg.norm(u0)) == pytest.approx(1.0, rel=1e-12)
    assert ledger.label_calls == sched.init_label_total()


def test_warm_start_trial_same_alone_as_in_block():
    # trial k reads only child k of the spawned streams, so batch size cannot move it
    sched = hb.make_schedule("MNC", GAUSS5, 0.3, 0.05, DESK, eta=0.1)
    truth = hb.make_ground_truth(5, np.random.default_rng(34))

    def streams():
        return np.random.default_rng(35).spawn(sched.N)

    ledger = hb.QueryLedger()
    block = warm_start_trials(sched, GAUSS5, NOISE, truth, streams(), ledger)
    assert block.shape == (sched.N, 5)
    assert ledger.label_calls == sched.N * sched.per_trial_init_labels()
    for k in (0, 17, sched.N - 1):
        alone_ledger = hb.QueryLedger()
        alone = warm_start_trials(sched, GAUSS5, NOISE, truth, [streams()[k]], alone_ledger)
        assert float(np.max(np.abs(alone[0] - block[k]))) <= 1e-12
        assert alone_ledger.label_calls == sched.per_trial_init_labels()


def test_optimize_block_sparse_rows_exact_and_feasible():
    d, s, T, K = 12, 3, 3, 2
    dist = hb.make_distribution("gaussian", d)
    rng = np.random.default_rng((52, 0))
    truth = hb.make_ground_truth(d, rng, s=s)
    r = 1.0 / 16.0
    W1 = np.array([make_start(truth, r, rng) for _ in range(K)])
    ledger = hb.QueryLedger()
    streams = rng.spawn(K)
    alone_streams = copy.deepcopy(streams)
    out = optimize_block(W1, r, 0.05, T, "average", dist, hb.massart(0.1), truth,
                         streams, ledger, 0.05, DESK, sparse_s=s)
    assert ledger.label_calls == K * T
    assert ledger.ex_calls >= K * T
    assert ledger.max_feasibility_gap <= 1e-6
    assert np.all(np.linalg.norm(out, axis=1) <= 1.0 + 1e-12)
    # row k is the sparse epoch optimize runs from W1[k] on stream k alone
    row_ledgers = [hb.QueryLedger() for _ in range(K)]
    for k in range(K):
        row = hb.optimize(W1[k], r, 0.05, T, "average", dist, hb.massart(0.1), truth,
                          alone_streams[k], row_ledgers[k], 0.05, DESK, sparse_s=s)
        assert row.tobytes() == out[k].tobytes()
    assert sum(led.label_calls for led in row_ledgers) == ledger.label_calls
    assert sum(led.ex_calls for led in row_ledgers) == ledger.ex_calls
    assert max(led.max_feasibility_gap for led in row_ledgers) == ledger.max_feasibility_gap


@pytest.mark.parametrize("d, s", [(5, 2), (12, 3)])
def test_sparse_epoch_with_carried_multipliers_matches_cold_steps(monkeypatch, d, s):
    # each sparse row seeds its step's search for mu with its last step's mu; the same
    # epoch with every step started cold differs only by rounding. d = 5 has p > 2 and
    # d = 12 p < 2, and in both some steps bind each ball
    dist = hb.make_distribution("gaussian", d)
    rng = np.random.default_rng((54, 0))
    truth = hb.make_ground_truth(d, rng, s=s)
    W1 = truth.w_star + 0.3 * rng.standard_normal((4, d))
    seeded, binds = set(), set()

    def epoch(step):
        monkeypatch.setattr(learner, "bregman_step", step)
        ledger = hb.QueryLedger()
        out = optimize_block(W1, 1 / 8, 0.1, 16, "average", dist, hb.massart(0.1), truth,
                             np.random.default_rng(54).spawn(4), ledger, 0.05, DESK,
                             sparse_s=s)
        return out, ledger

    def carried(*args, guess=None):
        out = sparse.bregman_step(*args, guess=guess)
        seeded.add(bool(guess))
        binds.add((out[1] > 0.0, out[2] > 0.0))
        return out

    out, ledger = epoch(carried)
    cold, cold_ledger = epoch(lambda *args, guess=None: sparse.bregman_step(*args))
    assert True in seeded
    assert {(True, False), (False, True), (True, True)} <= binds
    assert float(np.abs(out - cold).max()) <= 1e-12
    assert (ledger.label_calls, ledger.ex_calls) == (cold_ledger.label_calls,
                                                     cold_ledger.ex_calls)
    assert max(ledger.max_feasibility_gap, cold_ledger.max_feasibility_gap) <= 1e-9


def test_ball_step_matches_rowwise_projection():
    # the block update is optimize's w + alpha*y*x projected into ball2(w1, 4r), per row
    rng = np.random.default_rng(37)
    r, alpha = 1.0 / 16.0, 0.2
    W1 = rng.standard_normal((16, 5))
    W, step, max_gap = _projected_step(W1, r, alpha, None)
    assert np.array_equal(W, W1)
    W = W1 + 0.2 * rng.standard_normal((16, 5))
    y = rng.choice([-1.0, 1.0], size=16)
    X = rng.standard_normal((16, 5))
    new = step(W.copy(), alpha * y, X)  # the dense step takes signed step sizes and updates W in place
    gap = max_gap()
    for k in range(16):
        ref = project_l2_ball(W[k] + alpha * y[k] * X[k], W1[k], 4.0 * r)
        assert np.allclose(new[k], ref, rtol=0.0, atol=1e-12)
    assert 0.0 <= gap <= 1e-12


EPOCH_NOISES = [hb.massart(0.2), hb.massart_band(0.2, 0.1), hb.geometric_tsybakov(1.0, 0.75)]
# ten times the desk step size makes the ball clip fire, so feasibility gaps are compared too
STRONG = dataclasses.replace(DESK, c_alpha=10.0 * DESK.c_alpha)


def assert_epoch_matches_reference(dist, W1, T, agg, noise, profile):
    """The lockstep epoch returns the reference's bits, ledger and generator end states."""
    K, d = W1.shape
    truth = hb.make_ground_truth(d, np.random.default_rng(60))
    runs = []
    for epoch in (optimize_block, dense_reference.optimize_block):
        ledger = hb.QueryLedger()
        streams = np.random.default_rng(63).spawn(K)
        out = epoch(W1, 1 / 16, 0.3, T, agg, dist, noise, truth, streams, ledger, 0.05, profile)
        runs.append((out, ledger, [g.bit_generator.state for g in streams]))
    (out, ledger, states), (ref_out, ref_ledger, ref_states) = runs
    assert np.array_equal(out, ref_out) and out.tobytes() == ref_out.tobytes()
    assert ledger == ref_ledger and ledger.label_calls == K * T
    assert states == ref_states


@pytest.mark.parametrize("agg", ["average", "random"])
@pytest.mark.parametrize("noise", EPOCH_NOISES, ids=lambda noise: noise.kind)
@pytest.mark.parametrize("family", ["gaussian", "uniform_ball"])
def test_dense_epochs_bit_identical_to_reference(family, noise, agg):
    # tests/dense_reference.py keeps the per-step code the lockstep epoch replaced;
    # the epoch crosses a refill of the sampler's block
    W1 = np.zeros((3, 6))  # a zero row takes the e_1 direction on its first step
    W1[1:] = 0.2 * np.random.default_rng(61).standard_normal((2, 6))
    T = LockstepBandSampler.BLOCK + 88
    assert_epoch_matches_reference(hb.make_distribution(family, 6), W1, T, agg, noise, STRONG)


@pytest.mark.parametrize("profile, K", [
    pytest.param(DESK, 44, id="desk"),
    pytest.param(STRONG, 44, id="strong"),
    pytest.param(DESK, 22, id="desk-K22"),
    pytest.param(STRONG, 22, id="strong-K22"),
    pytest.param(DESK, 1, id="desk-K1"),
    pytest.param(STRONG, 1, id="strong-K1"),
])
def test_warm_start_shaped_epoch_bit_identical_to_reference(monkeypatch, profile, K):
    # the warm start's block shape, K = 44 and d = 10, one half of its two-process
    # split (K = 22) and one row, with steps where some rows clip back into their ball
    # and others do not; the epoch crosses a sampler block and ends partway through a
    # window of clipped steps, whose feasibility gaps the dense step takes together
    d, r = 10, 1 / 16
    W1 = 0.2 * np.random.default_rng(61).standard_normal((K, d))
    clipped, mixed = [], []

    def counting_step(W1, r, alpha, sparse_s):
        W, step, max_gap = _projected_step(W1, r, alpha, sparse_s)

        def counted(W, ay, X):  # a dense step takes the rows' signed step sizes alpha * y
            reach = np.linalg.norm(W + ay[:, None] * X - W1, axis=1)
            rows = np.count_nonzero(reach > 4.0 * r)
            clipped.append(rows > 0)
            mixed.append(0 < rows < K)
            return step(W, ay, X)

        return W, counted, max_gap

    monkeypatch.setattr(learner, "_projected_step", counting_step)
    T = LockstepBandSampler.BLOCK + 88
    assert_epoch_matches_reference(
        hb.make_distribution("gaussian", d), W1, T, "average", hb.massart(0.2), profile)
    assert len(clipped) == T and sum(clipped) > learner._GAP_WINDOW
    assert sum(clipped) % learner._GAP_WINDOW != 0
    assert K == 1 or any(mixed)


def test_ball_step_gap_window_keeps_the_stepwise_gap():
    # the dense step takes its clipped steps' feasibility gaps a window at a time; after
    # any number of steps, max_gap() must return the bits of the largest gap taken step
    # by step, as tests/dense_reference.py takes it, and the rows must be the same
    rng = np.random.default_rng(40)
    K, d, r, alpha = 7, 5, 1 / 16, 0.3
    radius = 4.0 * r
    W1 = rng.standard_normal((K, d))
    steps = [(rng.choice([-1.0, 1.0], size=K), rng.standard_normal((K, d)))
             for _ in range(3 * learner._GAP_WINDOW + 3)]
    for n in range(1, len(steps) + 1):
        W, step, max_gap = _projected_step(W1, r, alpha, None)
        ref, ref_gap, clipped_steps = W1.copy(), 0.0, 0
        for y, X in steps[:n]:
            W = step(W, alpha * y, X)
            ref = ref + (alpha * y)[:, None] * X
            diff = ref - W1
            dd = np.vecdot(diff, diff)
            clip = dd > radius * radius
            if clip.any():
                clipped_steps += 1
                clipped = W1 + (radius / np.sqrt(np.maximum(dd, radius * radius)))[:, None] * diff
                moved = clipped - W1
                gaps = np.sqrt(np.vecdot(moved, moved)) - radius
                ref = np.where(clip[:, None], clipped, ref)
                ref_gap = max(ref_gap, float(np.max(gaps, where=clip, initial=0.0)))
        assert W.tobytes() == ref.tobytes()
        assert max_gap() == ref_gap
    assert clipped_steps > 2 * learner._GAP_WINDOW and ref_gap > 0.0


@pytest.mark.parametrize("family", ["gaussian", "uniform_ball"])
def test_dense_epoch_peak_memory_is_one_block_and_a_half(family):
    # the lockstep epoch holds one (BLOCK, K, d) block of completions at a time,
    # plus the block's per-step scalars and a refill's temporaries
    K, d = 44, 10
    dist = hb.make_distribution(family, d)
    truth = hb.make_ground_truth(d, np.random.default_rng(64))
    block_bytes = LockstepBandSampler.BLOCK * K * d * 8
    tracemalloc.start()
    try:
        optimize_block(np.zeros((K, d)), 1 / 16, 0.3, 3 * LockstepBandSampler.BLOCK, "average",
                       dist, hb.massart(0.2), truth, np.random.default_rng(65).spawn(K),
                       hb.QueryLedger(), 0.05, DESK)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * block_bytes


@pytest.mark.parametrize("d", [6, 50])
@pytest.mark.parametrize("agg", ["average"])  # optimize runs a "random" epoch as the block
@pytest.mark.parametrize("noise", EPOCH_NOISES, ids=lambda noise: noise.kind)
@pytest.mark.parametrize("family", ["gaussian", "uniform_ball"])
def test_scalar_epoch_matches_one_row_block(monkeypatch, family, noise, agg, d):
    # optimize(w1, ..., rng) and optimize_block(w1[None], ..., [rng]) read the same
    # values from rng and take every dot product with the same kernel: the same bits.
    # The one-row block tests for a clip on every step; the scalar epoch skips the
    # test where its bound proves no clip, as it does on most steps at the desk step
    # size from the first two starts. From -0.3 w*, 1.3 from w*, the iterate is pushed
    # onto the edge of ball2(w1, 4r) and rides it: the bound trips on most steps and
    # many of them clip, at either step size
    dist = hb.make_distribution(family, d)
    truth = hb.make_ground_truth(d, np.random.default_rng(60))
    T = LockstepBandSampler.BLOCK + 88
    clipped = []

    def counting_step(W1, r, alpha, sparse_s):
        W, step, max_gap = _projected_step(W1, r, alpha, sparse_s)

        def counted(W, ay, X):  # a dense step takes the rows' signed step sizes alpha * y
            clipped.append(float(np.linalg.norm(W[0] + ay[0] * X[0] - W1[0])) > 4.0 * r)
            return step(W, ay, X)

        return W, counted, max_gap

    monkeypatch.setattr(learner, "_projected_step", counting_step)
    starts = (np.zeros(d), 0.2 * np.random.default_rng(61).standard_normal(d), -0.3 * truth.w_star)
    for profile, w1 in itertools.product((STRONG, DESK), starts):
        scalar_ledger, block_ledger = hb.QueryLedger(), hb.QueryLedger()
        scalar_rng, block_rng = np.random.default_rng(62), np.random.default_rng(62)
        out = hb.optimize(w1, 1 / 16, 0.3, T, agg, dist, noise, truth, scalar_rng,
                          scalar_ledger, 0.05, profile)
        clipped.clear()
        block = optimize_block(w1[None], 1 / 16, 0.3, T, agg, dist, noise, truth,
                               [block_rng], block_ledger, 0.05, profile)
        assert out.tobytes() == block[0].tobytes()
        assert scalar_ledger == block_ledger and block_ledger.label_calls == T
        assert scalar_rng.bit_generator.state == block_rng.bit_generator.state
        if w1 is starts[-1]:
            assert len(clipped) == T and sum(clipped) > T // 3


def test_optimize_block_random_aggregation_unit_rows():
    rng = np.random.default_rng(38)
    truth = hb.make_ground_truth(5, rng)
    W1 = np.array([make_start(truth, 1 / 16, rng) for _ in range(3)])
    ledger = hb.QueryLedger()
    out = optimize_block(W1, 1 / 16, 0.1, 7, "random", GAUSS5, NOISE, truth, rng.spawn(3),
                         ledger, 0.05, DESK)
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, rtol=1e-12)
    assert ledger.label_calls == 21


def test_optimize_block_validation():
    rng = np.random.default_rng(39)
    truth = hb.make_ground_truth(5, rng)
    W1 = np.array([make_start(truth, 1 / 16, rng) for _ in range(2)])
    with pytest.raises(InvalidInputError):
        optimize_block(W1, 1 / 16, 0.1, 4, "average", GAUSS5, NOISE, truth, rng.spawn(3),
                       hb.QueryLedger(), 0.05, DESK)  # one stream per row
    with pytest.raises(InvalidInputError):
        optimize_block(W1, 1 / 16, 0.6, 4, "average", GAUSS5, NOISE, truth, rng.spawn(2),
                       hb.QueryLedger(), 0.05, DESK)  # b > R/2


def test_learn_small_run_accounting_and_trace():
    config = hb.LearnerConfig(
        dist=hb.make_distribution("gaussian", 3),
        noise=hb.massart(0.1),
        epsilon=0.45,
        delta=0.05,
        seed=(404, 0),
        profile=DESK,
    )
    result = hb.learn(config)
    sched = result.schedule
    assert result.ledger.label_calls == sched.total_label_budget()
    assert float(np.linalg.norm(result.v)) == pytest.approx(1.0, rel=1e-12)
    assert result.trace[0]["stage"] == "init"
    main = [e for e in result.trace if e["stage"] == "main"]
    assert [e["j"] for e in main] == list(range(1, sched.k_eps + 1))
    for entry in main:
        assert {"r", "b", "T", "labels", "ex_calls", "angle"} <= set(entry)
    assert result.ledger.max_feasibility_gap <= 1e-9


def test_learn_rerun_is_bit_identical():
    def one():
        config = hb.LearnerConfig(
            dist=hb.make_distribution("gaussian", 3),
            noise=hb.massart(0.1),
            epsilon=0.45,
            delta=0.05,
            seed=(404, 1),
            profile=DESK,
        )
        return hb.learn(config)

    a, b = one(), one()
    assert a.v.tobytes() == b.v.tobytes()
    assert a.ledger == b.ledger
    assert a.trace == b.trace


def test_learn_uniform_ball_end_to_end():
    def one():
        config = hb.LearnerConfig(
            dist=hb.make_distribution("uniform_ball", 5),
            noise=hb.massart(0.2),
            epsilon=0.3,
            delta=0.05,
            seed=(11, 0),
            profile=dataclasses.replace(DESK, c_T=0.002, c_S=4.0),
        )
        return hb.learn(config)

    a, b = one(), one()
    assert a.ledger.label_calls == a.schedule.total_label_budget()
    assert a.ledger.max_feasibility_gap <= 1e-9
    assert float(np.linalg.norm(a.v)) == pytest.approx(1.0, rel=1e-12)
    assert a.v.tobytes() == b.v.tobytes()
    assert a.ledger == b.ledger
    assert a.trace == b.trace


def test_learn_config_validation():
    dist = hb.make_distribution("gaussian", 3)
    with pytest.raises(InvalidInputError):
        hb.learn(hb.LearnerConfig(dist=dist, noise=NOISE, epsilon=1.2, delta=0.05, seed=0))
    with pytest.raises(InvalidInputError):
        hb.learn(hb.LearnerConfig(dist=dist, noise=NOISE, epsilon=0.3, delta=0.2, seed=0))
    # a sparse_s that is no integer is rejected, not run as the integer below it
    for s in (2.5, True):
        with pytest.raises(InvalidInputError, match="sparse_s must be an integer in"):
            hb.learn(hb.LearnerConfig(dist=dist, noise=NOISE, epsilon=0.3, delta=0.05, seed=0,
                                      sparse_s=s))


def _small_config(seed):
    return hb.LearnerConfig(dist=hb.make_distribution("gaussian", 3), noise=NOISE, epsilon=0.45,
                            delta=0.05, seed=seed, profile=DESK)


@pytest.mark.parametrize("seed", [-1, 2.5, "abc", (1, -2), True, None, (), [7, 2.0],
                                  np.float64(7.0), b"\x07", {7: 0}])
def test_learn_rejects_a_malformed_seed(seed):
    # a seed numpy would take otherwise (True as 1, None as OS entropy) or reject with its
    # own error is an InvalidInputError naming seed, raised before anything is drawn
    with pytest.raises(InvalidInputError, match=r"seed(\[\d\])? must be an integer"):
        hb.learn(_small_config(seed))


def test_learn_valid_seeds_keep_their_streams():
    # an integer >= 0 or a nonempty list or tuple of them seeds default_rng as it did
    for seeds in ([7, np.int64(7)], [(7, 0), [7, 0], (np.int64(7), np.uint8(0))]):
        runs = [hb.learn(_small_config(seed)) for seed in seeds]
        truth = hb.make_ground_truth(3, np.random.default_rng(seeds[0]))
        assert all(r.truth.w_star.tobytes() == truth.w_star.tobytes() for r in runs)
        assert all(r.v.tobytes() == runs[0].v.tobytes() and r.trace == runs[0].trace
                   for r in runs)


def test_trace_angles_weakly_decreasing_across_main_epochs(criterion3_runs):
    # geometric halving: each epoch's output is within its own shrinking radius
    good = 0
    for run in criterion3_runs["runs"]:
        main = [e["angle"] for e in run["result"].trace if e["stage"] == "main"]
        good += all(main[k + 1] <= main[k] + 1e-12 for k in range(len(main) - 1))
    assert good >= 18  # >= 90% of 20


# the warm start splits between two processes where two cores are usable and it is
# long enough; these tests set the core count and lift the length gate, so the split
# runs on small configs whatever host runs them


@pytest.fixture
def forks(monkeypatch):
    """The pids of the child processes os.fork makes during the test."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def set_cores(monkeypatch, cores):
    """Let a warm start of any length split on `cores` usable cores."""
    monkeypatch.setattr(learner, "_usable_cores", lambda: cores)
    monkeypatch.setattr(learner, "_SPLIT_MIN_LABELS", 0)


def learn_on_cores(monkeypatch, config, cores):
    set_cores(monkeypatch, cores)
    return hb.learn(config)


SPLIT_CONFIGS = {
    "criterion-3": hb.LearnerConfig(
        dist=hb.make_distribution("gaussian", 10), noise=hb.massart(0.2), epsilon=0.1,
        delta=0.05, seed=(2026, 0), profile=DESK),
    "ball-massart-band": hb.LearnerConfig(
        dist=hb.make_distribution("uniform_ball", 5), noise=hb.massart_band(0.2, 0.1),
        epsilon=0.3, delta=0.05, seed=(11, 0),
        profile=dataclasses.replace(DESK, c_T=0.002, c_S=4.0)),
    "geometric-tsybakov": hb.LearnerConfig(
        dist=hb.make_distribution("gaussian", 3), noise=hb.geometric_tsybakov(2.0, 0.9),
        epsilon=0.45, delta=0.05, seed=(12, 0),
        profile=dataclasses.replace(DESK, c_T=0.002, c_S=4.0)),
}


@pytest.mark.parametrize("name", SPLIT_CONFIGS)
def test_split_warm_start_learns_the_one_process_bits(monkeypatch, forks, name):
    config = SPLIT_CONFIGS[name]
    one = learn_on_cores(monkeypatch, config, 1)
    assert forks == []
    split = learn_on_cores(monkeypatch, config, 2)
    assert len(forks) == 1
    assert_reaped(forks)
    assert split.v.tobytes() == one.v.tobytes()
    assert json.dumps(split.trace) == json.dumps(one.trace)
    assert split.truth.w_star.tobytes() == one.truth.w_star.tobytes()
    assert split.ledger == one.ledger
    assert split.ledger.label_calls == split.schedule.total_label_budget()


def small_warm_start(dist):
    sched = hb.make_schedule("MNC", dist, 0.3, 0.05, DESK, eta=0.1)
    return dataclasses.replace(sched, iterations=(3,) + sched.iterations[1:])


def test_split_warm_start_adds_to_the_callers_ledger(monkeypatch, forks):
    sched = small_warm_start(GAUSS5)
    truth = hb.make_ground_truth(5, np.random.default_rng(70))
    runs = []
    for cores in (1, 2):
        set_cores(monkeypatch, cores)  # a warm start of exactly the gate's labels splits
        monkeypatch.setattr(learner, "_SPLIT_MIN_LABELS", sched.N * sched.per_trial_init_labels())
        ledger = hb.QueryLedger(ex_calls=5, label_calls=7, max_feasibility_gap=1e-3)
        V = warm_start_trials(sched, GAUSS5, NOISE, truth,
                              np.random.default_rng(71).spawn(sched.N), ledger)
        runs.append((V.tobytes(), ledger))
    assert len(forks) == 1
    assert runs[0] == runs[1]
    assert runs[0][1].label_calls == 7 + sched.N * sched.per_trial_init_labels()


@pytest.mark.parametrize("layout", ["v2", "v1"])
def test_a_cgroup_cpu_quota_caps_the_usable_cores(monkeypatch, tmp_path, forks, layout):
    # the affinity mask does not show a cgroup CPU quota: a container held to one CPU
    # on a larger host must not split its warm start, and no quota keeps the mask's count
    cpu_max, v1 = tmp_path / "cpu.max", tmp_path / "cpu"
    v1.mkdir()
    proc = tmp_path / "proc_self_cgroup"
    proc.write_text("1:cpu,cpuacct:/\n0::/\n")  # the process sits at both mount roots
    monkeypatch.setattr(learner, "_PROC_CGROUP", str(proc))
    monkeypatch.setattr(learner, "_CGROUP_V2", str(tmp_path))
    monkeypatch.setattr(learner, "_CGROUP_V1_CPU", str(v1))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})

    def set_quota(quota, period=100_000):
        if layout == "v2":
            cpu_max.write_text(f"{quota} {period}\n")
        else:
            (v1 / "cpu.cfs_quota_us").write_text(f"{quota}\n")
            (v1 / "cpu.cfs_period_us").write_text(f"{period}\n")

    unlimited = "max" if layout == "v2" else -1
    assert learner._usable_cores() == 4  # no quota file
    for quota, cores in ((unlimited, 4), (100_000, 1), (199_999, 1), (50_000, 1), (1, 1),
                         (250_000, 2), (800_000, 4)):
        set_quota(quota)
        assert learner._usable_cores() == cores, quota
    sched = small_warm_start(GAUSS5)
    truth = hb.make_ground_truth(5, np.random.default_rng(74))
    monkeypatch.setattr(learner, "_SPLIT_MIN_LABELS", 0)
    for quota, splits in ((100_000, 0), (unlimited, 1)):
        set_quota(quota)
        warm_start_trials(sched, GAUSS5, NOISE, truth, np.random.default_rng(75).spawn(sched.N),
                          hb.QueryLedger())
        assert len(forks) == splits
    assert_reaped(forks)


@pytest.mark.parametrize("layout", ["v2", "v1"])
def test_a_nested_cgroup_quota_caps_the_usable_cores(monkeypatch, tmp_path, forks, layout):
    # the quota is read at the process's own cgroup, named in /proc/self/cgroup, and at
    # each ancestor up to the mount root; the smallest cap wins. A v1 line counts only
    # when its controller list names cpu itself, not cpuset or cpuacct
    path, mount, proc = "/jobs/runner/task", tmp_path / layout, tmp_path / "proc_self_cgroup"
    proc.write_text(f"0::{path}\n" if layout == "v2" else
                    f"2:cpu,cpuacct:{path}\n4:cpuset:/elsewhere\n3:cpuacct:/other\n")
    monkeypatch.setattr(learner, "_PROC_CGROUP", str(proc))
    monkeypatch.setattr(learner, "_CGROUP_V2", str(tmp_path / "v2"))
    monkeypatch.setattr(learner, "_CGROUP_V1_CPU", str(tmp_path / "v1"))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    groups = {g: mount.joinpath(*g.strip("/").split("/")) for g in
              ("/", "/jobs", "/jobs/runner", path)}
    for group in groups.values():
        group.mkdir(parents=True, exist_ok=True)

    def set_quota(group, quota, period=100_000):
        if layout == "v2":
            (groups[group] / "cpu.max").write_text(f"{quota} {period}\n")
        else:
            (groups[group] / "cpu.cfs_quota_us").write_text(f"{quota}\n")
            (groups[group] / "cpu.cfs_period_us").write_text(f"{period}\n")

    unlimited = "max" if layout == "v2" else -1
    assert learner._usable_cores() == 4  # no quota file anywhere
    set_quota("/", unlimited)
    set_quota(path, 50_000)  # half a CPU in the process's own, nested group
    assert learner._usable_cores() == 1
    sched = small_warm_start(GAUSS5)
    truth = hb.make_ground_truth(5, np.random.default_rng(76))
    monkeypatch.setattr(learner, "_SPLIT_MIN_LABELS", 0)
    warm_start_trials(sched, GAUSS5, NOISE, truth, np.random.default_rng(77).spawn(sched.N),
                      hb.QueryLedger())
    assert forks == []
    set_quota(path, 300_000)
    set_quota("/jobs", 200_000)  # a tighter ancestor wins
    assert learner._usable_cores() == 2
    set_quota("/jobs/runner", 100_000)
    assert learner._usable_cores() == 1
    for group in ("/jobs", "/jobs/runner"):
        set_quota(group, unlimited)
    assert learner._usable_cores() == 3
    (groups[path] / ("cpu.max" if layout == "v2" else "cpu.cfs_quota_us")).write_text("junk\n")
    assert learner._usable_cores() == 4  # a file without its numbers sets no cap
    proc.write_text("not a cgroup line\n")  # unreadable: the mount roots alone
    set_quota("/", 200_000)
    assert learner._usable_cores() == 2


def test_the_one_process_cases_do_not_fork(monkeypatch):
    # one usable core, one trial, a short warm start, a sparse warm start, a process
    # running another thread
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    sched = small_warm_start(GAUSS5)
    truth = hb.make_ground_truth(5, np.random.default_rng(72))
    for cores, rows in ((1, sched.N), (2, 1)):
        set_cores(monkeypatch, cores)
        streams = np.random.default_rng(73).spawn(rows)
        warm_start_trials(sched, GAUSS5, NOISE, truth, streams, hb.QueryLedger())
    monkeypatch.setattr(learner, "_SPLIT_MIN_LABELS", sched.N * sched.per_trial_init_labels() + 1)
    warm_start_trials(sched, GAUSS5, NOISE, truth, np.random.default_rng(73).spawn(sched.N),
                      hb.QueryLedger())
    monkeypatch.setattr(learner, "_SPLIT_MIN_LABELS", 0)
    sparse_truth = hb.make_ground_truth(5, np.random.default_rng(72), s=2)
    # its first epoch only: later ones stop on EmptyConstraintError (ROADMAP item 2)
    warm_start_trials(dataclasses.replace(sched, sparse_s=2, k0=0), GAUSS5, NOISE, sparse_truth,
                      np.random.default_rng(73).spawn(sched.N), hb.QueryLedger())
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30.0,))
    other.start()
    try:
        warm_start_trials(sched, GAUSS5, NOISE, truth, np.random.default_rng(73).spawn(sched.N),
                          hb.QueryLedger())
    finally:
        release.set()
        other.join(30.0)
    assert not other.is_alive()


def test_a_failed_fork_runs_both_halves_here(monkeypatch):
    def failed_fork():
        raise BlockingIOError("resource temporarily unavailable")

    config = SPLIT_CONFIGS["ball-massart-band"]
    one = learn_on_cores(monkeypatch, config, 1)
    monkeypatch.setattr(os, "fork", failed_fork)
    split = learn_on_cores(monkeypatch, config, 2)
    assert split.v.tobytes() == one.v.tobytes() and split.ledger == one.ledger


def fail_in_child(monkeypatch, exc):
    """Make the child's first lockstep epoch raise exc."""
    parent = os.getpid()
    epoch = learner.optimize_block

    def failing(*args, **kwargs):
        if os.getpid() != parent:
            raise exc
        return epoch(*args, **kwargs)

    monkeypatch.setattr(learner, "optimize_block", failing)


@pytest.mark.parametrize("exc", [BandTooThinError(0.01, 1e-30), NumericalError("boom"),
                                 KeyboardInterrupt()], ids=lambda exc: type(exc).__name__)
def test_child_error_reaches_the_caller(monkeypatch, forks, exc):
    fail_in_child(monkeypatch, exc)
    with pytest.raises(type(exc)) as raised:
        learn_on_cores(monkeypatch, _small_config((75, 0)), 2)
    assert str(raised.value) == str(exc) and vars(raised.value) == vars(exc)
    assert len(forks) == 1
    assert_reaped(forks)


def test_child_error_that_cannot_be_pickled_is_reported(monkeypatch, forks):
    class Unpicklable(RuntimeError):
        pass

    fail_in_child(monkeypatch, Unpicklable("local class"))
    with pytest.raises(ChildProcessError, match="ended without a result"):
        learn_on_cores(monkeypatch, _small_config((76, 0)), 2)
    assert_reaped(forks)


@pytest.mark.parametrize("exc", [NumericalError("boom"), KeyboardInterrupt()],
                         ids=lambda exc: type(exc).__name__)
def test_parent_error_kills_and_reaps_the_child(monkeypatch, forks, exc):
    # the child's half would take a minute: only a kill ends it before the call returns
    parent = os.getpid()

    def epoch(*args, **kwargs):
        if os.getpid() == parent:
            raise exc
        time.sleep(60.0)
        raise NumericalError("the child was not killed")

    monkeypatch.setattr(learner, "optimize_block", epoch)
    start = time.perf_counter()
    with pytest.raises(type(exc)):
        learn_on_cores(monkeypatch, _small_config((77, 0)), 2)
    assert time.perf_counter() - start < 30.0
    assert len(forks) == 1
    assert_reaped(forks)


def test_an_orphaned_child_ends_at_its_next_epoch(monkeypatch):
    # a parent killed by a signal runs no Python, so it neither kills nor reaps its child;
    # the child must end between epochs, not run its whole half. A runner process learns
    # with a child that reports each epoch it starts and then sleeps a second in it, and
    # the runner is sent SIGTERM once the child's first epoch has begun.
    config = dataclasses.replace(SPLIT_CONFIGS["geometric-tsybakov"], noise=NOISE)
    assert config.schedule().k0 >= 2
    reports, report_end = os.pipe()
    runner = os.fork()
    if runner == 0:
        try:
            os.close(reports)
            set_cores(monkeypatch, 2)
            me, epoch = os.getpid(), learner.optimize_block

            def reporting(*args, **kwargs):
                if os.getpid() != me:
                    os.write(report_end, b"e")
                    time.sleep(1.0)
                return epoch(*args, **kwargs)

            learner.optimize_block = reporting
            hb.learn(config)
        finally:
            os._exit(0)
    os.close(report_end)
    with os.fdopen(reports, "rb") as pipe:
        try:
            first = pipe.read(1)
            os.kill(runner, signal.SIGTERM)
        finally:
            status = os.waitpid(runner, 0)[1]
        rest = pipe.read()  # end of file once the child has ended
    assert first == b"e"
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGTERM
    assert rest == b""


def test_split_warm_start_rejects_a_band_too_thin_for_every_row(monkeypatch, forks):
    # at b = 2e-16 on the uniform ball, d = 10, attempt counts fit int64 for a step of
    # 22 rows but not of 44: each half of a 44-row warm start must reject the band too
    dist = hb.make_distribution("uniform_ball", 10)
    sched = small_warm_start(dist)
    assert sched.N == 44
    thin = 2e-16
    oracles.checked_band_probability(dist, thin, sched.N // 2)
    with pytest.raises(BandTooThinError):
        oracles.checked_band_probability(dist, thin, sched.N)
    sched = dataclasses.replace(sched, bandwidths=sched.bandwidths[:2] + (thin,)
                                + sched.bandwidths[3:])
    truth = hb.make_ground_truth(10, np.random.default_rng(78))
    epoch = learner.optimize_block
    parent = os.getpid()
    errors = []
    for cores in (1, 2):
        epochs = []

        def counted(*args, **kwargs):  # records the bandwidths of the parent's finished epochs
            out = epoch(*args, **kwargs)
            if os.getpid() == parent:
                epochs.append(args[2])
            return out

        monkeypatch.setattr(learner, "optimize_block", counted)
        set_cores(monkeypatch, cores)
        with pytest.raises(BandTooThinError) as raised:
            warm_start_trials(sched, dist, NOISE, truth, np.random.default_rng(79).spawn(44),
                              hb.QueryLedger())
        errors.append((str(raised.value), vars(raised.value), epochs))
    assert errors[0] == errors[1]
    assert errors[0][2] == list(sched.bandwidths[:2])
    assert len(forks) == 1
    assert_reaped(forks)
