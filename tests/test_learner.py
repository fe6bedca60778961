"""Epoch optimizer, initialization, full learner: contracts and accounting."""

import dataclasses
import math

import dense_reference
import numpy as np
import pytest

import halfband as hb
from halfband.errors import InvalidInputError
from halfband.learner import (
    _projected_step,
    erm_select,
    optimize_block,
    step_size,
    warm_start_trials,
)
from halfband.oracles import DRAW_BLOCK, LockstepBandSampler, halfspace_labels
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
    """List that collects the unit direction of every BandSampler.draw, in order.

    optimize samples around, aggregates and returns exactly these directions.
    """
    seen = []
    draw = hb.BandSampler.draw

    def recording_draw(self, w_hat):
        seen.append(w_hat.copy())
        return draw(self, w_hat)

    monkeypatch.setattr(hb.BandSampler, "draw", recording_draw)
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
    seen = record_directions(monkeypatch)
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
    # identical random streams, w vs 2w: identical samples bit for bit
    draws = []
    for scale in (1.0, 2.0):
        rng = np.random.default_rng(27)
        ledger = hb.QueryLedger()
        w = scale * np.array([3.0, -1.0, 0.5, 0.0, 2.0])
        sampler = hb.BandSampler(GAUSS5, 0.15, rng, ledger=ledger)
        draws.append(np.array([sampler.draw(hb.normalize(w)) for _ in range(64)]))
    assert np.array_equal(draws[0], draws[1])


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
    out = optimize_block(W1, r, 0.05, T, "average", dist, hb.massart(0.1), truth,
                         rng.spawn(K), ledger, 0.05, DESK, sparse_s=s)
    assert ledger.label_calls == K * T
    assert ledger.ex_calls >= K * T
    assert ledger.max_feasibility_gap <= 1e-6
    assert np.all(np.linalg.norm(out, axis=1) <= 1.0 + 1e-12)


def test_ball_step_matches_rowwise_projection():
    # the block update is optimize's w + alpha*y*x projected into ball2(w1, 4r), per row
    rng = np.random.default_rng(37)
    r, alpha = 1.0 / 16.0, 0.2
    W1 = rng.standard_normal((16, 5))
    W, step = _projected_step(W1, r, alpha, None)
    assert np.array_equal(W, W1)
    W = W1 + 0.2 * rng.standard_normal((16, 5))
    y = rng.choice([-1.0, 1.0], size=16)
    X = rng.standard_normal((16, 5))
    new, gap = step(W, y, X)
    for k in range(16):
        ref = hb.project_l2_ball(W[k] + alpha * y[k] * X[k], W1[k], 4.0 * r)
        assert np.allclose(new[k], ref, rtol=0.0, atol=1e-12)
    assert 0.0 <= gap <= 1e-12


@pytest.mark.parametrize("agg", ["average", "random"])
@pytest.mark.parametrize(
    "noise",
    [hb.massart(0.2), hb.massart_band(0.2, 0.1), hb.geometric_tsybakov(1.0, 0.75)],
    ids=lambda noise: noise.kind,
)
@pytest.mark.parametrize("family", ["gaussian", "uniform_ball"])
def test_dense_epochs_bit_identical_to_reference(family, noise, agg):
    # tests/dense_reference.py keeps the per-label code these epochs replaced; the
    # epochs cross a refill of each sampler's block, and ten times the desk step
    # size makes the ball clip fire on about a third of the scalar steps
    dist = hb.make_distribution(family, 6)
    profile = dataclasses.replace(DESK, c_alpha=10.0 * DESK.c_alpha)
    truth = hb.make_ground_truth(6, np.random.default_rng(60))
    W1 = np.zeros((3, 6))  # a zero row takes the e_1 direction on its first step
    W1[1:] = 0.2 * np.random.default_rng(61).standard_normal((2, 6))
    epochs = [
        (hb.optimize, dense_reference.optimize, np.zeros(6), DRAW_BLOCK + 8,
         lambda: np.random.default_rng(62)),
        (optimize_block, dense_reference.optimize_block, W1, LockstepBandSampler.BLOCK + 88,
         lambda: np.random.default_rng(63).spawn(3)),
    ]
    for new, ref, start, T, rngs in epochs:
        runs = []
        for epoch in (new, ref):
            ledger = hb.QueryLedger()
            rng = rngs()
            out = epoch(start, 1 / 16, 0.3, T, agg, dist, noise, truth, rng, ledger, 0.05,
                        profile)
            states = [g.bit_generator.state for g in (rng if isinstance(rng, list) else [rng])]
            runs.append((out, ledger, states))
        (out, ledger, states), (ref_out, ref_ledger, ref_states) = runs
        assert np.array_equal(out, ref_out) and out.tobytes() == ref_out.tobytes()
        assert ledger == ref_ledger and ledger.label_calls == T * len(np.atleast_2d(start))
        assert states == ref_states


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
        trace_angles=True,
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
    assert result.max_feasibility_gap <= 1e-9


def test_learn_rerun_is_bit_identical():
    def one():
        config = hb.LearnerConfig(
            dist=hb.make_distribution("gaussian", 3),
            noise=hb.massart(0.1),
            epsilon=0.45,
            delta=0.05,
            seed=(404, 1),
            profile=DESK,
            trace_angles=True,
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
            trace_angles=True,
        )
        return hb.learn(config)

    a, b = one(), one()
    assert a.ledger.label_calls == a.schedule.total_label_budget()
    assert a.max_feasibility_gap <= 1e-9
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


def test_trace_angles_weakly_decreasing_across_main_epochs(criterion3_runs):
    # geometric halving: each epoch's output is within its own shrinking radius
    good = 0
    for run in criterion3_runs["runs"]:
        main = [e["angle"] for e in run["result"].trace if e["stage"] == "main"]
        good += all(main[k + 1] <= main[k] + 1e-12 for k in range(len(main) - 1))
    assert good >= 18  # >= 90% of 20
