"""Sparse-mode geometry: l1/l2 projections and the mirror-descent step."""

import dataclasses
import math

import numpy as np
import pytest
from admm_reference import admm_bregman_step
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import halfband as hb
from halfband import sparse
from halfband.errors import EmptyConstraintError, InvalidInputError, NumericalError
from halfband.learner import optimize_block, warm_start_trials
from halfband.schedules import PROFILES, proximity
from halfband.sparse import (
    SparseConstraint,
    _solve,
    bregman_step,
    mirror_p,
    pnorm_sq_grad,
    project_intersection,
    project_l1_ball,
)


def random_constraint(rng, d):
    center2 = rng.standard_normal(d)
    center1 = center2 + 0.1 * rng.standard_normal(d)
    return SparseConstraint(
        center2=center2,
        radius2=float(rng.uniform(0.5, 2.0)),
        center1=center1,
        radius1=float(rng.uniform(0.5, 2.0)),
    )


def cvxpy_bregman(cvxpy, u_t, g, alpha, constraint, u1, p):
    w = cvxpy.Variable(u_t.shape[0])
    breg = (cvxpy.pnorm(w - u1, p) ** 2 - cvxpy.norm(u_t - u1, p) ** 2
            - 2.0 * (pnorm_sq_grad(u_t - u1, p) @ (w - u_t))) / (2.0 * (p - 1.0))
    objective = alpha * (g @ w) + breg
    problem = cvxpy.Problem(
        cvxpy.Minimize(objective),
        [
            cvxpy.norm(w - constraint.center2, 2) <= constraint.radius2,
            cvxpy.norm(w - constraint.center1, 1) <= constraint.radius1,
        ],
    )
    problem.solve(solver="CLARABEL")
    return np.asarray(w.value)


def test_mirror_exponent_values():
    assert mirror_p(3) == pytest.approx(11.140723975747152, rel=1e-14)
    assert mirror_p(7) == pytest.approx(2.0571828635084493, rel=1e-14)
    assert mirror_p(8) == pytest.approx(1.9264049616283916, rel=1e-14)
    assert mirror_p(100) == pytest.approx(1.2773794157864211, rel=1e-14)
    for d in (1, 2):
        with pytest.raises(InvalidInputError):
            mirror_p(d)


def test_l1_projection_inside_is_identity():
    rng = np.random.default_rng(41)
    center = rng.standard_normal(6)
    v = center + 0.05 * rng.standard_normal(6)
    out = project_l1_ball(v, center, 1.0)
    assert np.array_equal(out, v)
    assert out is not v


def test_l1_projection_lands_on_sphere_and_is_optimal():
    rng = np.random.default_rng(42)
    for _ in range(50):
        d = int(rng.integers(2, 12))
        center = rng.standard_normal(d)
        radius = float(rng.uniform(0.2, 2.0))
        v = center + rng.standard_normal(d) * 3.0
        if np.abs(v - center).sum() <= radius:
            continue
        w = project_l1_ball(v, center, radius)
        assert np.abs(w - center).sum() == pytest.approx(radius, rel=1e-10)
        # variational inequality: <v - w, z - w> <= 0 for feasible z
        for _ in range(20):
            z = rng.standard_normal(d)
            z = center + radius * z / np.abs(z).sum() * rng.uniform(0, 1)
            assert float((v - w) @ (z - w)) <= 1e-9


def test_l1_projection_matches_solver():
    cvxpy = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(43)
    for _ in range(5):
        d = int(rng.integers(3, 10))
        center = rng.standard_normal(d)
        radius = float(rng.uniform(0.3, 1.5))
        v = center + rng.standard_normal(d) * 2.0
        w = project_l1_ball(v, center, radius)
        x = cvxpy.Variable(d)
        prob = cvxpy.Problem(
            cvxpy.Minimize(cvxpy.sum_squares(x - v)),
            [cvxpy.norm(x - center, 1) <= radius],
        )
        prob.solve(solver="CLARABEL")
        assert np.linalg.norm(w - x.value) <= 1e-6


def test_l1_projection_zero_radius_is_center():
    rng = np.random.default_rng(44)
    center = rng.standard_normal(5)
    for v in (center + rng.standard_normal(5), center.copy()):
        out = project_l1_ball(v, center, 0.0)
        assert np.array_equal(out, center)
        assert out is not center


def test_l1_projection_negative_radius_raises():
    with pytest.raises(InvalidInputError):
        project_l1_ball(np.ones(3), np.zeros(3), -0.5)


def test_intersection_projection_feasible_and_fixed_point():
    rng = np.random.default_rng(44)
    for _ in range(20):
        d = int(rng.integers(3, 12))
        constraint = random_constraint(rng, d)
        v = rng.standard_normal(d) * 3.0
        w = project_intersection(v, constraint)
        assert constraint.violation(w) <= 1e-9
        again = project_intersection(w, constraint)
        assert np.linalg.norm(again - w) <= 1e-9


def test_intersection_projection_matches_solver():
    cvxpy = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(45)
    for _ in range(3):
        d = 8
        constraint = random_constraint(rng, d)
        v = rng.standard_normal(d) * 3.0
        w = project_intersection(v, constraint)
        x = cvxpy.Variable(d)
        prob = cvxpy.Problem(
            cvxpy.Minimize(cvxpy.sum_squares(x - v)),
            [
                cvxpy.norm(x - constraint.center2, 2) <= constraint.radius2,
                cvxpy.norm(x - constraint.center1, 1) <= constraint.radius1,
            ],
        )
        prob.solve(solver="CLARABEL")
        assert np.linalg.norm(w - x.value) <= 1e-4


def test_bregman_step_zero_gradient_keeps_feasible_point():
    rng = np.random.default_rng(46)
    center = rng.standard_normal(6)
    constraint = SparseConstraint(center2=center, radius2=1.0, center1=center,
                                  radius1=1.5)
    # exactly feasible start: the shared center has violation 0, so the
    # zero-gradient step must return it unchanged
    out, mu, lam = bregman_step(center, np.zeros(6), 0.1, constraint, center, mirror_p(6))
    assert np.array_equal(out, center)
    assert (mu, lam) == (0.0, 0.0)
    # a start projected into K (feasible up to rounding) comes back
    loose = random_constraint(rng, 6)
    u_t = project_intersection(rng.standard_normal(6), loose)
    out2, _, _ = bregman_step(u_t, np.zeros(6), 0.1, loose, loose.center1.copy(),
                        mirror_p(6))
    assert np.linalg.norm(out2 - u_t) <= 1e-7


def test_bregman_step_euclidean_case_inactive_constraints():
    # p = 2 turns the divergence into half squared distance; with both balls
    # slack the unconstrained optimum u_t - alpha*g must come back
    rng = np.random.default_rng(47)
    d = 6
    center = rng.standard_normal(d)
    constraint = SparseConstraint(
        center2=center, radius2=50.0, center1=center, radius1=200.0
    )
    u_t = center + 0.1 * rng.standard_normal(d)
    g = rng.standard_normal(d)
    alpha = 0.01
    out, _, _ = bregman_step(u_t, g, alpha, constraint, center, 2.0)
    assert np.linalg.norm(out - (u_t - alpha * g)) <= 1e-7


def test_bregman_step_output_feasible():
    rng = np.random.default_rng(48)
    for _ in range(10):
        d = int(rng.integers(3, 16))
        constraint = random_constraint(rng, d)
        u1 = project_intersection(constraint.center1, constraint)
        u_t = project_intersection(rng.standard_normal(d), constraint)
        g = rng.standard_normal(d)
        out, _, _ = bregman_step(u_t, g, float(rng.uniform(0.01, 0.5)), constraint, u1,
                           mirror_p(d))
        assert constraint.violation(out) <= 1e-9


def test_bregman_step_matches_solver():
    cvxpy = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(49)
    worst = 0.0
    for k in range(25):
        d = int(rng.integers(3, 24))
        p = mirror_p(d) if k % 3 else 2.0
        constraint = random_constraint(rng, d)
        u1 = project_intersection(constraint.center1 + 0.05 * rng.standard_normal(d),
                                  constraint)
        u_t = project_intersection(rng.standard_normal(d), constraint)
        g = rng.standard_normal(d)
        alpha = float(rng.uniform(0.01, 0.5))
        out, _, _ = bregman_step(u_t, g, alpha, constraint, u1, p)
        ref = cvxpy_bregman(cvxpy, u_t, g, alpha, constraint, u1, p)
        worst = max(worst, float(np.linalg.norm(out - ref)))
    assert worst <= 1e-4


def test_bregman_step_p_validation():
    constraint = SparseConstraint(
        center2=np.zeros(3), radius2=1.0, center1=np.zeros(3), radius1=1.0
    )
    with pytest.raises(InvalidInputError):
        bregman_step(np.zeros(3), np.ones(3), 0.1, constraint, np.zeros(3), 1.0)


def test_sparse_epoch_exact_labels_and_feasibility():
    d, s, T = 12, 3, 40
    dist = hb.make_distribution("gaussian", d)
    rng = np.random.default_rng((50, 0))
    truth = hb.make_ground_truth(d, rng, s=s)
    r = 1.0 / 16.0
    u = rng.standard_normal(d)
    u -= (u @ truth.w_star) * truth.w_star
    w1 = truth.w_star + 4.0 * r * (u / np.linalg.norm(u))
    ledger = hb.QueryLedger()
    out = hb.optimize(w1, r, 0.05, T, "average", dist, hb.massart(0.1), truth, rng,
                      ledger, 0.05, hb.PROFILES["desk"], sparse_s=s)
    assert ledger.label_calls == T
    assert ledger.max_feasibility_gap <= 1e-6
    assert float(np.linalg.norm(out)) <= 1.0 + 1e-12


def test_hard_threshold_feeds_l1_center():
    # the sparse epoch centers its l1 ball on the s largest entries of w1
    w1 = np.array([0.5, -2.0, 0.1, 3.0, 0.0])
    kept = hb.hard_threshold(w1, 2)
    assert np.array_equal(kept, np.array([0.0, -2.0, 0.0, 3.0, 0.0]))


def step_objective(w, u_t, g, alpha, u1, p):
    """alpha*<g, w> + D_R(w, u_t) for R(w) = ||w - u1||_p^2/(2(p-1))."""
    z_w = np.linalg.norm(w - u1, ord=p) ** 2
    z_u = np.linalg.norm(u_t - u1, ord=p) ** 2
    grad = pnorm_sq_grad(u_t - u1, p)
    return float(alpha * (g @ w)) + (z_w - z_u - 2.0 * float(grad @ (w - u_t))) / (2.0 * (p - 1.0))


def step_linear_term(u_t, g, alpha, u1, p):
    """lin of the step, which minimizes <lin, w - u1> + ||w - u1||_p^2/(2(p-1)) over K."""
    return alpha * g - pnorm_sq_grad(u_t - u1, p) / (p - 1.0)


def l1_distance_to_ball2(center2, radius2, center1):
    """min ||x - center1||_1 over ball2(center2, radius2), by bisection on the clipping
    level (no closed form)."""
    v = np.abs(center1 - center2)
    if np.linalg.norm(v) <= radius2:
        return 0.0
    lo, hi = 0.0, float(v.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.sum(np.minimum(v, mid) ** 2) > radius2**2:
            hi = mid
        else:
            lo = mid
    return float(np.sum(np.maximum(v - lo, 0.0)))


def kkt_residual(w, mu, lam, lin, u1, p, constraint):
    """Largest relative KKT violation of (w, mu, lam) for the step with linear term lin.

    Covers stationarity (coordinates on the l1 kink need only |.| <= lam),
    complementary slackness of each ball and mu, lam >= 0, each relative to
    the largest term of the stationarity equation. Feasibility is checked
    separately, through constraint.violation.
    """
    grad = lin + pnorm_sq_grad(w - u1, p) / (p - 1.0)
    d2 = w - constraint.center2
    d1 = w - constraint.center1
    kink = np.abs(d1) <= 1e-12 * (1.0 + np.abs(constraint.center1))
    res = grad + mu * d2
    res = np.where(kink, np.maximum(np.abs(res) - lam, 0.0), np.abs(res + lam * np.sign(d1)))
    scale = max(np.abs(lin).max(), np.abs(grad - lin).max(), mu * np.abs(d2).max(), lam,
                np.finfo(float).tiny)
    gap2 = abs(float(np.linalg.norm(d2)) - constraint.radius2)
    gap1 = abs(float(np.abs(d1).sum()) - constraint.radius1)
    return max(
        float(res.max()) / scale,
        mu * gap2 / (scale * constraint.radius2),
        lam * gap1 / (scale * constraint.radius1),
        -mu * constraint.radius2 / scale,
        -lam / scale,
    )


def test_empty_constraint_is_a_typed_error_once_per_row_epoch():
    # Gaussian d=10, s=2: at epoch j=1 (r = 1/16) the tail of a warm-start row's w1 has
    # l1 mass 1.907, so ball2(w1, 0.25) lies at l1 distance 1.231 from HT_2(w1), beyond
    # radius1 = 1. The row's start-point projection raises before its first step.
    profile = dataclasses.replace(PROFILES["desk"], c_T=0.002, c_S=4.0)
    config = hb.LearnerConfig(
        dist=hb.make_distribution("gaussian", 10), noise=hb.massart(0.2), epsilon=0.3,
        delta=0.05, seed=(7, 0), profile=profile, sparse_s=2,
    )
    with pytest.raises(EmptyConstraintError) as caught:
        hb.learn(config)
    err = caught.value
    assert isinstance(err, NumericalError)
    assert err.radius1 == pytest.approx(1.0, rel=1e-12)
    assert err.distance == pytest.approx(1.23135, rel=1e-5)
    assert "empty constraint set" in str(err)


def test_empty_constraint_raises_from_both_entry_points():
    # an empty set raises where it is built; a nonempty one serves both solver entry points
    center2 = np.zeros(4)
    center1 = np.array([1.0, -1.0, 1.0, 0.0])
    distance = l1_distance_to_ball2(center2, 0.5, center1)
    assert distance > 1.5
    with pytest.raises(EmptyConstraintError) as caught:
        SparseConstraint(center2=center2, radius2=0.5, center1=center1, radius1=1.5)
    assert caught.value.distance == pytest.approx(distance, rel=1e-12)
    # a little more l1 radius makes it a nonempty set
    near = SparseConstraint(center2=center2, radius2=0.5, center1=center1,
                            radius1=distance + 1e-3)
    w = project_intersection(np.ones(4), near)
    assert near.violation(w) <= 1e-12
    w, _, _ = bregman_step(np.zeros(4), np.ones(4), 0.1, near, center1, mirror_p(4))
    assert near.violation(w) <= 1e-12


def test_empty_constraint_raises_when_built_and_through_replace():
    center2, center1 = np.zeros(3), np.array([2.0, 0.0, 0.0])
    # ball2(0, 1) lies at l1 distance 1 from center1
    with pytest.raises(EmptyConstraintError) as caught:
        SparseConstraint(center2=center2, radius2=1.0, center1=center1, radius1=0.5)
    assert (caught.value.distance, caught.value.radius1) == (1.0, 0.5)
    touching = SparseConstraint(center2=center2, radius2=1.0, center1=center1, radius1=1.0)
    with pytest.raises(EmptyConstraintError) as caught:
        dataclasses.replace(touching, radius1=0.5)
    assert (caught.value.distance, caught.value.radius1) == (1.0, 0.5)
    with pytest.raises(EmptyConstraintError):
        dataclasses.replace(touching, radius2=0.5)
    assert dataclasses.replace(touching, radius1=2.0).radius1 == 2.0


def test_sparse_epoch_checks_each_row_constraint_once(monkeypatch):
    # a row's SparseConstraint holds for its whole epoch: built and checked once per row,
    # not again at the start projection and at each of the T mirror steps
    K, T, d, s = 2, 8, 12, 3
    calls = []
    distance = sparse._l1_distance_to_ball2

    def counting(v, radius):
        calls.append(radius)
        return distance(v, radius)

    monkeypatch.setattr(sparse, "_l1_distance_to_ball2", counting)
    dist = hb.make_distribution("gaussian", d)
    rng = np.random.default_rng(54)
    truth = hb.make_ground_truth(d, rng, s=s)
    W1 = np.tile(truth.w_star, (K, 1))
    ledger = hb.QueryLedger()
    optimize_block(W1, 1 / 16, 0.05, T, "average", dist, hb.massart(0.1), truth, rng.spawn(K),
                   ledger, 0.05, PROFILES["desk"], sparse_s=s)
    assert ledger.label_calls == K * T
    assert len(calls) == K


def assert_guesses_reach_cold_step(constraint, u1, u_t, g, alpha, p):
    """Seeded with its cold l2 multiplier scaled by 0.5 or by 2, a step lands on the cold step.

    A step whose l2 ball is slack gets the guesses 0.5 and 2, as a row whose
    last step bound the ball passes one. Returns the cold step's active set,
    (mu > 0, lam > 0).
    """
    lin = step_linear_term(u_t, g, alpha, u1, p)
    w_cold, mu_cold, lam_cold = bregman_step(u_t, g, alpha, constraint, u1, p)
    for scale in (0.5, 2.0):
        w, mu, lam = bregman_step(u_t, g, alpha, constraint, u1, p,
                                  guess=scale * (mu_cold or 1.0))
        assert float(np.abs(w - w_cold).max()) <= 1e-12
        assert (mu > 0.0, lam > 0.0) == (mu_cold > 0.0, lam_cold > 0.0)
        assert constraint.violation(w) <= 1e-12
        assert kkt_residual(w, mu, lam, lin, u1, p, constraint) <= 1e-9
    return mu_cold > 0.0, lam_cold > 0.0


def one_instance_per_active_set(active):
    """(constraint, center1, g, alpha, p) of a step that binds the balls named by active.

    Learner-shaped: u1 = center1 = HT_2(w1), center2 = w1, the step starting at u1.
    """
    d = 8
    p = mirror_p(d)
    rng = np.random.default_rng(60)
    w1 = np.concatenate(([0.8, -0.55], 0.04 * rng.standard_normal(d - 2)))
    center1 = np.where(np.abs(w1) >= 0.5, w1, 0.0)
    g = rng.standard_normal(d)
    radius2, radius1, alpha = {
        "free": (10.0, 10.0, 0.1),
        "ball2": (0.05, 10.0, 0.5),
        "ball1": (10.0, 0.3, 1.0),
        "both": (0.2, 0.3, 1.0),
    }[active]
    constraint = SparseConstraint(center2=w1, radius2=radius2, center1=center1, radius1=radius1)
    return constraint, center1, g, alpha, p


@pytest.mark.parametrize("active", ["free", "ball2", "ball1", "both"])
def test_kkt_holds_on_one_instance_per_active_set(active):
    constraint, center1, g, alpha, p = one_instance_per_active_set(active)
    lin = step_linear_term(center1, g, alpha, center1, p)
    w, mu, lam = _solve(lin, center1, p, constraint)
    w_step, mu_step, lam_step = bregman_step(center1, g, alpha, constraint, center1, p)
    assert np.array_equal(w, w_step) and (mu, lam) == (mu_step, lam_step)
    assert (mu > 0.0, lam > 0.0) == (active in ("ball2", "both"), active in ("ball1", "both"))
    assert constraint.violation(w) <= 1e-12
    assert kkt_residual(w, mu, lam, lin, center1, p, constraint) <= 1e-9
    assert assert_guesses_reach_cold_step(constraint, center1, center1, g, alpha, p) == (
        mu > 0.0, lam > 0.0)


def criterion8_instances():
    """Criterion 8's generator (seed 53): u1 and u_t projected into K, u1 != center1."""
    rng = np.random.default_rng(53)
    for k in range(100):
        d = int(rng.integers(3, 24))
        p = mirror_p(d) if k % 3 else 2.0
        center2 = rng.standard_normal(d)
        center1 = center2 + 0.1 * rng.standard_normal(d)
        constraint = SparseConstraint(
            center2=center2, radius2=float(rng.uniform(0.5, 2.0)),
            center1=center1, radius1=float(rng.uniform(0.5, 2.0)),
        )
        v1 = center1 + 0.05 * rng.standard_normal(d)
        v2 = rng.standard_normal(d)
        g = rng.standard_normal(d)
        alpha = float(rng.uniform(0.01, 0.5))
        yield constraint, v1, v2, g, alpha, p


def learner_instances():
    """Steps as a warm-start row takes them: u1 = center1 = HT_s(w1), center2 = w1,
    radii 4r and 8r*sqrt(2s), g = -y x, each step starting where the last one ended."""
    rng = np.random.default_rng(61)
    for k in range(8):
        d, s = (10, 2) if k % 2 else (12, 3)
        r = 1.0 / 4.0 if k % 4 < 2 else 1.0 / 8.0
        w1 = hb.normalize(rng.standard_normal(d))
        center1, radius1 = hb.hard_threshold(w1, s), 8.0 * r * math.sqrt(2.0 * s)
        if l1_distance_to_ball2(w1, 4.0 * r, center1) > radius1:
            continue  # empty: SparseConstraint would raise
        constraint = SparseConstraint(
            center2=w1, radius2=4.0 * r, center1=center1, radius1=radius1)
        u_t = project_intersection(w1, constraint)
        alpha = (0.5 + k % 3) * r
        for _ in range(3):
            g = -rng.choice([-1.0, 1.0]) * rng.standard_normal(d)
            yield constraint, constraint.center1, u_t, g, alpha, mirror_p(d)
            u_t = bregman_step(u_t, g, alpha, constraint, constraint.center1, mirror_p(d))[0]


def check_against_admm(constraint, u1, u_t, g, alpha, p):
    w, _, _ = bregman_step(u_t, g, alpha, constraint, u1, p)
    # at its old default tolerance, 1e-8, the reference's own objective error reached
    # 5.5e-8 on these instances; 1e-9 brings it under 3.6e-9
    ref = admm_bregman_step(u_t, g, alpha, constraint, u1, p, tol=1e-9)
    exact = step_objective(w, u_t, g, alpha, u1, p)
    reference = step_objective(ref, u_t, g, alpha, u1, p)
    assert constraint.violation(w) <= 1e-12
    assert exact <= reference + 1e-12
    assert reference - exact <= 1e-8


def test_exact_step_matches_admm_reference_on_criterion8_instances():
    for constraint, v1, v2, g, alpha, p in criterion8_instances():
        u1 = project_intersection(v1, constraint)
        u_t = project_intersection(v2, constraint)
        assert not np.array_equal(u1, constraint.center1)
        check_against_admm(constraint, u1, u_t, g, alpha, p)


def test_guessed_step_matches_cold_step_on_criterion8_instances():
    # the sparse epoch seeds each step's search for mu with the row's last mu;
    # criterion 8's instances bind every active set
    active_sets = set()
    for constraint, v1, v2, g, alpha, p in criterion8_instances():
        u1 = project_intersection(v1, constraint)
        u_t = project_intersection(v2, constraint)
        active_sets.add(assert_guesses_reach_cold_step(constraint, u1, u_t, g, alpha, p))
    assert active_sets == {(False, False), (True, False), (False, True), (True, True)}


def test_exact_step_matches_admm_reference_on_learner_instances():
    binding = set()
    for constraint, u1, u_t, g, alpha, p in learner_instances():
        check_against_admm(constraint, u1, u_t, g, alpha, p)
        _, mu, lam = _solve(step_linear_term(u_t, g, alpha, u1, p), u1, p, constraint)
        binding.add((mu > 0.0, lam > 0.0))
    assert binding == {(False, False), (True, False), (False, True), (True, True)}


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(3, 30),
    euclidean=st.booleans(),
    shifted=st.booleans(),
)
def test_exact_step_raises_iff_empty_else_kkt_point(seed, d, euclidean, shifted):
    rng = np.random.default_rng(seed)
    p = 2.0 if euclidean else mirror_p(d)
    center2 = rng.standard_normal(d)
    center1 = center2 + rng.uniform(0.01, 0.5) * rng.standard_normal(d)
    radius2, radius1 = float(rng.uniform(0.05, 2.0)), float(rng.uniform(0.05, 3.0))
    u1 = center1 + 0.1 * rng.standard_normal(d) if shifted else center1.copy()
    u_t = center2 + rng.standard_normal(d)
    g = rng.standard_normal(d)
    alpha = float(rng.uniform(0.01, 1.0))
    distance = l1_distance_to_ball2(center2, radius2, center1)
    assume(abs(distance - radius1) > 1e-9 * radius1)
    if distance > radius1:
        with pytest.raises(EmptyConstraintError):
            SparseConstraint(center2=center2, radius2=radius2, center1=center1, radius1=radius1)
        return
    constraint = SparseConstraint(
        center2=center2, radius2=radius2, center1=center1, radius1=radius1)
    # the projection is the step at p = 2 with no linear term, centered at the point
    w = project_intersection(u_t, constraint)
    w_kkt, mu, lam = _solve(np.zeros(d), u_t, 2.0, constraint)
    assert np.array_equal(w, w_kkt)
    assert constraint.violation(w) <= 1e-12
    assert kkt_residual(w, mu, lam, np.zeros(d), u_t, 2.0, constraint) <= 1e-9
    lin = step_linear_term(u_t, g, alpha, u1, p)
    w, mu_step, lam_step = bregman_step(u_t, g, alpha, constraint, u1, p)
    w_kkt, mu, lam = _solve(lin, u1, p, constraint)
    assert np.array_equal(w, w_kkt) and (mu_step, lam_step) == (mu, lam)
    assert constraint.violation(w) <= 1e-12
    assert kkt_residual(w, mu, lam, lin, u1, p, constraint) <= 1e-9


def test_kkt_holds_where_the_l1_gap_jumps_between_adjacent_multipliers():
    # d=3, p=11.1, ball2 slack: a coordinate whose target crosses 0 moves like
    # |tau|^(1/(p-1)), so the l1 gap drops by about 1e-8 between adjacent floats of
    # lam; the step must still land on the l1 sphere, between the bracket's two ends
    constraint = SparseConstraint(
        center2=np.array([0.18256470175549247, 0.47328203501417476, -1.5740263508133105]),
        radius2=0.9036686064469001,
        center1=np.array([0.20182506972215297, 0.1720239757837395, -1.602829150961228]),
        radius1=0.048012707837740774,
    )
    u1 = np.array([0.12574717650796774, -0.03813583963870243, -1.5052298715656531])
    u_t = np.array([1.3970843661041952, -1.2859433378137899, -2.1616864726362968])
    g = np.array([1.151692561836834, -0.6154878184539985, 0.04088727931267635])
    alpha, p = 0.6273732201077729, mirror_p(3)
    lin = step_linear_term(u_t, g, alpha, u1, p)
    w, mu, lam = _solve(lin, u1, p, constraint)
    assert mu == 0.0 and lam > 0.0
    assert constraint.violation(w) <= 1e-12
    assert abs(float(np.abs(w - constraint.center1).sum()) - constraint.radius1) <= 1e-12
    assert kkt_residual(w, mu, lam, lin, u1, p, constraint) <= 1e-9


def learner_shaped_steps(d, s, seed, count):
    """Steps with center2 = w1, u1 = center1 = HT_s(w1) and radius2 = 4r, as a sparse epoch's,
    at an l1 radius from 5% to 100% of the epoch's 8r*sqrt(2s), so either ball can bind."""
    rng = np.random.default_rng(seed)
    p, r = mirror_p(d), 1.0 / 8.0
    while count:
        w1 = hb.normalize(rng.standard_normal(d))
        center1 = hb.hard_threshold(w1, s)
        radius1 = 8.0 * r * math.sqrt(2.0 * s) * float(rng.uniform(0.05, 1.0))
        if l1_distance_to_ball2(w1, 4.0 * r, center1) > radius1:
            continue
        constraint = SparseConstraint(w1, 4.0 * r, center1, radius1)
        u_t = project_intersection(w1 + 0.3 * rng.standard_normal(d), constraint)
        g, alpha = rng.standard_normal(d), float(rng.uniform(0.1, 1.0))
        count -= 1
        yield constraint, center1, step_linear_term(u_t, g, alpha, center1, p), p


@pytest.fixture
def solves(monkeypatch):
    """The mu of every _Step.solve call, in order; each call is one exact inner solve."""
    solve, mus = sparse._Step.solve, []

    def recording(self, lam, mu):
        mus.append(mu)
        return solve(self, lam, mu)

    monkeypatch.setattr(sparse._Step, "solve", recording)
    return mus


@pytest.mark.parametrize("d, s", [(5, 2), (12, 3)])
def test_guess_first_search_matches_cold_search(solves, d, s):
    # a guess mu_g is solved first: below the root (gap > 0) the search goes up from it
    # and never solves at mu = 0; above it one secular Newton step down brackets the
    # root, or mu = 0 is solved last. d = 5 has p > 2 and d = 12 p < 2
    binds, at_zero = set(), {}
    for constraint, u1, lin, p in learner_shaped_steps(d, s, 70, 40):
        w_cold, mu_cold, lam_cold = _solve(lin, u1, p, constraint)
        if mu_cold == 0.0:
            continue
        binds.add(lam_cold > 0.0)
        for scale in (0.3, 0.9, 1.1, 3.0):
            solves.clear()
            w, mu, lam = _solve(lin, u1, p, constraint, guess=scale * mu_cold)
            assert float(np.abs(w - w_cold).max()) <= 1e-12
            assert (mu > 0.0, lam > 0.0) == (True, lam_cold > 0.0)
            assert constraint.violation(w) <= 1e-12
            assert kkt_residual(w, mu, lam, lin, u1, p, constraint) <= 1e-9
            if lam_cold == 0.0:  # only the l2 ball binds: solves holds this one search
                assert solves[0] == scale * mu_cold
                at_zero.setdefault(scale, set()).add(0.0 in solves)
    assert binds == {False, True}  # steps where only the l2 ball binds, and where both do
    assert at_zero[0.3] == at_zero[0.9] == {False}
    assert at_zero[1.1] == at_zero[3.0] == {False, True}


def test_guess_on_a_slack_l2_ball_returns_mu_zero_and_the_cold_point():
    # the sparse epoch passes a row's last mu even where its next step leaves the l2 ball slack
    for active in ("free", "ball1"):
        constraint, u1, g, alpha, p = one_instance_per_active_set(active)
        lin = step_linear_term(u1, g, alpha, u1, p)
        w_cold, mu_cold, lam_cold = _solve(lin, u1, p, constraint)
        assert mu_cold == 0.0 and (lam_cold > 0.0) == (active == "ball1")
        for guess in (1e-3, 0.5, 2.0, 1e3):
            w, mu, lam = _solve(lin, u1, p, constraint, guess=guess)
            assert mu == 0.0
            assert float(np.abs(w - w_cold).max()) <= 1e-12 and abs(lam - lam_cold) <= 1e-12


def test_projection_of_the_l2_center_is_the_l2_center():
    # there z = a, so ||z - a|| = 0 and the secular Newton factor 1 + gap/r2 is 0
    rng = np.random.default_rng(71)
    for d in (3, 8, 20):
        w1 = hb.normalize(rng.standard_normal(d))
        constraint = SparseConstraint(w1, 0.5, hb.hard_threshold(w1, 2), 4.0)
        assert np.array_equal(project_intersection(w1, constraint), w1)
        w, mu, lam = _solve(np.zeros(d), w1, 2.0, constraint, guess=1.0)
        assert np.array_equal(w, w1) and (mu, lam) == (0.0, 0.0)


def sparse_epoch_d50():
    """One epoch shaped as the sparse-epoch-d50 benchmark's: Gaussian d=50, s=5, epoch 1, T=8,
    from w* plus one false coordinate of size 4r."""
    d, s, j, T = 50, 5, 1, 8
    dist, noise = hb.make_distribution("gaussian", d), hb.massart(0.1)
    schedule = hb.schedule_for(noise, dist, 0.1, 0.05, PROFILES["desk"], sparse_s=s)
    rng = np.random.default_rng((7, 0))
    truth = hb.make_ground_truth(d, rng, s=s)
    r = proximity(j)
    w1 = truth.w_star.copy()
    w1[rng.choice(np.flatnonzero(truth.w_star == 0.0))] = 4.0 * r * rng.choice([-1.0, 1.0])
    ledger = hb.QueryLedger()
    hb.optimize(w1, r, schedule.bandwidths[j], T, "average", dist, noise, truth, rng, ledger,
                0.05, PROFILES["desk"], sparse_s=s)
    return ledger.label_calls


def sparse_warm_start_epoch0():
    """The first epoch of a d=20, s=2, eta=0.2, eps=0.1 warm start, eight streams one at a time."""
    d, s = 20, 2
    dist, noise = hb.make_distribution("gaussian", d), hb.massart(0.2)
    schedule = hb.schedule_for(noise, dist, 0.1, 0.05, PROFILES["desk"], sparse_s=s)
    schedule = dataclasses.replace(schedule, k0=0)
    truth = hb.make_ground_truth(d, np.random.default_rng(5), s=s)
    ledger = hb.QueryLedger()
    for k in range(8):
        warm_start_trials(schedule, dist, noise, truth, [np.random.default_rng((7, k))], ledger)
    return ledger.label_calls


# (inner solves before the guess-first secular search, after it): (54, 41) and (9241, 7006).
# Both counts repeat exactly, so a bound between them catches a search that loses its cut.
@pytest.mark.parametrize("run, steps, bound", [
    (sparse_epoch_d50, 8, 47),
    (sparse_warm_start_epoch0, 8 * 238, 8100),
], ids=["sparse-epoch-d50", "warm-start-epoch0"])
def test_mirror_step_solver_work_stays_bounded(solves, run, steps, bound):
    assert run() == steps
    assert len(solves) <= bound
