"""Sparse-mode geometry: l1/l2 projections and the mirror-descent step."""

import math

import numpy as np
import pytest

import halfband as hb
from halfband.errors import InvalidInputError
from halfband.sparse import (
    SparseConstraint,
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
        # the iterative oracle's default tolerance dominates this gap; the
        # in-package point sits closer to v than the solver's on every seed
        assert np.linalg.norm(w - x.value) <= 1e-4


def test_bregman_step_zero_gradient_keeps_feasible_point():
    rng = np.random.default_rng(46)
    center = rng.standard_normal(6)
    constraint = SparseConstraint(center2=center, radius2=1.0, center1=center,
                                  radius1=1.5)
    # exactly feasible start: the shared center has violation 0, so the
    # zero-gradient step must return it unchanged
    out = bregman_step(center, np.zeros(6), 0.1, constraint, center, mirror_p(6))
    assert np.array_equal(out, center)
    # a numerically feasible start (Dykstra residual ~1e-13) converges back
    loose = random_constraint(rng, 6)
    u_t = project_intersection(rng.standard_normal(6), loose)
    out2 = bregman_step(u_t, np.zeros(6), 0.1, loose, loose.center1.copy(),
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
    out = bregman_step(u_t, g, alpha, constraint, center, 2.0, tol=1e-10)
    assert np.linalg.norm(out - (u_t - alpha * g)) <= 1e-7


def test_bregman_step_output_feasible():
    rng = np.random.default_rng(48)
    for _ in range(10):
        d = int(rng.integers(3, 16))
        constraint = random_constraint(rng, d)
        u1 = project_intersection(constraint.center1, constraint)
        u_t = project_intersection(rng.standard_normal(d), constraint)
        g = rng.standard_normal(d)
        out = bregman_step(u_t, g, float(rng.uniform(0.01, 0.5)), constraint, u1,
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
        out = bregman_step(u_t, g, alpha, constraint, u1, p)
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
