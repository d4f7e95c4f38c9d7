import numpy as np
import pytest

from oracles import grid_argmin_2d, slope_prox_oracle

from polygauge import (
    GaugeSpec,
    pen_eval,
    project_l1_ball,
    project_simplex,
    prox_l1,
    prox_linf,
    prox_sorted_l1,
)
from polygauge.solvers import _prox_max


def test_prox_l1_examples():
    assert np.array_equal(prox_l1([3.0, -0.5], 1.0), [2.0, 0.0])
    v = np.array([0.3, -4.2])
    assert np.array_equal(prox_l1(v, 0.0), v)


def test_prox_l1_grid_oracle():
    rng = np.random.default_rng(0)
    for _ in range(3):
        v = rng.uniform(-2, 2, size=2)
        t = float(rng.uniform(0.1, 1.5))

        def objective(bb):
            return 0.5 * np.sum((bb - v) ** 2, axis=1) + t * np.sum(np.abs(bb), axis=1)

        best = grid_argmin_2d(objective, v)
        assert np.max(np.abs(prox_l1(v, t) - best)) < 1e-3


def test_prox_linf_example_with_subgradient():
    out = prox_linf([3.0, 1.0], 1.0)
    assert np.allclose(out, [2.0, 1.0])
    # optimality: v - prox lies in t * subdifferential of the sup-norm at prox
    assert np.allclose(np.array([3.0, 1.0]) - out, [1.0, 0.0])


def test_prox_linf_grid_oracle():
    rng = np.random.default_rng(1)
    for _ in range(3):
        v = rng.uniform(-2, 2, size=2)
        t = float(rng.uniform(0.1, 1.5))

        def objective(bb):
            return 0.5 * np.sum((bb - v) ** 2, axis=1) + t * np.max(np.abs(bb), axis=1)

        best = grid_argmin_2d(objective, v)
        assert np.max(np.abs(prox_linf(v, t) - best)) < 1e-3


def test_prox_linf_large_t_collapses_to_zero():
    v = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(prox_linf(v, 3.5), np.zeros(3))
    assert np.array_equal(prox_linf(v, 100.0), np.zeros(3))


def test_prox_linf_zero_vector():
    assert np.array_equal(prox_linf(np.zeros(4), 2.0), np.zeros(4))


def test_prox_linf_ties_are_bitwise():
    out = prox_linf([5.0, 3.0, -4.0, 0.1], 2.0)
    m = np.max(np.abs(out))
    assert out[0] == m and out[2] == -m  # exact shared threshold


def test_project_l1_ball_inside_is_identity():
    v = np.array([0.2, -0.3])
    assert np.array_equal(project_l1_ball(v, 1.0), v)


def test_project_l1_ball_radius_zero():
    # the ball of radius 0 is the origin, as for project_simplex and prox_linf
    assert np.array_equal(project_l1_ball([1.0, 2.0], 0.0), np.zeros(2))
    assert np.array_equal(project_l1_ball([-3.0, 0.0, 0.5], 0.0), np.zeros(3))


def test_project_l1_ball_is_the_duchi_formula():
    # v minus the sup-norm prox equals sign(v) max(|v| - theta, 0) (Duchi)
    rng = np.random.default_rng(12)
    for _ in range(50):
        v = rng.standard_normal(7) * 2.0
        v[4] = -v[1]
        radius = float(rng.uniform(0.1, 4.0))
        a = np.abs(v)
        if a.sum() <= radius:
            ref = v
        else:
            u = np.sort(a)[::-1]
            css = np.cumsum(u)
            k = np.arange(1, 8)
            rho = k[u - (css - radius) / k > 0][-1]
            ref = np.sign(v) * np.maximum(a - (css[rho - 1] - radius) / rho, 0.0)
        assert np.array_equal(project_l1_ball(v, radius), ref)


def test_project_l1_ball_norm():
    rng = np.random.default_rng(2)
    for _ in range(50):
        v = rng.standard_normal(6) * 3
        w = project_l1_ball(v, 2.0)
        assert np.sum(np.abs(w)) <= 2.0 + 1e-10
        # projection property: no feasible point is closer
        for _ in range(10):
            z = project_l1_ball(rng.standard_normal(6), 2.0)
            assert np.sum((v - w) ** 2) <= np.sum((v - z) ** 2) + 1e-9


def test_prox_sorted_l1_t_zero():
    v = np.array([1.0, -2.0, 0.3])
    w = np.array([3.0, 2.0, 1.0])
    assert np.array_equal(prox_sorted_l1(v, w, 0.0), v)


def test_prox_sorted_l1_p1_soft_threshold():
    assert prox_sorted_l1([3.0], [2.0], 0.5)[0] == prox_l1([3.0], 1.0)[0]


def test_prox_sorted_l1_matches_pattern_oracle():
    rng = np.random.default_rng(3)
    w = np.array([3.0, 2.0, 1.0])
    for _ in range(25):
        v = rng.uniform(-3, 3, size=3)
        t = float(rng.uniform(0.05, 1.2))
        out = prox_sorted_l1(v, w, t)
        obj_out = 0.5 * np.sum((out - v) ** 2) + t * float(np.sort(np.abs(out))[::-1] @ w)
        obj_best, x_best = slope_prox_oracle(v, w, t)
        assert obj_out <= obj_best + 1e-9
        assert np.max(np.abs(out - x_best)) < 1e-7


def test_prox_sorted_l1_tied_output_is_bitwise():
    out = prox_sorted_l1([2.0, 1.9, -1.95], [3.0, 2.0, 1.0], 0.1)
    mags = np.abs(out)
    assert mags[0] == mags[1] == mags[2]


def test_prox_rejects_negative_threshold():
    for fn in (prox_l1, prox_linf):
        with pytest.raises(ValueError):
            fn([1.0], -0.5)
    with pytest.raises(ValueError):
        prox_sorted_l1([1.0], [1.0], -0.1)


def test_prox_moreau_identity_sup():
    # prox of the gauge plus projection onto the scaled dual ball recovers v
    rng = np.random.default_rng(4)
    spec = GaugeSpec.sup(4)
    for _ in range(20):
        v = rng.standard_normal(4) * 2
        t = float(rng.uniform(0.1, 2.0))
        out = prox_linf(v, t)
        proj = project_l1_ball(v, t)
        assert np.allclose(out + proj, v, atol=1e-12)
        assert pen_eval(GaugeSpec.l1(4), proj) <= t + 1e-12


def test_project_simplex_mixed_signs_variational_inequality():
    # w is the projection of a onto the r-simplex iff (a - w)'(s - w) <= 0
    # for every point s of it, i.e. for every vertex r * e_i
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.standard_normal(5) * 3
        r = float(rng.uniform(0.1, 4.0))
        w = project_simplex(a, r)
        assert np.all(w >= 0.0) and abs(w.sum() - r) < 1e-12
        vertices = r * np.eye(5)
        assert np.max((vertices - w) @ (a - w)) <= 1e-12


def test_prox_max_grid_oracle():
    # the z-prox of the custom-gauge ADMM: argmin 0.5||b - v||^2 + t max(b)
    rng = np.random.default_rng(6)
    for _ in range(3):
        v = rng.uniform(-2, 2, size=2)
        t = float(rng.uniform(0.1, 1.5))

        def objective(bb):
            return 0.5 * np.sum((bb - v) ** 2, axis=1) + t * np.max(bb, axis=1)

        best = grid_argmin_2d(objective, v)
        assert np.max(np.abs(_prox_max(v, t) - best)) < 1e-3
