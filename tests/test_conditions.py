import itertools

import numpy as np
import pytest

from polygauge import (
    GaugeSpec,
    InfeasibleTarget,
    SolveOptions,
    active_set,
    check_accessibility,
    check_nrc_geometric,
    check_nrc_lasso,
    check_nrc_path,
    check_nrc_sup,
    check_uniform_uniqueness,
    complexity,
    dual_feasibility,
    generators,
    min_linf_representation,
    pen_eval,
    solve,
    zero_threshold,
)
from polygauge import conditions, linprog
from polygauge.experiments import replication_rng
from polygauge.gauge import GeneratorBlowup, _face_rows, _sup_ball
from polygauge.numerics import _svd, null_space_basis, rank
from oracles import fiber_min_oracle
from test_acceptance import STRONG_SIGNAL_X


# ---------------------------------------------------------------------------
# accessibility


def test_accessibility_zero_vector_always():
    rng = np.random.default_rng(0)
    for spec in [GaugeSpec.l1(4), GaugeSpec.sup(4), GaugeSpec.tv(4)]:
        x = rng.standard_normal((2, 4))
        rep = check_accessibility(spec, x, np.zeros(4))
        assert rep.verdict


def test_accessibility_fig2(sup_path_case):
    rep = check_accessibility(sup_path_case["spec"], sup_path_case["x"], sup_path_case["beta"])
    assert rep.verdict
    assert abs(rep.certificate["lp_value"] - 2.0) < 1e-8


def test_accessibility_single_row_l1():
    x = np.array([[1.0, 1.0]])
    spec = GaugeSpec.l1(2)
    assert check_accessibility(spec, x, [1.0, 1.0]).verdict
    rep = check_accessibility(spec, x, [3.0, -1.0])
    assert not rep.verdict
    assert abs(rep.certificate["lp_value"] - 2.0) < 1e-8  # fiber minimum


def test_accessibility_slope_epigraph_matches_generator_route():
    rng = np.random.default_rng(1)
    w = np.array([4.0, 3.0, 2.0, 1.0])
    slope = GaugeSpec.slope(w)
    expanded = GaugeSpec.custom(generators(slope))
    for _ in range(10):
        x = rng.standard_normal((2, 4))
        beta = rng.standard_normal(4)
        r1 = check_accessibility(slope, x, beta)
        r2 = check_accessibility(expanded, x, beta)
        assert abs(r1.certificate["lp_value"] - r2.certificate["lp_value"]) < 1e-7
        assert r1.verdict == r2.verdict


@pytest.mark.parametrize("p", [12, 16])
def test_accessibility_slope_above_p10(p):
    pytest.importorskip("scipy")
    rng = np.random.default_rng(p)
    w = np.arange(p, 0.0, -1.0)
    spec = GaugeSpec.slope(w)
    for _ in range(2):
        x = rng.standard_normal((p // 2, p))
        beta = rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0], p)
        target = x @ beta
        rep = check_accessibility(spec, x, beta)
        value = rep.certificate["lp_value"]
        b = rep.certificate["minimizer"]
        assert np.max(np.abs(x @ b - target)) <= 1e-8 * (1.0 + np.max(np.abs(target)))
        assert abs(pen_eval(spec, b) - value) <= 1e-8 * (1.0 + value)
        ref = fiber_min_oracle(spec, x, target)
        assert abs(value - ref) <= 1e-7 * max(1.0, abs(ref))


def _oracle_specs(rng, p):
    """One gauge per kind in dimension p, with a D whose last row is the sum
    of its first two and a custom U with the zero row and five random rows."""
    d = rng.standard_normal((4, p))
    d[3] = d[0] + d[1]
    return [
        GaugeSpec.l1(p),
        GaugeSpec.sup(p),
        GaugeSpec.tv(p),
        GaugeSpec.tf(p),
        GaugeSpec.genlasso(d),
        GaugeSpec.custom(rng.standard_normal((5, p))),
        GaugeSpec.slope(np.sort(rng.uniform(0.5, 3.0, p))[::-1]),
    ]


def test_accessibility_matches_fiber_oracle():
    # n below, equal to and above p; a repeated row of X; beta = 0 and a
    # nonzero beta in ker(X), both with target 0
    pytest.importorskip("scipy")
    rng = np.random.default_rng(41)
    verdicts = set()
    for trial in range(24):
        p = int(rng.integers(3, 7))
        n = int(rng.integers(2, p + 3))
        x = rng.standard_normal((n, p))
        beta = rng.standard_normal(p) * rng.integers(0, 2, size=p)
        if trial % 4 == 1:
            x[-1] = x[0]
        elif trial % 4 == 2:
            beta = np.zeros(p)
        elif trial % 4 == 3 and n < p:
            beta = null_space_basis(x).vectors[:, 0]
        for spec in _oracle_specs(rng, p):
            rep = check_accessibility(spec, x, beta)
            ref = fiber_min_oracle(spec, x, x @ beta)
            value, b = rep.certificate["lp_value"], rep.certificate["minimizer"]
            assert abs(value - ref) <= 1e-9 * max(1.0, abs(ref)), (trial, spec.kind)
            assert np.max(np.abs(x @ b - x @ beta)) <= 1e-9 * (1.0 + np.max(np.abs(x @ beta)))
            assert abs(pen_eval(spec, b) - value) <= 1e-9 * (1.0 + value)
            assert rep.verdict == (ref - pen_eval(spec, beta) >= -1e-7)
            verdicts.add(rep.verdict)
    assert verdicts == {True, False}


def _desk_case(name):
    """The desk-scale accessibility instances: l1(100) and tf(100) at n = 50
    with five unit entries (their cumsum for tf), tv(200) at n = 100 with five
    unit jumps, slope(24) at n = 12 with entries in {-2, ..., 2}."""
    if name == "slope-24":
        rng = np.random.default_rng(2401)
        x = rng.standard_normal((12, 24))
        return GaugeSpec.slope(np.arange(24.0, 0.0, -1.0)), x, rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0], 24)
    p = 200 if name == "tv-200" else 100
    rng = np.random.default_rng(p)
    x = rng.standard_normal((p // 2, p))
    beta = np.zeros(p)
    beta[rng.choice(p, 5, replace=False)] = 1.0
    if name == "l1-100":
        return GaugeSpec.l1(p), x, beta
    return (GaugeSpec.tv(p) if name == "tv-200" else GaugeSpec.tf(p)), x, np.cumsum(beta)


@pytest.mark.parametrize("name", ["l1-100", "tf-100", "tv-200", "slope-24"])
def test_accessibility_at_desk_scale_matches_highs(name):
    # the primal epigraph LPs raised NumericalFailure on l1(100), tf(100)
    # and slope(24) and took seconds to minutes doing it
    pytest.importorskip("scipy")
    spec, x, beta = _desk_case(name)
    rep = check_accessibility(spec, x, beta)
    ref = fiber_min_oracle(spec, x, x @ beta)
    assert abs(rep.certificate["lp_value"] - ref) <= 1e-9 * max(1.0, abs(ref))
    assert rep.verdict == (ref - pen_eval(spec, beta) >= -1e-7)


def test_accessibility_certificate_carries_the_dual_point():
    # the fiber LP's mu: X'mu lies in B* and exposes beta when accessible;
    # otherwise (X beta)'mu, the fiber minimum, falls short of pen(beta)
    rng = np.random.default_rng(43)
    verdicts = set()
    for trial in range(8):
        p = 5
        x = rng.standard_normal((int(rng.integers(2, 5)), p))
        beta = rng.standard_normal(p) * rng.integers(0, 2, size=p)
        for spec in _oracle_specs(rng, p):
            rep = check_accessibility(spec, x, beta)
            mu, s, pen_beta = rep.certificate["mu"], rep.certificate["dual_point"], rep.certificate["pen_beta"]
            assert np.array_equal(s, x.T @ mu)
            if rep.verdict:
                assert dual_feasibility(spec, s) <= 1e-9
                assert abs(float(beta @ s) - pen_beta) <= 1e-9 * (1.0 + pen_beta)
            else:
                assert float((x @ beta) @ mu) < pen_beta
            verdicts.add(rep.verdict)
    assert verdicts == {True, False}


def _mixing(rng, n, cond):
    """An n x n matrix with singular values spread evenly in log scale from
    1 down to 1 / cond, between two random rotations."""
    q1 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    q2 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return q1 @ np.diag(np.geomspace(1.0, 1.0 / cond, n)) @ q2


@pytest.mark.parametrize("kind", ["l1", "sup"])
def test_accessibility_is_invariant_under_row_mixing(kind):
    # X -> RX keeps row(X), so every verdict; with X as given in the LP,
    # cond(R) = 1e9 raised NumericalFailure on about half of all 2,186
    # patterns.  The null space of RX carries an error of about
    # eps * cond(RX) = 1e-7 relative, hence the 1e-5 on lp_value
    rng = np.random.default_rng(7)
    x0 = rng.standard_normal((4, 7))
    spec = GaugeSpec.l1(7) if kind == "l1" else GaugeSpec.sup(7)
    signs = np.array(list(itertools.product([-1.0, 0.0, 1.0], repeat=7)))
    signs = signs[np.any(signs != 0.0, axis=1)]  # the 2,186 nonzero patterns
    probes = signs[rng.choice(len(signs), 150, replace=False)]
    if kind == "sup":
        probes[probes == 0.0] = 0.5  # the zero entries become non-maximal
    refs = [check_accessibility(spec, x0, beta) for beta in probes]
    assert {rep.verdict for rep in refs} == {True, False}
    for cond in (1.0, 1e6, 1e9):
        x = _mixing(rng, 4, cond) @ x0
        for beta, ref in zip(probes, refs):
            rep = check_accessibility(spec, x, beta)
            assert rep.verdict == ref.verdict, (cond, beta)
            value, ref_value = rep.certificate["lp_value"], ref.certificate["lp_value"]
            assert abs(value - ref_value) <= 1e-5 * (1.0 + ref_value), (cond, beta)


def test_fiber_lp_on_rank_deficient_and_tall_designs():
    # X = AB of rank p - 2, with n = p + 2 or p - 1 rows: U_r and N both
    # have fewer columns than their ambient dimension, so the readback of
    # the minimizer and of mu is checked where neither is square
    pytest.importorskip("scipy")
    rng = np.random.default_rng(47)
    for trial in range(8):
        p = int(rng.integers(4, 7))
        n, r = (p + 2 if trial % 2 else p - 1), p - 2
        x = rng.standard_normal((n, r)) @ rng.standard_normal((r, p))
        assert rank(x) == r
        beta = rng.standard_normal(p) * rng.integers(0, 2, size=p)
        y = x @ beta
        for spec in _oracle_specs(rng, p):
            rep = check_accessibility(spec, x, beta)
            value, b, mu = (rep.certificate[key] for key in ("lp_value", "minimizer", "mu"))
            ref = fiber_min_oracle(spec, x, y)
            assert abs(value - ref) <= 1e-9 * max(1.0, abs(ref)), (trial, spec.kind)
            assert np.max(np.abs(x @ b - y)) <= 1e-9 * (1.0 + np.max(np.abs(y)))
            assert abs(pen_eval(spec, b) - value) <= 1e-9 * (1.0 + value)
            assert abs(float(y @ mu) - value) <= 1e-9 * (1.0 + value)
            assert dual_feasibility(spec, rep.certificate["dual_point"]) <= 1e-9
        target = x @ rng.standard_normal(p)
        ref = fiber_min_oracle(GaugeSpec.sup(p), x, target)
        assert abs(min_linf_representation(x, target) - ref) <= 1e-9 * max(1.0, ref)
        with pytest.raises(InfeasibleTarget):
            min_linf_representation(x, target + null_space_basis(x.T).vectors[:, 0])


def test_accessibility_margin_reported():
    rep = check_accessibility(GaugeSpec.l1(2), np.array([[1.0, 1.0]]), [3.0, -1.0])
    assert rep.margin < -1.0  # value 2 vs pen 4
    assert rep.method == "accessibility-lp"


# ---------------------------------------------------------------------------
# noiseless recovery condition, analytic and geometric


def test_nrc_lasso_orthogonal_design():
    rep = check_nrc_lasso(np.eye(2), [1.0, 0.0])
    assert rep.verdict
    assert abs(rep.certificate["sup_norm"] - 1.0) < 1e-12


def test_nrc_lasso_correlated_column_fails():
    x = np.zeros((4, 3))
    x[0, 0] = 1.0
    x[1, 1] = 1.0
    x[:, 2] = 0.9 * (x[:, 0] + x[:, 1])
    rep = check_nrc_lasso(x, [1.0, 1.0, 0.0])
    assert not rep.verdict
    assert abs(rep.certificate["sup_norm"] - 1.8) < 1e-12


def test_nrc_lasso_zero_vector():
    assert check_nrc_lasso(np.eye(2), [0.0, 0.0]).verdict


def test_nrc_sup_fig2_certificate(sup_path_case):
    rep = check_nrc_sup(sup_path_case["x"], sup_path_case["beta"])
    assert rep.verdict
    assert np.max(np.abs(rep.certificate["vector"] - np.array([0.0, 0.5, 0.5]))) < 1e-9
    assert abs(rep.certificate["l1_norm"] - 1.0) < 1e-9


def test_nrc_sup_identity_all_maximal():
    p = 4
    rep = check_nrc_sup(np.eye(p), np.ones(p))
    assert rep.verdict
    assert abs(rep.certificate["l1_norm"] - 1.0) < 1e-9


def _random_instance(rng):
    n = int(rng.integers(2, 6))
    p = int(rng.integers(2, 6))
    x = rng.standard_normal((n, p))
    return n, p, x


def test_cross_oracle_lasso_vs_geometric():
    rng = np.random.default_rng(2)
    disagreements = 0
    for _ in range(200):
        n, p, x = _random_instance(rng)
        beta = rng.standard_normal(p) * rng.integers(0, 2, size=p)
        analytic = check_nrc_lasso(x, beta)
        geometric = check_nrc_geometric(GaugeSpec.l1(p), x, beta)
        disagreements += analytic.verdict != geometric.verdict
    assert disagreements == 0


def test_cross_oracle_sup_vs_geometric():
    rng = np.random.default_rng(3)
    disagreements = 0
    for _ in range(200):
        n, p, x = _random_instance(rng)
        beta = rng.standard_normal(p)
        if rng.random() < 0.5:  # force ties among maximal components
            m = np.max(np.abs(beta))
            ties = rng.integers(0, p)
            beta[:ties] = m * np.sign(beta[:ties] + 1e-12)
        analytic = check_nrc_sup(x, beta)
        geometric = check_nrc_geometric(GaugeSpec.sup(p), x, beta)
        disagreements += analytic.verdict != geometric.verdict
    assert disagreements == 0


def test_nrc_geometric_l1_large_faces_agree_with_lasso():
    # the eight l1 instances of the face_geometry benchmark: faces of up
    # to 2^9 active sign vectors, tested with unsplit weights alpha >= 0
    rng = np.random.Generator(np.random.Philox(key=np.array([15, 1], dtype=np.uint64)))
    spec = GaugeSpec.l1(10)
    for _ in range(8):
        x = rng.standard_normal((6, 10)) / np.sqrt(6)
        beta = np.zeros(10)
        supp = rng.choice(10, size=int(rng.integers(1, 4)), replace=False)
        beta[supp] = rng.choice([-1.0, 1.0], supp.size) * rng.uniform(0.5, 2.0, supp.size)
        rep = check_nrc_geometric(spec, x, beta)
        assert rep.verdict == check_nrc_lasso(x, beta).verdict
        if rep.verdict:
            alpha = rep.certificate["witness_alpha"]
            assert alpha.min() >= -1e-9 and abs(alpha.sum() - 1.0) <= 1e-9
            image = x.T @ (x @ rep.certificate["witness_point"])
            assert np.max(np.abs(image - rep.certificate["witness_subgradient"])) <= 1e-8


def test_nrc_geometric_reads_span_and_face_from_one_pattern():
    # (1, 6e-9, 6e-9) snaps to the pattern (1, 0, 0).  A basis from that
    # pattern paired with the generator rule's face (the vertex (1, 1, 1))
    # gave a false negative; both now come from the snapped pattern
    spec, x = GaugeSpec.l1(3), np.eye(3)
    beta = np.array([1.0, 6e-9, 6e-9])
    near = check_nrc_geometric(spec, x, beta)
    snapped = check_nrc_geometric(spec, x, [1.0, 0.0, 0.0])
    assert near.verdict and check_nrc_lasso(x, beta).verdict
    assert near.certificate["pattern"] == list(active_set(spec, beta).key[1]) == [1, 0, 0]
    assert near.margin == snapped.margin
    for key in ("witness_point", "witness_alpha", "witness_subgradient"):
        assert np.array_equal(near.certificate[key], snapped.certificate[key])
    rows = _face_rows(spec, np.array(near.certificate["pattern"], dtype=float))
    assert complexity(spec, beta) == spec.p - rank(rows[1:] - rows[0]) == 1


def test_nrc_geometric_slope8_without_expansion():
    # 8! 2^8 signed permutations; the face of beta has 3! 2^3 = 48 of them
    spec = GaugeSpec.slope(np.arange(8.0, 0.0, -1.0))
    beta = np.array([3.0, -2.5, 2.0, 0.0, 1.0, 0.0, -0.5, 0.0])
    rng = np.random.default_rng(0)
    verdicts = []
    for x in [np.eye(8)] + [rng.standard_normal((10, 8)) for _ in range(4)]:
        rep = check_nrc_geometric(spec, x, beta)
        verdicts.append(rep.verdict)
        assert rep.certificate["pattern"] == list(active_set(spec, beta).key[1])
        if rep.verdict:
            w, s = rep.certificate["witness_point"], rep.certificate["witness_subgradient"]
            assert np.max(np.abs(x.T @ (x @ w) - s)) <= 1e-8
            assert abs(float(s @ beta) - pen_eval(spec, beta)) <= 1e-9
            assert dual_feasibility(spec, s) <= 1e-9
    assert verdicts == [True, True, False, True, False]


def test_nrc_path_tv30():
    # 2^29 generators: the generator route of active_set raised here
    beta = np.repeat([1.0, 2.0, 3.5], 10)
    rep = check_nrc_path(GaugeSpec.tv(30), np.eye(30), beta, grid_size=20)
    assert rep.verdict and rep.certificate["lambda_found"] is not None
    with pytest.raises(GeneratorBlowup):  # its face has 2^27 generator rows
        check_nrc_geometric(GaugeSpec.tv(30), np.eye(30), beta)


def test_nrc_implies_accessibility_on_random_instances():
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(120):
        n, p, x = _random_instance(rng)
        beta = rng.standard_normal(p) * rng.integers(0, 2, size=p)
        spec = GaugeSpec.l1(p)
        if check_nrc_lasso(x, beta).verdict:
            checked += 1
            assert check_accessibility(spec, x, beta).verdict
    assert checked > 10


def test_nrc_path_fig2(sup_path_case):
    rep = check_nrc_path(sup_path_case["spec"], sup_path_case["x"], sup_path_case["beta"], unique_verified=True)
    assert rep.verdict
    assert rep.certificate["lambda_found"] < 8.0 / 3.0


def test_nrc_path_zero_vector(sup_path_case):
    rep = check_nrc_path(sup_path_case["spec"], sup_path_case["x"], np.zeros(3))
    assert rep.verdict


def test_nrc_path_agrees_with_geometric_negative():
    # correlated-column design: sign recovery impossible on the noiseless path
    x = np.zeros((4, 3))
    x[0, 0] = 1.0
    x[1, 1] = 1.0
    x[:, 2] = 0.9 * (x[:, 0] + x[:, 1])
    beta = np.array([1.0, 1.0, 0.0])
    assert not check_nrc_geometric(GaugeSpec.l1(3), x, beta).verdict
    rep = check_nrc_path(GaugeSpec.l1(3), x, beta, grid_size=100)
    assert not rep.verdict
    assert any("one-sided" in c for c in rep.caveats)


def test_zero_threshold_matches_path_zero_segment(sup_path_case):
    lam0 = zero_threshold(sup_path_case["spec"], sup_path_case["x"], sup_path_case["y"])
    assert abs(lam0 - 20.0) < 1e-12
    res = solve(sup_path_case["spec"], sup_path_case["x"], sup_path_case["y"], lam0 * 1.001)
    assert np.max(np.abs(res.beta)) < 1e-9


# ---------------------------------------------------------------------------
# min-linf representation


def test_min_linf_identity():
    assert abs(min_linf_representation(np.eye(2), [3.0, -1.0]) - 3.0) < 1e-9


def test_min_linf_fig2(sup_path_case):
    assert abs(min_linf_representation(sup_path_case["x"], sup_path_case["y"]) - 2.0) < 1e-9


def test_min_linf_infeasible_target():
    x = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(InfeasibleTarget):
        min_linf_representation(x, [0.0, 1.0])


def _fig5_draws(reps):
    """(k, X, X 1_I) of fig-5 replications at n = 40, p = 60: the first
    p - k columns of X form the maximal set I, drawn as
    run_accessibility_sweep draws them."""
    n, p = 40, 60
    for k in (5, 20, 35):
        for rep in range(reps):
            rng = replication_rng(3, (k << 32) | rep)
            x = rng.standard_normal((n, p)) / np.sqrt(n)
            yield k, x, x[:, : p - k] @ np.ones(p - k)


def _sup_rows(p):
    return np.vstack([np.eye(p), -np.eye(p)])


def test_min_linf_dual_form_matches_highs():
    pytest.importorskip("scipy")
    from scipy.optimize import linprog as highs

    n, p = 40, 60
    ones = np.ones((p, 1))
    a_ub = np.vstack([np.hstack([np.eye(p), -ones]), np.hstack([-np.eye(p), -ones])])
    for _, x, target in _fig5_draws(4):
        factors = _svd(x)
        value, gamma, _ = conditions._fiber_lp(factors, conditions._preimage(x, factors, target), _sup_ball(p))
        assert value == min_linf_representation(x, target)
        ref = highs(np.append(np.zeros(p), 1.0), A_ub=a_ub, b_ub=np.zeros(2 * p),
                    A_eq=np.hstack([x, np.zeros((n, 1))]), b_eq=target,
                    bounds=[(None, None)] * (p + 1), method="highs")
        assert ref.status == 0, ref.message
        assert abs(value - ref.fun) <= 1e-9 * (1.0 + abs(ref.fun))
        assert np.max(np.abs(gamma - ref.x[:p])) <= 1e-8


def test_dual_form_accessibility_minimizers():
    p = 60
    rng = np.random.default_rng(21)
    # a custom gauge whose ball B* holds the sup-norm dual ball and a few
    # random generators, with the zero generator first
    u = np.vstack([np.zeros((1, p)), _sup_rows(p), 0.05 * rng.standard_normal((10, p))])
    for k, x, _ in _fig5_draws(2):
        beta = np.concatenate([np.ones(p - k), np.full(k, 0.5)])
        for spec in (GaugeSpec.sup(p), GaugeSpec.custom(u)):
            rep = check_accessibility(spec, x, beta)
            gamma, value = rep.certificate["minimizer"], rep.certificate["lp_value"]
            assert np.max(np.abs(x @ gamma - x @ beta)) <= 1e-10
            assert abs(pen_eval(spec, gamma) - value) <= 1e-10 * (1.0 + value)
            assert value <= pen_eval(spec, beta) + 1e-10


def test_dual_form_target_outside_column_space():
    rng = np.random.default_rng(22)
    x0 = rng.standard_normal((39, 60)) / np.sqrt(40)
    # the 40th row repeats a combination of the others, so col(X) is a hyperplane
    x = np.vstack([x0, rng.standard_normal(39) @ x0])
    target = x @ rng.standard_normal(60)
    assert min_linf_representation(x, target) > 0.0
    target[-1] += 1.0
    with pytest.raises(InfeasibleTarget):
        min_linf_representation(x, target)
    # decided from the SVD before any LP, so for every ball
    with pytest.raises(InfeasibleTarget):
        conditions._preimage(x, _svd(x), target)
    # D' of a difference matrix misses the constants: 0 is never a minimizer
    for spec in (GaugeSpec.tv(6), GaugeSpec.tf(6)):
        assert zero_threshold(spec, np.eye(6), np.ones(6)) == float("inf")


def _record_lp_solutions(monkeypatch) -> list:
    """A list that collects the LpSolution of every later lp_solve call."""
    sols = []
    solve = linprog.lp_solve

    def recording(problem, *args, **kwargs):
        sols.append(solve(problem, *args, **kwargs))
        return sols[-1]

    monkeypatch.setattr(linprog, "lp_solve", recording)
    return sols


def _fig5_solutions(monkeypatch) -> list:
    """The LpSolution of every fig-5 LP over _fig5_draws(6)."""
    sols = _record_lp_solutions(monkeypatch)
    for _, x, target in _fig5_draws(6):
        min_linf_representation(x, target)
    assert len(sols) == 18
    return sols


def test_fig5_representation_pivot_budget(monkeypatch):
    """The fiber LP over ker X has p - n + 1 = 21 rows: a fig-5 LP takes
    about 55 pivots (the split primal form took about 170 on 160 rows)."""
    pivots = [sol.iterations for sol in _fig5_solutions(monkeypatch)]
    assert np.median(pivots) <= 150


def test_fig5_dual_lp_makes_no_phase1_pivot(monkeypatch):
    # the crash basis z = 0 is feasible: b = 0 on the p - n equality rows
    # and 1 on the simplex row.  Phase 1 run to optimality made about 50
    # degenerate pivots on each draw, about 125 in total; stopped at once
    # the LP took about 95, 40 eliminations of the free mu included.  Posed
    # over ker X it has no free column and takes about 55, the drive-out
    # of 20 artificials included
    forms = []
    standard_form = linprog._StandardForm
    monkeypatch.setattr(linprog, "_StandardForm", lambda problem: forms.append(standard_form(problem)) or forms[-1])
    sols = _fig5_solutions(monkeypatch)
    assert len(forms) == 18 and all(form.free.size == 0 for form in forms)
    assert all(sol.phase1_pivots == 0 and not sol.bland for sol in sols)
    assert np.median([sol.iterations for sol in sols]) <= 65


def test_slope30_accessibility_matches_oracle():
    # phase 1 run to optimality left a primal residual of 2.4e-5 after
    # 1,589 pivots here, and the residual guard raised NumericalFailure
    rng = np.random.default_rng(3001)
    x = rng.standard_normal((15, 30))
    beta = rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0], 30)
    spec = GaugeSpec.slope(np.arange(30.0, 0.0, -1.0))
    value = check_accessibility(spec, x, beta).certificate["lp_value"]
    assert abs(value - 541.9476151052141) <= 1e-9 * value  # fiber_min_oracle's value
    pytest.importorskip("scipy")
    ref = fiber_min_oracle(spec, x, x @ beta)
    assert abs(value - ref) <= 1e-9 * ref


def test_tf100_dual_feasibility_on_the_boundary(monkeypatch):
    # X'mu of the tf(100) accessibility LP lies on the boundary of B*; its
    # membership LP hit the 44,550-pivot cap after 17-19 s with phase 1 run
    # to optimality, and takes about 120 pivots stopped at the first feasible basis
    spec, x, beta = _desk_case("tf-100")
    s = check_accessibility(spec, x, beta).certificate["dual_point"]
    sols = _record_lp_solutions(monkeypatch)
    assert abs(dual_feasibility(spec, s)) <= 1e-9
    assert len(sols) == 1 and sols[0].iterations <= 1000


# ---------------------------------------------------------------------------
# uniform uniqueness


def test_uniqueness_injective_design():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((5, 3))
    for spec in [GaugeSpec.l1(3), GaugeSpec.sup(3), GaugeSpec.tv(3)]:
        rep = check_uniform_uniqueness(spec, x)
        assert rep.verdict
        assert rep.certificate["deficiency"] == 0


def test_uniqueness_genlasso_counterexample(gen_lasso_nonunique):
    inst = gen_lasso_nonunique
    rep = check_uniform_uniqueness(inst["spec"], inst["x"])
    assert not rep.verdict
    rows = {tuple(np.round(v["generator_rows"][0], 9)) for v in rep.certificate["violating_faces"]}
    assert (4.0, 2.0, 2.0) in rows
    assert all(v["dimension"] == 0 for v in rep.certificate["violating_faces"])


def test_uniqueness_wide_l1_square():
    # row space passes through the cube vertices +-(1,1)
    rep = check_uniform_uniqueness(GaugeSpec.l1(2), np.array([[1.0, 1.0]]))
    assert not rep.verdict


def test_uniqueness_fig2_design_is_unique(sup_path_case):
    rep = check_uniform_uniqueness(sup_path_case["spec"], sup_path_case["x"])
    assert rep.verdict
    assert rep.margin > 1e-7


def _count_lps(monkeypatch) -> dict:
    calls = {"lps": 0}
    for name in ("feasibility", "lp_solve"):
        solver = getattr(linprog, name)

        def counted(*args, _solver=solver, **kwargs):
            calls["lps"] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(linprog, name, counted)
    return calls


def test_uniqueness_verdict_is_the_phase1_test():
    # every face LP of _meets_face has b = (0, ..., 0, 1), so a face counts
    # as met iff its phase-1 value is at most PHASE1_RTOL * (1 + 1)
    rng = np.random.default_rng(23)
    verdicts = set()
    for spec in [GaugeSpec.l1(3), GaugeSpec.sup(4), GaugeSpec.tv(4), GaugeSpec.slope([3.0, 2.0, 1.0])]:
        for trial in range(4):
            x = rng.standard_normal((int(rng.integers(1, spec.p)), spec.p))
            if trial % 2:
                x[0] = np.eye(spec.p)[0]
            rep = check_uniform_uniqueness(spec, x)
            assert rep.verdict == (rep.margin > linprog.PHASE1_RTOL * 2)
            verdicts.add(rep.verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "spec, n, faces",
    [
        (GaugeSpec.sup(20), 18, 2 * 20 + 4 * 190),  # vertices and edges
        (GaugeSpec.tv(8), 6, 2**7 + 7 * 2**6),
        (GaugeSpec.slope([4.0, 3.0, 2.0, 1.0]), 2, 384 + 768),
    ],
    ids=["sup-20", "tv-8", "slope-4"],
)
def test_uniqueness_beyond_the_enumeration_cap(monkeypatch, spec, n, faces):
    # 41, 129 and 385 generators: enumerate_faces refuses all three
    lps = _count_lps(monkeypatch)
    rng = np.random.default_rng(29)
    x = rng.standard_normal((n, spec.p))
    rep = check_uniform_uniqueness(spec, x)
    assert rep.verdict  # a generic row(X) misses the faces below def(X)
    assert rep.certificate["faces_scanned"] == faces
    # one face LP each, plus one covector LP per tv sign vector
    assert lps["lps"] == faces * (2 if spec.kind == "genlasso" else 1)
    if spec.kind == "sup":  # e_1 in row(X): the vertices +-e_1 are met
        e1 = np.eye(spec.p)[0]
        rep = check_uniform_uniqueness(spec, np.vstack([e1, x]))
        assert not rep.verdict
        violating = rep.certificate["violating_faces"]
        assert {tuple(f["generator_rows"][0] + 0.0) for f in violating} == {tuple(e1), tuple(-e1 + 0.0)}


def test_uniqueness_refuses_before_any_lp(monkeypatch):
    lps = _count_lps(monkeypatch)
    x = np.random.default_rng(31).standard_normal((38, 40))
    with pytest.raises(GeneratorBlowup):
        check_uniform_uniqueness(GaugeSpec.l1(40), x)
    assert lps["lps"] == 0


def test_uniqueness_criterion7_lp_budget(monkeypatch):
    lps = _count_lps(monkeypatch)
    rep = check_uniform_uniqueness(GaugeSpec.sup(6), STRONG_SIGNAL_X)
    assert rep.verdict
    assert rep.certificate["faces_scanned"] == 72
    assert lps["lps"] <= 100


def test_unique_designs_give_identical_minimizers(sup_path_case):
    rng = np.random.default_rng(6)
    for _ in range(20):
        y = rng.standard_normal(2) * 3
        r1 = solve(sup_path_case["spec"], sup_path_case["x"], y, 0.8, SolveOptions(tol=1e-9))
        r2 = solve(
            sup_path_case["spec"], sup_path_case["x"], y, 0.8, SolveOptions(tol=1e-9),
            start=rng.standard_normal(3) * 2,
        )
        assert np.max(np.abs(r1.beta - r2.beta)) <= 1e-5


def test_attainability_positive_probability(sup_path_case):
    # unique + accessible: the pattern shows up for y in a set of positive
    # measure; count hits over Gaussian responses at a small lambda grid
    rng = np.random.default_rng(7)
    target = active_set(sup_path_case["spec"], sup_path_case["beta"])
    hits = 0
    draws = 500
    for _ in range(draws):
        y = sup_path_case["y"] + 0.3 * rng.standard_normal(2)
        for lam in (0.5, 1.0, 2.0):
            res = solve(sup_path_case["spec"], sup_path_case["x"], y, lam)
            if active_set(sup_path_case["spec"], res.beta, rel_tol=1e-6) == target:
                hits += 1
                break
    assert hits >= 1


def test_reports_serialize_to_json(sup_path_case):
    import json

    rep = check_nrc_sup(sup_path_case["x"], sup_path_case["beta"])
    text = json.dumps(rep.to_dict())
    assert "margin" in text
    rep2 = check_uniform_uniqueness(sup_path_case["spec"], sup_path_case["x"])
    json.dumps(rep2.to_dict())
