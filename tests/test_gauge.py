import sys

import numpy as np
import pytest

from polygauge import (
    DimensionTooSmall,
    GaugeSpec,
    GeneratorBlowup,
    active_indices,
    active_set,
    complexity,
    dual_feasibility,
    enumerate_faces,
    generators,
    named_pattern,
    pattern_subspace,
    pen_eval,
    subdiff_includes,
    subdifferential_face,
    tf_matrix,
    tv_matrix,
)
from polygauge import check_nrc_geometric, solution_path, solve, verify_thresholded
from polygauge import gauge
from polygauge.conditions import check_uniform_uniqueness
from polygauge.gauge import _face_rows, _faces_below, _pattern, _signed_ranks, round_sig
from polygauge.numerics import null_space_basis, rank

ALL_SMALL_SPECS = [
    GaugeSpec.l1(3),
    GaugeSpec.sup(3),
    GaugeSpec.slope([3.0, 2.0, 1.0]),
    GaugeSpec.tv(3),
    GaugeSpec.tf(4),
]


CRITERION3_D = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [2.0, 1.0, 1.0]])
# a repeated and a zero row: the zero sets are never empty
DEGENERATE_D = np.array([[1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, -1.0]])


def _rows_as_set(u):
    return {tuple(round_sig(row)) for row in u}


# ---------------------------------------------------------------------------
# generators


def test_generators_sup_p2():
    u = generators(GaugeSpec.sup(2))
    assert u.shape == (5, 2)
    assert _rows_as_set(u) == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}
    assert np.array_equal(u[0], [0.0, 0.0])


def test_generators_slope_p2_signed_permutations():
    u = generators(GaugeSpec.slope([2.0, 1.0]))
    expected = {(0, 0)}
    for a, b in [(2, 1), (2, -1), (-2, 1), (-2, -1), (1, 2), (1, -2), (-1, 2), (-1, -2)]:
        expected.add((float(a), float(b)))
    assert _rows_as_set(u) == expected


def test_generators_tv_p2():
    u = generators(GaugeSpec.tv(2))
    assert _rows_as_set(u) == {(0, 0), (-1, 1), (1, -1)}


def test_generators_dedup_from_redundant_d():
    # third row is the sum of the first two: sign flips collide
    d = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [2.0, 1.0, 1.0]])
    u = generators(GaugeSpec.genlasso(d))
    assert u.shape[0] == 7
    assert (4.0, 2.0, 2.0) in _rows_as_set(u)


def test_generator_blowup():
    with pytest.raises(GeneratorBlowup):
        generators(GaugeSpec.slope(np.arange(9, 0, -1.0)))


def test_custom_prepends_zero_row():
    spec = GaugeSpec.custom([[1.0, -1.0], [-1.0, 1.0]])
    u = generators(spec)
    assert np.array_equal(u[0], [0.0, 0.0])
    assert u.shape[0] == 3


def test_slope_weights_must_decrease():
    with pytest.raises(ValueError):
        GaugeSpec.slope([1.0, 1.0])
    with pytest.raises(ValueError):
        GaugeSpec.slope([2.0, -1.0])


# ---------------------------------------------------------------------------
# gauge evaluation and dual membership


def test_pen_l1():
    assert pen_eval(GaugeSpec.l1(2), [3.0, -4.0]) == 7.0


def test_pen_sup_example():
    assert pen_eval(GaugeSpec.sup(5), [1.45, 1.45, 0.56, 0.0, -1.45]) == 1.45


@pytest.mark.parametrize("spec", ALL_SMALL_SPECS)
def test_pen_zero(spec):
    assert pen_eval(spec, np.zeros(spec.p)) == 0.0


@pytest.mark.parametrize("spec", ALL_SMALL_SPECS)
def test_pen_matches_generator_max(spec):
    rng = np.random.default_rng(3)
    u = generators(spec)
    for _ in range(50):
        b = rng.standard_normal(spec.p)
        assert abs(pen_eval(spec, b) - float(np.max(u @ b))) < 1e-12


def test_dual_feasibility_sup_boundary():
    assert abs(dual_feasibility(GaugeSpec.sup(3), [0.0, 0.5, 0.5])) < 1e-12


def test_dual_feasibility_l1_center():
    assert dual_feasibility(GaugeSpec.l1(4), np.zeros(4)) == -1.0


def test_dual_feasibility_custom_outside():
    spec = GaugeSpec.custom([[0.0, 0.0], [1.0, -1.0], [-1.0, 1.0]])
    assert dual_feasibility(spec, [2.0, -2.0]) > 0.5


def test_dual_feasibility_lp_routes_agree():
    # genlasso and custom pose the same sup-norm distance LP over the same B*
    assert abs(dual_feasibility(GaugeSpec.tv(2), [2.0, 0.0]) - 1.0) < 1e-12
    rng = np.random.default_rng(13)
    for spec in [GaugeSpec.tv(3), GaugeSpec.tf(4)]:
        custom = GaugeSpec.custom(generators(spec))
        for scale in (0.2, 3.0):
            s = rng.standard_normal(spec.p) * scale
            assert abs(dual_feasibility(spec, s) - dual_feasibility(custom, s)) < 1e-9


def test_dual_feasibility_slope_at_weight_vector():
    w = [3.0, 2.0, 1.0]
    assert abs(dual_feasibility(GaugeSpec.slope(w), w)) < 1e-12


def test_dual_feasibility_genlasso_member():
    spec = GaugeSpec.tv(3)
    s = spec.d.T @ np.array([0.5, -0.5])
    assert dual_feasibility(spec, s) <= 1e-9
    outside = np.array([1.0, 1.0, 1.0])  # not in col(D') at any scale
    assert dual_feasibility(spec, outside) > 0.1


# ---------------------------------------------------------------------------
# named patterns


def test_pattern_sign():
    assert named_pattern("sign", [1.5, 0.0, -0.2]).values == (1, 0, -1)


def test_pattern_slope_printed_example():
    assert named_pattern("slope", [3.1, -1.2, 0.5, 0, 1.2, -3.1]).values == (3, -2, 1, 0, 2, -3)


def _signed_ranks_loop(b, tol):
    """The chain-merging rank loop: a sorted magnitude above tol starts a
    new rank when it exceeds the previous one above tol by more than tol."""
    rank_of, r, prev = {}, 0, None
    for v in np.sort(np.unique(np.abs(b))):
        if v <= tol:
            rank_of[v] = 0
            continue
        if prev is None or v - prev > tol:
            r += 1
        rank_of[v] = r
        prev = v
    return [int(np.sign(x)) * rank_of[abs(x)] for x in b]


def test_signed_ranks_match_the_loop():
    rng = np.random.default_rng(30)
    for trial in range(400):
        p = int(rng.integers(1, 12))
        b = np.round(3.0 * rng.standard_normal(p), int(rng.integers(0, 3)))
        b[rng.integers(p)] = 0.0
        b[0] = -b[-1]
        tol = [0.0, 1e-6, 0.05, 0.3, 2.0][trial % 5]
        assert _signed_ranks(b, tol).tolist() == _signed_ranks_loop(b, tol)
        assert named_pattern("slope", b).values == tuple(_signed_ranks_loop(b, 0.0))


def test_pattern_sup_printed_example():
    assert named_pattern("sup", [1.45, 1.45, 0.56, 0, -1.45]).values == (1, 1, 0, 0, -1)


def test_pattern_tv_printed_example():
    assert named_pattern("tv", [1.45, 1.45, 0.56, 0.56, -0.45, 0.35]).values == (0, -1, 0, -1, 1)


def test_pattern_tf_second_differences():
    # kinks of the piecewise-linear curve through (j, beta_j)
    assert named_pattern("tf", [1, 2, 3, 5, 7, 7, 7]).values == (0, 1, 0, -1, 0)


def test_pattern_dimension_guards():
    with pytest.raises(DimensionTooSmall):
        named_pattern("tv", [1.0])
    with pytest.raises(DimensionTooSmall):
        named_pattern("tf", [1.0, 2.0])


def test_difference_matrices():
    assert np.array_equal(tv_matrix(3), [[-1, 1, 0], [0, -1, 1]])
    assert np.array_equal(tf_matrix(4), [[1, -2, 1, 0], [0, 1, -2, 1]])


# ---------------------------------------------------------------------------
# active sets and fingerprints


@pytest.mark.parametrize("spec", ALL_SMALL_SPECS)
def test_zero_vector_activates_everything(spec):
    u = generators(spec)
    assert active_indices(spec, np.zeros(spec.p)) == tuple(range(u.shape[0]))


def test_active_set_l1_interior_sign():
    fp = active_set(GaugeSpec.l1(2), [1.0, -2.0])
    assert fp.named.values == (1, -1)
    assert len(active_indices(GaugeSpec.l1(2), [1.0, -2.0])) == 1


def test_active_set_sup_two_maximal():
    spec = GaugeSpec.sup(3)
    idx = active_indices(spec, [0.0, 2.0, 2.0])
    u = generators(spec)
    assert _rows_as_set(u[list(idx)]) == {(0, 1, 0), (0, 0, 1)}


def test_fingerprint_scale_invariance():
    rng = np.random.default_rng(4)
    for spec in ALL_SMALL_SPECS:
        for _ in range(40):
            b = rng.standard_normal(spec.p)
            t = float(rng.uniform(0.1, 50.0))
            assert active_set(spec, b) == active_set(spec, t * b)


def test_fingerprint_equality_matches_active_indices():
    rng = np.random.default_rng(5)
    for spec in ALL_SMALL_SPECS + [GaugeSpec.genlasso(CRITERION3_D), GaugeSpec.genlasso(DEGENERATE_D)]:
        probes = [rng.standard_normal(spec.p) for _ in range(25)]
        probes += [np.round(rng.standard_normal(spec.p) * 2) / 2 for _ in range(25)]
        for a in probes[:20]:
            for b in probes[20:]:
                lhs = active_set(spec, a) == active_set(spec, b)
                rhs = active_indices(spec, a) == active_indices(spec, b)
                assert lhs == rhs


def test_genlasso_patterns_are_covectors():
    # snapping each row of D beta on its own keyed (0, 6e-9, 6e-9) under
    # criterion 3's D (d3 = d1 + d2) as (0, 0, 1), a sign vector no a attains
    spec = GaugeSpec.genlasso(CRITERION3_D)
    assert active_set(spec, (0.0, 6e-9, 6e-9)).key == ("genlasso", (0, 0, 0))
    assert complexity(spec, (0.0, 6e-9, 6e-9)) == 1
    rng = np.random.default_rng(17)
    random_d = rng.standard_normal((5, 4))
    random_d[4] = random_d[0] - 2.0 * random_d[1]
    for d in (CRITERION3_D, DEGENERATE_D, random_d):
        spec = GaugeSpec.genlasso(d)
        m, p = d.shape
        for _ in range(60):
            # a point of a random flat, moved off it by about the snapping tolerance
            rows = rng.choice(m, int(rng.integers(0, m)), replace=False)
            basis = null_space_basis(d[rows]).vectors
            beta = basis @ rng.standard_normal(basis.shape[1])
            beta += rng.choice([3e-9, 6e-9, 2e-8]) * rng.standard_normal(p)
            pattern = np.array(active_set(spec, beta).key[1], dtype=float)
            zero = tuple(int(i) for i in np.flatnonzero(pattern == 0))
            rest = [i for i in range(m) if pattern[i]]
            assert not rest or gauge._is_covector(d, zero, rest, pattern[rest]), (d, beta, pattern)
            assert complexity(spec, beta) == p - rank(d[list(zero)])


def test_local_subdifferential_inclusion():
    # perturbations below half the minimal slack only shrink the active set
    rng = np.random.default_rng(6)
    for spec in ALL_SMALL_SPECS:
        u = generators(spec)
        unorm = np.max(np.sum(np.abs(u), axis=1))
        for _ in range(40):
            b = np.round(rng.standard_normal(spec.p) * 4) / 4
            idx = set(active_indices(spec, b, rel_tol=1e-12))
            vals = u @ b
            pen = pen_eval(spec, b)
            slack = np.array([pen - v for i, v in enumerate(vals) if i not in idx])
            if slack.size == 0:
                continue
            tau = float(slack.min()) / (2.0 * (unorm + 1.0))
            if tau <= 0:
                continue
            h = rng.uniform(-tau, tau, size=spec.p)
            idx_h = set(active_indices(spec, b + h, rel_tol=1e-12))
            assert idx_h <= idx


def test_fingerprint_partition_faces():
    # equal fingerprints must produce identical Face objects
    rng = np.random.default_rng(7)
    for spec in ALL_SMALL_SPECS:
        buckets = {}
        for _ in range(60):
            b = np.round(rng.standard_normal(spec.p) * 2) / 2
            fp = active_set(spec, b)
            face = subdifferential_face(spec, b)
            buckets.setdefault(fp, set()).add(face)
        for faces in buckets.values():
            assert len(faces) == 1


def test_named_pattern_equality_iff_fingerprint_equality():
    rng = np.random.default_rng(8)
    cases = [
        (GaugeSpec.l1(4), "sign"),
        (GaugeSpec.slope([4.0, 3.0, 2.0, 1.0]), "slope"),
        (GaugeSpec.sup(4), "sup"),
        (GaugeSpec.tv(4), "tv"),
    ]
    for spec, kind in cases:
        probes = [np.round(rng.standard_normal(spec.p) * 2) / 2 for _ in range(40)]
        for a in probes[:20]:
            for b in probes[20:]:
                named_eq = named_pattern(kind, a).values == named_pattern(kind, b).values
                fp_eq = active_set(spec, a) == active_set(spec, b)
                assert named_eq == fp_eq


# ---------------------------------------------------------------------------
# faces, complexity, pattern subspaces


def test_face_at_zero_norm_kinds():
    for spec in [GaugeSpec.l1(2), GaugeSpec.sup(2), GaugeSpec.slope([2.0, 1.0])]:
        face = subdifferential_face(spec, np.zeros(2))
        assert face.codimension == 0


def test_face_l1_vertex():
    face = subdifferential_face(GaugeSpec.l1(2), [1.0, 1.0])
    assert face.dimension == 0 and face.codimension == 2


def test_face_sup_edge():
    face = subdifferential_face(GaugeSpec.sup(2), [1.0, 1.0])
    assert face.dimension == 1 and face.codimension == 1


def test_complexity_examples():
    assert complexity(GaugeSpec.l1(3), [1.0, 0.0, -1.0]) == 2
    assert complexity(GaugeSpec.sup(3), [0.0, 2.0, 2.0]) == 2
    for spec in [GaugeSpec.l1(3), GaugeSpec.sup(3), GaugeSpec.slope([3.0, 2.0, 1.0])]:
        assert complexity(spec, np.zeros(3)) == 0


def test_complexity_tv_at_zero_is_codim_of_dual_ball():
    # first-difference gauge vanishes on constants: the dual ball is a
    # segment of codimension 1, so the zero pattern has complexity 1
    assert complexity(GaugeSpec.tv(2), np.zeros(2)) == 1
    assert complexity(GaugeSpec.tf(4), np.zeros(4)) == 2


def _structured_probes(rng, p, count):
    lattice = np.array([-2.0, -1.0, -0.5, 0.0, 0.0, 0.5, 1.0, 2.0])
    out = [rng.standard_normal(p) for _ in range(count // 2)]
    out += [rng.choice(lattice, size=p) for _ in range(count - count // 2)]
    return out


@pytest.mark.parametrize(
    "spec",
    [
        GaugeSpec.l1(4),
        GaugeSpec.sup(4),
        GaugeSpec.slope([4.0, 3.0, 2.0, 1.0]),
        GaugeSpec.tv(4),
        GaugeSpec.tf(5),
        GaugeSpec.l1(6),
        GaugeSpec.sup(6),
        GaugeSpec.slope([6.0, 5.0, 4.0, 3.0, 2.0, 1.0]),
    ],
)
def test_complexity_closed_form_matches_rank(spec):
    rng = np.random.default_rng(11)
    for b in _structured_probes(rng, spec.p, 1000):
        assert complexity(spec, b) == subdifferential_face(spec, b).codimension


@pytest.mark.parametrize("spec", ALL_SMALL_SPECS)
def test_pattern_subspace_dim_equals_complexity(spec):
    rng = np.random.default_rng(12)
    for b in _structured_probes(rng, spec.p, 60):
        basis = pattern_subspace(spec, b)
        assert basis.dim == complexity(spec, b)
        # orthonormal and orthogonal to the face directions
        if basis.dim:
            gram = basis.vectors.T @ basis.vectors
            assert np.allclose(gram, np.eye(basis.dim), atol=1e-10)
        u = generators(spec)
        idx = list(active_indices(spec, b))
        diffs = u[idx[1:]] - u[idx[0]] if len(idx) > 1 else np.zeros((0, spec.p))
        if diffs.size and basis.dim:
            assert np.max(np.abs(diffs @ basis.vectors)) < 1e-9


def test_pattern_subspace_examples():
    basis = pattern_subspace(GaugeSpec.l1(2), np.zeros(2))
    assert basis.dim == 0
    basis = pattern_subspace(GaugeSpec.l1(2), [1.0, 1.0])
    assert basis.dim == 2
    basis = pattern_subspace(GaugeSpec.sup(2), [1.0, 1.0])
    assert basis.dim == 1
    v = basis.vectors[:, 0]
    assert abs(abs(v[0]) - abs(v[1])) < 1e-12


# ---------------------------------------------------------------------------
# face enumeration


def test_enumerate_faces_l1_square():
    faces = enumerate_faces(GaugeSpec.l1(2))
    assert len(faces) == 9
    dims = sorted(f.dimension for f in faces)
    assert dims == [0, 0, 0, 0, 1, 1, 1, 1, 2]


def test_enumerate_faces_sup_diamond():
    faces = enumerate_faces(GaugeSpec.sup(2))
    assert len(faces) == 9


def test_enumerate_faces_hexagon_with_vertex():
    d = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [2.0, 1.0, 1.0]])
    spec = GaugeSpec.genlasso(d)
    faces = enumerate_faces(spec)
    u = generators(spec)
    vertex_rows = {
        tuple(u[f.vertices[0]]) for f in faces if f.dimension == 0
    }
    assert (4.0, 2.0, 2.0) in vertex_rows
    assert len(faces) == 13  # 6 vertices + 6 edges + the hexagon itself


def test_enumerate_faces_cap():
    with pytest.raises(GeneratorBlowup):
        enumerate_faces(GaugeSpec.l1(5))  # 33 generators


# ---------------------------------------------------------------------------
# faces listed from patterns, against the exposure-LP enumeration

ORACLE_SPECS = {
    "l1-2": GaugeSpec.l1(2),
    "l1-3": GaugeSpec.l1(3),
    "sup-2": GaugeSpec.sup(2),
    "sup-3": GaugeSpec.sup(3),
    "sup-4": GaugeSpec.sup(4),
    "sup-5": GaugeSpec.sup(5),
    "tv-3": GaugeSpec.tv(3),
    "tv-4": GaugeSpec.tv(4),
    "criterion3": GaugeSpec.genlasso(CRITERION3_D),
    "genlasso-degenerate": GaugeSpec.genlasso(DEGENERATE_D),
    "slope-2": GaugeSpec.slope([2.0, 1.0]),
}


def _face_key(dimension, rows):
    return dimension, frozenset(tuple(r) for r in round_sig(rows))


@pytest.mark.parametrize("name", list(ORACLE_SPECS))
def test_faces_below_match_enumerated_faces(name):
    spec = ORACLE_SPECS[name]
    u = generators(spec)
    index = {tuple(r): l for l, r in enumerate(round_sig(u))}
    faces = enumerate_faces(spec)  # once per spec, filtered per deficiency
    for deficiency in range(1, spec.p + 1):
        expected = {_face_key(f.dimension, u[list(f.vertices)]) for f in faces if f.dimension < deficiency}
        listed = list(_faces_below(spec, deficiency))
        keys = [_face_key(dim, rows) for dim, rows in listed]
        assert len(set(keys)) == len(keys)
        assert set(keys) == expected
        for _, rows in listed:  # the generators on the face, in generator order
            positions = [index[tuple(r)] for r in round_sig(rows)]
            assert positions == sorted(positions)


UNIQUENESS_SPECS = [
    GaugeSpec.l1(3),
    GaugeSpec.sup(4),
    GaugeSpec.tv(4),
    GaugeSpec.genlasso(CRITERION3_D),
    GaugeSpec.slope([2.0, 1.0]),
]


@pytest.mark.parametrize("spec", UNIQUENESS_SPECS, ids=lambda s: f"{s.kind}-{s.p}")
def test_uniqueness_pattern_route_matches_enumeration_route(spec):
    rng = np.random.default_rng(17)
    enumerated = GaugeSpec.custom(generators(spec))  # same rows, enumerate_faces route
    for trial in range(2):
        x = rng.standard_normal((int(rng.integers(1, spec.p)), spec.p))
        if trial:
            x[0] = np.eye(spec.p)[0]  # a coordinate direction in row(X)
        listed = check_uniform_uniqueness(spec, x)
        scanned = check_uniform_uniqueness(enumerated, x)
        assert listed.verdict == scanned.verdict
        assert listed.certificate["faces_scanned"] == scanned.certificate["faces_scanned"]
        assert abs(listed.margin - scanned.margin) <= 1e-12
        assert {_face_key(f["dimension"], f["generator_rows"]) for f in listed.certificate["violating_faces"]} == {
            _face_key(f["dimension"], f["generator_rows"]) for f in scanned.certificate["violating_faces"]
        }
        assert all("vertices" not in f for f in listed.certificate["violating_faces"])
        assert all("vertices" in f for f in scanned.certificate["violating_faces"])


def test_faces_below_slope3_counts_and_representatives():
    spec = GaugeSpec.slope([3.0, 2.0, 1.0])
    u = generators(spec)
    listed = list(_faces_below(spec, 3))
    counts = [sum(dim == j for dim, _ in listed) for j in range(3)]
    assert counts == [48, 72, 26]
    keys = set()
    for dim, rows in listed:
        # the barycenter has the face's signed ordered partition: nonzero
        # clusters get the means of their weight runs, the zero cluster 0
        beta = rows.mean(axis=0)
        assert _face_key(dim, rows) == _face_key(dim, u[list(active_indices(spec, beta))])
        assert complexity(spec, beta) == spec.p - dim
        keys.add(_face_key(dim, rows))
    assert len(keys) == len(listed)


def test_faces_below_refuses_custom_gauges():
    with pytest.raises(ValueError):
        list(_faces_below(GaugeSpec.custom(np.eye(2)), 1))


# ---------------------------------------------------------------------------
# subdifferential inclusion


def test_subdiff_includes_l1():
    spec = GaugeSpec.l1(3)
    assert subdiff_includes(spec, [1.0, -2.0, 0.5], [1.0, -2.0, 0.0])
    assert subdiff_includes(spec, [1.0, -2.0, 0.5], [0.0, 0.0, 0.0])
    assert not subdiff_includes(spec, [1.0, -2.0, 0.0], [1.0, -2.0, 0.5])
    assert not subdiff_includes(spec, [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0])


def test_subdiff_includes_sup():
    spec = GaugeSpec.sup(3)
    assert subdiff_includes(spec, [2.0, 1.0, -1.0], [2.0, 2.0, -2.0])
    assert not subdiff_includes(spec, [2.0, 2.0, -1.0], [2.0, 1.0, -1.0])
    assert subdiff_includes(spec, [2.0, 1.0, 0.0], [0.0, 0.0, 0.0])


SUBDIFF_SPECS = [
    GaugeSpec.l1(3),
    GaugeSpec.sup(3),
    GaugeSpec.slope([3.0, 2.0, 1.0]),
    GaugeSpec.slope([4.0, 3.0, 2.0, 1.0]),
    GaugeSpec.tv(4),
    GaugeSpec.tf(5),
    GaugeSpec.genlasso(CRITERION3_D),
    GaugeSpec.genlasso(DEGENERATE_D),
]


def test_subdiff_includes_materialized_matches_closed_form():
    # the pattern order rules against mask inclusion over the same rows
    rng = np.random.default_rng(13)
    lattice = np.array([-1.0, -0.5, 0.0, 0.0, 0.5, 1.0])
    for named in SUBDIFF_SPECS:
        mat = GaugeSpec.custom(generators(named))
        outcomes = set()
        for _ in range(150):
            a, b = rng.choice(lattice, size=named.p), rng.choice(lattice, size=named.p)
            if rng.random() < 0.3:  # b a coarsening of a: merge or zero some entries
                b = np.where(rng.random(named.p) < 0.5, np.round(a), a)
            verdict = subdiff_includes(named, a, b)
            assert verdict == subdiff_includes(mat, a, b), (named.kind, a, b)
            outcomes.add(verdict)
        assert outcomes == {True, False}


def test_subdiff_includes_rejects_wrong_lengths():
    with pytest.raises(ValueError, match="1 and 3.*p = 3"):
        subdiff_includes(GaugeSpec.l1(3), [1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="3 and 2.*p = 3"):
        subdiff_includes(GaugeSpec.sup(3), [1.0, 2.0, 3.0], [1.0, 2.0])


def test_subdiff_includes_slope8_without_expansion():
    # 8! 2^8 signed permutations: generators() refuses this gauge
    spec = GaugeSpec.slope(np.arange(8.0, 0.0, -1.0))
    inner = np.array([3.0, -2.5, 2.0, 0.0, 1.0, 0.0, -0.5, 0.0])
    outer = np.array([3.0, -3.0, 2.0, 0.0, 1.0, 0.0, 0.0, 0.0])  # two clusters merged, one zeroed
    assert subdiff_includes(spec, inner, outer)
    assert not subdiff_includes(spec, outer, inner)
    assert not subdiff_includes(spec, inner, -outer)
    assert not subdiff_includes(spec, inner, outer[::-1])


# ---------------------------------------------------------------------------
# one pattern -> face map


FACE_ROW_SPECS = {f"{s.d_name or s.kind}-{s.p}": s for s in ALL_SMALL_SPECS} | ORACLE_SPECS


@pytest.mark.parametrize("name", list(FACE_ROW_SPECS))
def test_face_rows_match_the_materialized_active_rows(name):
    spec = FACE_ROW_SPECS[name]
    rng = np.random.default_rng(41)
    u = generators(spec)
    lattice = np.array([-2.0, -1.0, -0.5, 0.0, 0.0, 0.5, 1.0, 2.0])
    for b in [np.zeros(spec.p)] + [rng.choice(lattice, size=spec.p) for _ in range(60)]:
        rows = _face_rows(spec, _pattern(spec, b, 1e-8 * max(1.0, pen_eval(spec, b))))
        expected = u[list(active_indices(spec, b))]
        if spec.kind == "genlasso":  # D' applied to fewer sign vectors: BLAS may round apart
            assert rows.shape == expected.shape and np.max(np.abs(rows - expected), initial=0.0) <= 1e-15
        else:
            assert rows.tobytes() == expected.tobytes()


def test_active_set_tv30_is_the_tv_pattern():
    # 2^29 generators: the generator route raised GeneratorBlowup here
    beta = np.repeat([1.0, 2.5, -0.5], 10)
    fp = active_set(GaugeSpec.tv(30), beta)
    assert fp.named == named_pattern("tv", beta)
    assert fp.key == ("genlasso", named_pattern("tv", beta).values)
    assert fp.active is None
    assert complexity(GaugeSpec.tv(30), beta) == 3


def _guard(monkeypatch, name):
    """Make every binding of gauge.<name> raise for a non-custom gauge."""
    orig = getattr(gauge, name)

    def guarded(spec, *args, **kwargs):
        if spec.kind != "custom":
            raise AssertionError(f"{name} called for a {spec.kind} gauge")
        return orig(spec, *args, **kwargs)

    modules = [m for k, m in sys.modules.items() if k == "polygauge" or k.startswith("polygauge.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is orig:
                monkeypatch.setattr(module, attr, guarded)


@pytest.mark.parametrize(
    "spec",
    [GaugeSpec.l1(4), GaugeSpec.sup(4), GaugeSpec.slope([4.0, 3.0, 2.0, 1.0]), GaugeSpec.tv(5)],
    ids=lambda s: s.kind,
)
def test_named_kinds_never_expand_generators(monkeypatch, spec):
    _guard(monkeypatch, "generators")
    _guard(monkeypatch, "active_indices")
    with pytest.raises(AssertionError):
        gauge.generators(GaugeSpec.l1(2))  # the guard is live
    rng = np.random.default_rng(43)
    x = rng.standard_normal((3, spec.p))
    beta = np.array([1.0, -1.0, 0.0, 2.0, 2.0])[: spec.p]
    y = x @ beta
    fp = active_set(spec, beta)
    assert complexity(spec, beta) == pattern_subspace(spec, beta).dim
    check_nrc_geometric(spec, x, beta)
    check_uniform_uniqueness(spec, x)
    subdiff_includes(spec, beta, 2.0 * beta)
    if spec.kind in ("l1", "sup"):
        verify_thresholded(spec, beta, beta, 0.1)
    res = solve(spec, x, y, 0.1)
    assert res.converged
    active_set(spec, res.beta)
    path = solution_path(spec, x, y, 0.05, 5.0, grid_size=5)
    assert len(path.fingerprints) == 5 and fp.key[0] == spec.kind
