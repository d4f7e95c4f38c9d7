import tracemalloc

import numpy as np
import pytest

from polygauge import (
    in_row_space,
    null_space_basis,
    pseudoinverse,
    GaugeSpec,
    rank,
    read_matrix,
    subdifferential_face,
    read_vector,
    write_matrix,
    write_vector,
)
from polygauge.numerics import row_space_basis


def test_pseudoinverse_identity():
    assert np.allclose(pseudoinverse(np.eye(2)), np.eye(2))


def test_pseudoinverse_2x2_inverse():
    a = np.array([[2.0, 1.0], [1.0, 0.0]])
    expected = np.array([[0.0, 1.0], [1.0, -2.0]])
    assert np.allclose(pseudoinverse(a), expected, atol=1e-12)


def test_pseudoinverse_zero_matrix():
    assert np.array_equal(pseudoinverse(np.zeros((2, 3))), np.zeros((3, 2)))


def test_moore_penrose_identities_random():
    rng = np.random.default_rng(0)
    for _ in range(25):
        m, n = rng.integers(1, 7, size=2)
        a = rng.standard_normal((m, n))
        if rng.random() < 0.3:  # force rank deficiency
            a[:, -1] = a[:, 0] if n > 1 else a[:, -1]
        ap = pseudoinverse(a)
        assert np.allclose(a @ ap @ a, a, atol=1e-8)
        assert np.allclose(ap @ a @ ap, ap, atol=1e-8)
        assert np.allclose((a @ ap).T, a @ ap, atol=1e-8)
        assert np.allclose((ap @ a).T, ap @ a, atol=1e-8)


def test_null_space_simple():
    basis = null_space_basis(np.array([[1.0, 0.0]]))
    assert basis.dim == 1
    assert np.allclose(np.abs(basis.vectors[:, 0]), [0.0, 1.0])


def test_null_space_identity_empty():
    assert null_space_basis(np.eye(3)).dim == 0


def test_null_space_residual():
    a = np.array([[1.0, 1.0, 1.0]])
    basis = null_space_basis(a)
    assert basis.dim == 2
    assert np.max(np.abs(a @ basis.vectors)) < 1e-10
    gram = basis.vectors.T @ basis.vectors
    assert np.allclose(gram, np.eye(2), atol=1e-10)


def test_rank_nullity_random():
    rng = np.random.default_rng(1)
    for _ in range(25):
        m, n = rng.integers(1, 8, size=2)
        a = rng.standard_normal((m, n))
        assert rank(a) + null_space_basis(a).dim == n


def test_tall_rank_and_bases_never_form_the_row_factor():
    # a face of B* at the origin has thousands of vertices: its rank and the
    # bases of a tall matrix must not cost a rows x rows factor (134 MB here)
    rng = np.random.default_rng(4)
    tall = rng.standard_normal((4095, 3)) @ rng.standard_normal((3, 12))
    tracemalloc.start()
    try:
        face = subdifferential_face(GaugeSpec.l1(12), np.zeros(12))
        assert (rank(tall), null_space_basis(tall).dim, row_space_basis(tall).dim) == (3, 9, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert face.dimension == 12 and len(face.vertices) > 4000
    assert peak < 16e6


def test_in_row_space_identity():
    assert in_row_space(np.eye(3), [1.0, -2.0, 0.5])


def test_in_row_space_missing_direction():
    a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert not in_row_space(a, [0.0, 0.0, 1.0])


def test_in_row_space_dimension_mismatch():
    with pytest.raises(ValueError):
        in_row_space(np.eye(2), [1.0, 2.0, 3.0])


def test_in_row_space_nonunique_design_vertex():
    # rank-2 design whose row space contains (4,2,2)
    x = np.array([[1.0, 1.0, 1.0], [3.0, 1.0, 1.0], [np.sqrt(2.0), 0.0, 0.0]])
    assert in_row_space(x, [4.0, 2.0, 2.0])
    assert not in_row_space(x, [2.0, 2.0, 0.0])


def test_in_row_space_constructed_member():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.standard_normal((3, 6))
        z = rng.standard_normal(3)
        assert in_row_space(a, a.T @ z)


def test_matrix_csv_roundtrip(tmp_path):
    a = np.array([[1.5, -2.25, 1e-12], [0.0, 3.0, -4.5]])
    path = tmp_path / "m.csv"
    write_matrix(path, a)
    assert np.array_equal(read_matrix(path), a)


def test_vector_csv_roundtrip(tmp_path):
    v = np.array([0.1, -7.0, 42.0])
    path = tmp_path / "v.csv"
    write_vector(path, v)
    assert np.array_equal(read_vector(path), v)
