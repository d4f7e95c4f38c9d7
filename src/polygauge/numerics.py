"""Dense linear-algebra substrate shared by all condition checkers.

Every rank decision in the package goes through a single relative
singular-value cutoff (``RANK_RTOL`` times the largest singular value) so
that pseudoinverses, null spaces and row-space membership tests stay
mutually consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative singular-value cutoff for every rank decision in the package.
RANK_RTOL = 1e-10


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-d float array."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def as_vector(v) -> np.ndarray:
    """Coerce to a finite 1-d float array."""
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size and not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a subspace of R^ambient.

    ``vectors`` has shape (ambient, dim): basis vectors are columns,
    pairwise orthonormal within 1e-10.
    """

    ambient: int
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def contains(self, v, tol: float = 1e-8) -> bool:
        """Whether v lies in the spanned subspace (sup-norm residual test)."""
        v = as_vector(v)
        proj = self.vectors @ (self.vectors.T @ v)
        return float(np.max(np.abs(proj - v), initial=0.0)) <= tol


def pseudoinverse(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse with the package-wide rank cutoff."""
    a = as_matrix(a)
    if a.size == 0:
        return np.zeros((a.shape[1], a.shape[0]))
    return np.linalg.pinv(a, rcond=RANK_RTOL)


def _rank_of(s: np.ndarray) -> int:
    """Number of singular values s (descending) above RANK_RTOL * sigma_max."""
    return int(np.sum(s > RANK_RTOL * s[0])) if s.size and s[0] > 0 else 0


def _svd(a: np.ndarray) -> tuple:
    """(U_r, s_r, V_r, N) with a = U_r diag(s_r) V_r' over the r singular
    values above RANK_RTOL * sigma_max, and N (cols x (cols - r)) an
    orthonormal basis of ker(a).  U is full only for wide a, so a tall a
    costs O(rows * cols^2) and never a rows x rows factor."""
    rows, cols = a.shape
    if a.size == 0:
        return np.zeros((rows, 0)), np.zeros(0), np.zeros((cols, 0)), np.eye(cols)
    u, s, vh = np.linalg.svd(a, full_matrices=rows < cols)
    r = _rank_of(s)
    return u[:, :r], s[:r], vh[:r].T.copy(), vh[r:].T.copy()


def rank(a) -> int:
    """Numerical rank: singular values above RANK_RTOL * sigma_max."""
    a = as_matrix(a)
    return _rank_of(np.linalg.svd(a, compute_uv=False)) if a.size else 0


def null_space_basis(a) -> SubspaceBasis:
    """Orthonormal basis of ker(a); dimension = cols - rank(a)."""
    a = as_matrix(a)
    return SubspaceBasis(a.shape[1], _svd(a)[3])


def row_space_basis(a) -> SubspaceBasis:
    """Orthonormal basis of the row space of a."""
    a = as_matrix(a)
    return SubspaceBasis(a.shape[1], _svd(a)[2])


def in_row_space(a, v, tol: float = 1e-8) -> bool:
    """True iff v lies in the row space of a: ||A'(A')^+ v - v||_inf <= tol."""
    return _row_space_preimage(a, v, tol)[1]


def _row_space_preimage(a, v, tol: float = 1e-8) -> tuple:
    """(g, member): g = (A')^+ v, the least-norm solution of A'g = v in the
    least-squares sense, and the in_row_space test on it."""
    a = as_matrix(a)
    v = as_vector(v)
    if v.shape[0] != a.shape[1]:
        raise ValueError(f"vector length {v.shape[0]} != number of columns {a.shape[1]}")
    at = a.T
    g = pseudoinverse(at) @ v
    return g, float(np.max(np.abs(at @ g - v), initial=0.0)) <= tol


def read_matrix(path) -> np.ndarray:
    """Read a headerless comma-separated matrix (C-locale decimal points)."""
    m = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    return m


def write_matrix(path, a) -> None:
    """Write a matrix as headerless CSV with full double precision."""
    np.savetxt(path, np.atleast_2d(np.asarray(a, dtype=float)), delimiter=",", fmt="%.17g")


def read_vector(path) -> np.ndarray:
    """Read a vector stored as a one-column (or one-row) headerless CSV."""
    m = read_matrix(path)
    if 1 not in m.shape and m.size > 0:
        raise ValueError(f"expected a vector file, got shape {m.shape}")
    return m.reshape(-1)


def write_vector(path, v) -> None:
    """Write a vector as a one-column headerless CSV."""
    write_matrix(path, np.asarray(v, dtype=float).reshape(-1, 1))
