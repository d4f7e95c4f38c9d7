"""Polyhedral gauges, their generators, subdifferential faces and patterns.

A gauge here is pen(b) = max(u_1'b, ..., u_k'b) with u_1 = 0.  The polytope
B* = conv(u_1, ..., u_k) is the subdifferential at zero; the subdifferential
at any point is the face of B* spanned by the generators attaining the max,
and two points share a pattern exactly when those faces coincide.  The
pattern complexity is the codimension of that face.

Fingerprint canonicalization (the bijection backing equality tests).  One
snapped pattern array names the face for every kind (``_pattern``), and the
basis of the pattern class, a point of the face and the generator rows on
it are all read from that array (``_basis``, ``_face_point``,
``_face_rows``); no named kind expands generators() on the way.

* l1       -- the sign vector in {-1,0,1}^p; the face holds the sign
              vectors of the cube agreeing with it on its support.
* slope    -- the signed-rank vector (zero for zero entries, equal ranks for
              equal magnitudes, order-preserving); it determines the face's
              signed permutations of the weight vector (Schneider &
              Tardivel, JMLR 2022).
* sup      -- the vector with +-1 on maximal-magnitude entries; the face
              holds the matching signed unit vectors (all of them at zero).
* genlasso -- the sign vector of D beta in {-1,0,1}^m.  B* = D'[-1,1]^m is
              a zonotope, whose faces correspond one-to-one to the covectors
              sign(D a) (Ziegler, Lectures on Polytopes, Lecture 7); the
              face is D' applied to the cube face of the sign vector.
* custom   -- the 0/1 mask of the active rows of U beta.

For a D with dependent rows the zero rows of D beta are closed under span
first, so the key is a covector.  ``_ball`` is the one LP statement of B*.

Named patterns themselves use exact component equality; tolerances live in
``active_set`` only.  Callers feeding solver output into exact extractors
should pre-round (``round_sig``) first.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linprog
from .numerics import as_matrix, as_vector, null_space_basis, rank, row_space_basis, SubspaceBasis

# generators() refuses to expand beyond this many rows
GENERATOR_CAP = 2**20
# enumerate_faces tests all 2^k generator subsets, so k stays at most this
_FACE_ENUMERATION_CAP = 16
# enumerate_faces accepts a subset as an exact active set above this margin
EXPOSURE_MARGIN = 1e-9
# _faces_below refuses beyond this many faces (genlasso: covector LPs), the
# LP budget of a full enumeration at _FACE_ENUMERATION_CAP; _face_rows
# refuses a face with more generator rows than this
_FACE_LISTING_CAP = 2**_FACE_ENUMERATION_CAP
CANON_DIGITS = 12


class GeneratorBlowup(RuntimeError):
    """Generator expansion would exceed the cap; use an analytic shortcut."""


class DimensionTooSmall(ValueError):
    """Difference-based pattern asked for on a too-short vector."""


def round_sig(v, digits: int = CANON_DIGITS) -> np.ndarray:
    """Round to `digits` significant digits componentwise; -0.0 becomes 0.0."""
    v = np.asarray(v, dtype=float)
    out = v.copy()
    nz = out != 0.0
    if np.any(nz):
        mag = np.floor(np.log10(np.abs(out[nz])))
        scale = 10.0 ** (digits - 1 - mag)
        out[nz] = np.round(out[nz] * scale) / scale
    return out + 0.0


def tv_matrix(p: int) -> np.ndarray:
    """First-order difference matrix, shape (p-1, p)."""
    if p < 2:
        raise DimensionTooSmall("first-order differences need p >= 2")
    d = np.zeros((p - 1, p))
    for i in range(p - 1):
        d[i, i] = -1.0
        d[i, i + 1] = 1.0
    return d


def tf_matrix(p: int) -> np.ndarray:
    """Second-order difference matrix, shape (p-2, p)."""
    if p < 3:
        raise DimensionTooSmall("second-order differences need p >= 3")
    d = np.zeros((p - 2, p))
    for i in range(p - 2):
        d[i, i] = 1.0
        d[i, i + 1] = -2.0
        d[i, i + 2] = 1.0
    return d


def _dedup_rows(u: np.ndarray) -> np.ndarray:
    """Deduplicate rows by byte equality after canonical 12-digit rounding,
    preserving first-occurrence order."""
    if u.shape[0] == 0:
        return u
    canon = round_sig(u)
    _, first = np.unique(canon, axis=0, return_index=True)
    keep = np.sort(first)
    return np.asarray(u[keep], dtype=float)


@dataclass(frozen=True, eq=False)
class GaugeSpec:
    """A polyhedral gauge: named family or explicit generator matrix.

    kind is one of "l1", "slope", "sup", "genlasso", "custom".  Instances
    are immutable and safe to share across threads.
    """

    kind: str
    p: int
    weights: tuple | None = None
    d: np.ndarray | None = None
    d_name: str | None = None  # "tv"/"tf" when built by those factories
    u: np.ndarray | None = None

    @classmethod
    def l1(cls, p: int) -> "GaugeSpec":
        if p < 1:
            raise ValueError("p must be positive")
        return cls(kind="l1", p=p)

    @classmethod
    def sup(cls, p: int) -> "GaugeSpec":
        if p < 1:
            raise ValueError("p must be positive")
        return cls(kind="sup", p=p)

    @classmethod
    def slope(cls, weights) -> "GaugeSpec":
        w = as_vector(weights)
        if w.size < 1:
            raise ValueError("empty weight vector")
        if np.any(w <= 0) or np.any(np.diff(w) >= 0):
            raise ValueError("slope weights must be strictly decreasing and positive")
        return cls(kind="slope", p=w.size, weights=tuple(float(x) for x in w))

    @classmethod
    def genlasso(cls, d, d_name: str | None = None) -> "GaugeSpec":
        d = as_matrix(d).copy()
        if d.shape[0] < 1:
            raise ValueError("D must have at least one row")
        d.setflags(write=False)
        return cls(kind="genlasso", p=d.shape[1], d=d, d_name=d_name)

    @classmethod
    def tv(cls, p: int) -> "GaugeSpec":
        return cls.genlasso(tv_matrix(p), d_name="tv")

    @classmethod
    def tf(cls, p: int) -> "GaugeSpec":
        return cls.genlasso(tf_matrix(p), d_name="tf")

    @classmethod
    def custom(cls, u) -> "GaugeSpec":
        u = _dedup_rows(as_matrix(u))
        p = u.shape[1]
        zero_at = [i for i in range(u.shape[0]) if np.all(round_sig(u[i]) == 0.0)]
        if zero_at:
            order = zero_at + [i for i in range(u.shape[0]) if i not in zero_at]
            u = u[order]
        else:
            u = np.vstack([np.zeros((1, p)), u])
        u.setflags(write=False)
        return cls(kind="custom", p=p, u=u)

    @property
    def weight_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)


def generators(spec: GaugeSpec) -> np.ndarray:
    """Materialize the generator matrix U with u_1 = 0, rows distinct: for
    the named kinds, the rows of the face of the all-zero pattern, which is
    B* itself (_face_rows).

    Raises GeneratorBlowup when the expanded count exceeds the 2^20 cap.
    The result is cached on the spec (immutable derived data).
    """
    cached = getattr(spec, "_generator_cache", None)
    if cached is not None:
        return cached
    if spec.kind == "custom":
        u = np.asarray(spec.u, dtype=float)
    else:
        u = _face_rows(spec, np.zeros(spec.p if spec.d is None else spec.d.shape[0]), GENERATOR_CAP)
    u.setflags(write=False)
    object.__setattr__(spec, "_generator_cache", u)
    return u


def _pen(kind: str, b: np.ndarray, w=None) -> float:
    """pen(b) on an unvalidated float vector for l1, sup and slope (weights
    w); for genlasso and custom, b is the image D beta or U beta."""
    if kind in ("l1", "genlasso"):
        return float(np.abs(b).sum())
    if kind == "sup":
        return float(np.abs(b).max(initial=0.0))
    if kind == "slope":
        return float(np.sort(np.abs(b))[::-1] @ w)
    return float(b.max(initial=0.0))


def _dual_gauge(kind: str, s: np.ndarray, w=None) -> float:
    """min {t : s in t B*} on an unvalidated float vector, for l1, sup and
    slope (weights w)."""
    if kind == "l1":
        return float(np.abs(s).max(initial=0.0))
    if kind == "sup":
        return float(np.abs(s).sum())
    return float(np.max(np.cumsum(np.sort(np.abs(s))[::-1]) / np.cumsum(w)))


def pen_eval(spec: GaugeSpec, b) -> float:
    """Gauge value; closed form for named kinds, generator max otherwise."""
    b = as_vector(b)
    if b.shape[0] != spec.p:
        raise ValueError(f"vector length {b.shape[0]} != ambient dimension {spec.p}")
    image = {"genlasso": spec.d, "custom": spec.u}.get(spec.kind)
    return _pen(spec.kind, b if image is None else image @ b, spec.weights)


def _ball(spec: GaugeSpec) -> tuple:
    """B* as LP rows, (G, (lo, hi), A) with B* = {G'z : lo <= z <= hi, A z <= 1},
    read by dual_feasibility and the fiber LP of conditions:

    l1, genlasso -- G = I or D, the box -1 <= z <= 1, no rows of A;
    sup, custom  -- G = [I; -I] or U, z >= 0, A = 1' (conv of the rows);
    slope        -- G holds the rows w_k e_i, then -w_k e_i, z = (P+, P-) >= 0
                    and A the p row and p column sums of P+ + P-, so
                    G'z = (P+ - P-) w with P+ + P- doubly substochastic:
                    exactly |s| weakly majorized by w."""
    kind, p = spec.kind, spec.p
    if kind == "sup":
        return _sup_ball(p)
    if kind == "custom":
        return spec.u, (0.0, None), np.ones((1, spec.u.shape[0]))
    if kind == "slope":
        plus = np.kron(np.eye(p), spec.weight_array[:, None])  # row i*p + k: w_k e_i
        sums = np.vstack([np.kron(np.eye(p), np.ones((1, p))), np.kron(np.ones((1, p)), np.eye(p))])
        return np.vstack([plus, -plus]), (0.0, None), np.hstack([sums, sums])
    g = np.eye(p) if kind == "l1" else spec.d
    return g, (-1.0, 1.0), np.zeros((0, g.shape[0]))


def _sup_ball(p: int) -> tuple:
    """_ball of the sup norm in dimension p, built without a GaugeSpec."""
    return np.vstack([np.eye(p), -np.eye(p)]), (0.0, None), np.ones((1, 2 * p))


def dual_feasibility(spec: GaugeSpec, s) -> float:
    """Membership margin for s in B*: margin <= 0 iff s is a member.

    Closed forms for l1/sup/slope are signed; genlasso/custom return the
    sup-norm distance to B* via an LP over _ball, positive outside.  Inside
    B* that LP value is round-off, about 1e-16 rather than 0, so callers
    compare it with a tolerance, never with <= 0.
    """
    s = as_vector(s)
    if s.shape[0] != spec.p:
        raise ValueError("dimension mismatch")
    if spec.kind in ("l1", "sup", "slope"):
        return _dual_gauge(spec.kind, s, spec.weights) - 1.0
    # vars (z, t): min t  s.t.  -t <= s - G'z <= t, z in the ball's bounds, A z <= 1
    g, bounds, a = _ball(spec)
    m, ones = g.shape[0], np.ones((spec.p, 1))
    a_le = np.vstack([np.hstack([g.T, -ones]), np.hstack([-g.T, -ones]), np.hstack([a, np.zeros((a.shape[0], 1))])])
    b_le = np.concatenate([s, -s, np.ones(a.shape[0])])
    c = np.zeros(m + 1)
    c[-1] = 1.0
    sol = linprog.lp_solve(linprog.LpProblem(c, a_le=a_le, b_le=b_le, bounds=[bounds] * m + [(0.0, None)]))
    return float(sol.value)


@dataclass(frozen=True)
class NamedPattern:
    """Canonical combinatorial pattern for one of the named families."""

    variant: str  # sign | slope_rank | sup | tv_sign | tf_sign
    values: tuple

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=int)


def named_pattern(kind: str, beta) -> NamedPattern:
    """Exact pattern extractor; kind in {sign, slope, sup, tv, tf}."""
    b = as_vector(beta)
    if kind == "sign":
        return NamedPattern("sign", tuple(int(x) for x in np.sign(b)))
    if kind == "slope":
        return NamedPattern("slope_rank", tuple(int(x) for x in _signed_ranks(b)))
    if kind == "sup":
        m = np.max(np.abs(b), initial=0.0)
        if m == 0.0:
            vals = (0,) * b.size
        else:
            vals = tuple(int(x == m) - int(x == -m) for x in b)
        return NamedPattern("sup", vals)
    if kind == "tv":
        if b.size < 2:
            raise DimensionTooSmall("tv pattern needs p >= 2")
        return NamedPattern("tv_sign", tuple(int(x) for x in np.sign(np.diff(b))))
    if kind == "tf":
        if b.size < 3:
            raise DimensionTooSmall("tf pattern needs p >= 3")
        second = b[:-2] - 2.0 * b[1:-1] + b[2:]
        return NamedPattern("tf_sign", tuple(int(x) for x in np.sign(second)))
    raise ValueError(f"unknown pattern kind {kind!r}")


def _signed_ranks(b: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """Signed magnitude ranks as floats: 0 for (near-)zeros, ascending
    cluster ranks.

    With tol > 0, magnitudes are chain-merged: consecutive sorted values
    closer than tol share a rank, and values <= tol count as zero.
    """
    u, inv = np.unique(np.abs(b), return_inverse=True)
    ranks = np.zeros(u.size)
    k = int(np.searchsorted(u, tol, side="right"))  # u[k:] > tol
    if k < u.size:
        ranks[k:] = 1.0 + np.concatenate([[0.0], np.cumsum(np.diff(u[k:]) > tol)])
    return np.sign(b) * ranks[inv] + 0.0


def _pattern(spec: GaugeSpec, b: np.ndarray, tol: float) -> np.ndarray:
    """The snapped pattern of an unvalidated vector b at absolute tolerance
    tol, the one key of its face of B*: signs for l1 (of D b for genlasso),
    signed maximal entries for sup, signed cluster ranks for slope, all as
    floats with no -0.0; for custom, the mask of the rows of U b within tol
    of their max."""
    kind = spec.kind
    if kind == "slope":
        return _signed_ranks(b, tol)
    if kind == "custom":
        vals = spec.u @ b
        return vals >= _pen("custom", vals) - tol
    if kind == "genlasso":
        b = spec.d @ b
        if _rows_dependent(spec):  # sign only the rows off the span closure of the zeros
            b[list(_closure(spec.d, np.flatnonzero(np.abs(b) <= tol)))] = 0.0
    a = np.abs(b)
    if kind == "sup":
        m = a.max(initial=0.0)
        return np.sign(b) * (a >= m - tol) + 0.0 if m > tol else np.zeros_like(b)
    return np.sign(b) * (a > tol) + 0.0


def _snap(spec: GaugeSpec, beta, rel_tol: float) -> tuple:
    """(pen(beta), pattern of beta) under active_set's rule: the pattern is
    snapped at rel_tol * max(1, pen(beta))."""
    b = as_vector(beta)
    pen = pen_eval(spec, b)
    return pen, _pattern(spec, b, rel_tol * max(1.0, pen))


@dataclass(frozen=True, eq=False)
class PatternFingerprint:
    """Canonical identifier of a pattern equivalence class.

    Two fingerprints are equal exactly when the identified subdifferential
    faces coincide.  ``active`` holds the active generator indices (rows of
    U) for custom gauges, None for the named kinds.
    """

    key: tuple
    pen_value: float
    named: NamedPattern | None = None
    active: tuple | None = None

    def __eq__(self, other):
        if not isinstance(other, PatternFingerprint):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"PatternFingerprint(key={self.key!r})"


_NAMED_VARIANT = {"l1": "sign", "sup": "sup", "slope": "slope_rank"}


def active_set(spec: GaugeSpec, beta, rel_tol: float = 1e-8) -> PatternFingerprint:
    """Fingerprint of the pattern of beta: the key (kind, pattern), with the
    pattern snapped at absolute tolerance rel_tol * max(1, pen(beta)) on its
    defining comparisons (the module docstring lists the pattern per kind).

    ``named`` holds the pattern for l1/sup/slope and the tv/tf factories;
    ``active`` holds the indices of the active rows of U for custom gauges,
    I = {l : u_l'beta >= pen(beta) - rel_tol * max(1, pen(beta))}.
    """
    pen, pattern = _snap(spec, beta, rel_tol)
    vals = tuple(int(x) for x in pattern)
    variant = _NAMED_VARIANT.get(spec.kind) or (spec.d_name and f"{spec.d_name}_sign")
    named = NamedPattern(variant, vals) if variant else None
    active = tuple(int(i) for i in np.flatnonzero(pattern)) if spec.kind == "custom" else None
    return PatternFingerprint((spec.kind, vals), pen, named=named, active=active)


def active_indices(spec: GaugeSpec, beta, rel_tol: float = 1e-8) -> tuple:
    """Active generator indices over the materialized generator matrix."""
    vals = generators(spec) @ as_vector(beta)
    pen = _pen("custom", vals)
    return tuple(int(i) for i in np.flatnonzero(vals >= pen - rel_tol * max(1.0, pen)))


@dataclass(frozen=True)
class Face:
    """A face of B*: active vertex-index subset plus its dimension."""

    vertices: tuple
    dimension: int
    codimension: int


def _face_from_indices(u: np.ndarray, idx) -> Face:
    p = u.shape[1]
    idx = tuple(int(i) for i in idx)
    pts = u[list(idx)]
    diffs = pts[1:] - pts[0] if len(idx) > 1 else np.zeros((0, p))
    dim = rank(diffs)
    return Face(vertices=idx, dimension=dim, codimension=p - dim)


def subdifferential_face(spec: GaugeSpec, beta, rel_tol: float = 1e-8) -> Face:
    """The face of B* equal to the subdifferential at beta."""
    return _face_from_indices(generators(spec), active_indices(spec, beta, rel_tol=rel_tol))


def complexity(spec: GaugeSpec, beta, rel_tol: float = 1e-8) -> int:
    """Pattern complexity = codimension of the subdifferential face, taken
    as the dimension of pattern_subspace(spec, beta, rel_tol).

    It is the number of non-nulls (l1); the number of non-null clusters
    (slope); the non-maximal count plus one (sup, zero at the origin);
    p - rank of the inactive difference rows (genlasso).
    """
    return pattern_subspace(spec, beta, rel_tol).dim


def pattern_subspace(spec: GaugeSpec, beta, rel_tol: float = 1e-8) -> SubspaceBasis:
    """Orthonormal basis of the linear span of the pattern class of beta,
    the orthogonal complement of the subdifferential-face directions.

    Read off active_set's snapped pattern (``_basis``), with no generator
    expansion; the basis size is the pattern complexity, see
    complexity(spec, beta).
    """
    return _basis(spec, _snap(spec, beta, rel_tol)[1])


def _basis(spec: GaugeSpec, pattern: np.ndarray) -> SubspaceBasis:
    """Orthonormal basis of the span of the pattern class that a snapped
    pattern names: the support (l1), the non-maximal coordinates plus the
    signed maximal direction (sup), the signed cluster indicators (slope),
    ker of the inactive rows of D (genlasso), the complement of the face
    directions (custom)."""
    p, kind = spec.p, spec.kind
    if kind == "genlasso":
        return null_space_basis(spec.d[pattern == 0])
    if kind == "custom":
        pts = spec.u[pattern]
        return null_space_basis(pts[1:] - pts[0])
    a = np.abs(pattern)
    if kind == "l1":
        cols = [np.eye(p)[:, a > 0]]
    elif kind == "sup":
        cols = [np.eye(p)[:, a == 0], pattern[:, None]] if a.any() else []
    else:
        cols = [np.where(a == r, np.sign(pattern), 0.0)[:, None] for r in range(1, int(a.max(initial=0)) + 1)]
    vecs = np.hstack([np.zeros((p, 0))] + cols)
    return SubspaceBasis(p, vecs / np.linalg.norm(vecs, axis=0))


def _face_point(spec: GaugeSpec, pattern: np.ndarray) -> np.ndarray:
    """A point s of the face of B* named by a snapped pattern; on that
    pattern's subspace B, pen(B theta) = s'B theta."""
    kind = spec.kind
    if kind == "l1":
        return pattern
    if kind == "genlasso":
        return spec.d.T @ pattern  # D_A' sign(D b)_A over the active rows
    if kind == "custom":
        return spec.u[int(np.argmax(pattern))]  # one active generator row
    s = np.zeros(spec.p)
    if kind == "sup":
        j = int(np.argmax(np.abs(pattern)))  # sigma_j e_j, j maximal
        s[j] = pattern[j]
        return s
    s[np.argsort(-np.abs(pattern), kind="stable")] = spec.weight_array  # weights in rank order
    return np.sign(pattern) * s


def _face_rows(spec: GaugeSpec, pattern: np.ndarray, cap: int = _FACE_LISTING_CAP) -> np.ndarray:
    """The generator rows on the face of B* that a snapped pattern names, in
    generators() order, with the zero row first for the all-zero pattern
    (the face is then B* itself, as at beta = 0).

    The rows are counted in closed form before any is built, and
    GeneratorBlowup is raised when there are more than `cap`: 2^#zeros sign
    vectors (l1; their images under D' for genlasso, then deduplicated),
    #nonzeros signed unit vectors (sup), and for slope the product of the
    cluster-size factorials times 2^#zeros.
    """
    kind, p = spec.kind, spec.p
    if kind == "custom":
        return spec.u[pattern]
    zeros = int(np.sum(pattern == 0))
    whole = zeros == pattern.size
    if kind == "sup":
        count = 2 * p if whole else p - zeros
    elif kind == "slope":
        sizes = np.unique(np.abs(pattern), return_counts=True)[1]
        count = math.prod(math.factorial(int(c)) for c in sizes) * 2**zeros
    else:
        count = 2**zeros
    if count + whole > cap:
        raise GeneratorBlowup(f"the face of this {kind} pattern has {count + whole} generator rows (cap {cap})")
    if kind == "sup":
        units = np.vstack([np.eye(p), -np.eye(p)])  # generators() order
        rows = units if whole else units[np.append(np.flatnonzero(pattern > 0), p + np.flatnonzero(pattern < 0))]
    elif kind == "slope":
        rows = _slope_face_rows(spec.weight_array, pattern)
    else:
        rows = _sign_vectors(pattern)
        if kind == "genlasso":
            rows = rows @ spec.d
    if whole:
        rows = np.vstack([np.zeros((1, p)), rows])
    return _dedup_rows(rows) if kind == "genlasso" else rows


def enumerate_faces(spec: GaugeSpec) -> list:
    """All nonempty faces of B*, each certified by an exposure LP.

    A subset S is accepted when some a with ||a||_inf <= 1 satisfies
    u_l'a = c on S and u_m'a <= c - delta off S with margin delta >
    EXPOSURE_MARGIN; each face then appears exactly once, keyed by its full
    vertex set.  This costs 2^k - 1 LPs for k generators: it is the route
    for custom gauges and the test oracle for _faces_below, which lists the
    low-dimensional faces of the named kinds from their patterns.
    Raises GeneratorBlowup when B* has more generators than the cap.
    """
    u = generators(spec)
    k, _ = u.shape
    if k > _FACE_ENUMERATION_CAP:
        raise GeneratorBlowup(f"{k} generators exceed the enumeration cap {_FACE_ENUMERATION_CAP}")
    faces = []
    for mask in range(1, 2**k):
        in_set = [l for l in range(k) if mask >> l & 1]
        out_set = [l for l in range(k) if not mask >> l & 1]
        if _exposure_margin(u, in_set, out_set) > EXPOSURE_MARGIN:
            faces.append(_face_from_indices(u, in_set))
    faces.sort(key=lambda f: (f.dimension, f.vertices))
    return faces


def _faces_below(spec: GaugeSpec, deficiency: int):
    """Faces of B* of dimension below `deficiency` for the named kinds, read
    off their patterns (Schneider & Tardivel, JMLR 2022; Bogdan et al.,
    arXiv 2203.12086).  Yields (dimension, vertex_rows), the rows built from
    each listed pattern by _face_rows:

    l1       -- sign vectors with fewer than `deficiency` zeros, dimension
                #zeros;
    sup      -- signed subsets S without antipodal pairs, |S| <= deficiency,
                dimension |S| - 1;
    slope    -- signed ordered partitions with k > p - deficiency nonzero
                clusters, dimension p - k;
    genlasso -- covectors of the rows of D: a zero set Z, the span closure
                of rows of rank below `deficiency`, and signs sigma on the
                other rows such that D_Z a = 0, sigma_i d_i'a >= 1 is
                feasible (one phase-1 LP each), dimension rank(D_Z).

    The faces are counted before any LP runs (closed forms; for genlasso
    the bound sum_Z 2^(m - |Z|) on the covector LPs), and GeneratorBlowup
    is raised when the count exceeds _FACE_LISTING_CAP.
    """
    p = spec.p
    if spec.kind == "l1":
        count = sum(math.comb(p, j) * 2 ** (p - j) for j in range(deficiency))
    elif spec.kind == "sup":
        count = sum(math.comb(p, j) * 2**j for j in range(1, deficiency + 1))
    elif spec.kind == "slope":
        count = sum(
            math.comb(p, z) * math.factorial(k) * _stirling2(p - z, k) * 2 ** (p - z)
            for k in range(p, p - deficiency, -1)
            for z in range(p - k + 1)
        )
    elif spec.kind == "genlasso":
        flats = _flats_below(spec.d, deficiency)
        count = sum(2 ** (spec.d.shape[0] - len(z)) for _, z in flats)
    else:
        raise ValueError(f"no pattern listing for {spec.kind!r} gauges; use enumerate_faces")
    if count > _FACE_LISTING_CAP:
        raise GeneratorBlowup(
            f"{spec.kind} gauge has {count} faces below dimension {deficiency} "
            f"(cap {_FACE_LISTING_CAP})"
        )
    if spec.kind == "l1":
        for zeros in range(deficiency):
            for free in itertools.combinations(range(p), zeros):
                support = [j for j in range(p) if j not in free]
                for signs in itertools.product((-1.0, 1.0), repeat=p - zeros):
                    yield zeros, _face_rows(spec, _signed(p, support, signs))
    elif spec.kind == "sup":
        for size in range(1, deficiency + 1):
            for subset in itertools.combinations(range(2 * p), size):  # j >= p: -e_(j-p)
                if len({j % p for j in subset}) == size:
                    signs = [1.0 if j < p else -1.0 for j in subset]
                    yield size - 1, _face_rows(spec, _signed(p, [j % p for j in subset], signs))
    elif spec.kind == "slope":
        for k in range(p, p - deficiency, -1):
            for z in range(p - k + 1):
                for zero in itertools.combinations(range(p), z):
                    rest = [j for j in range(p) if j not in zero]
                    for blocks in _ordered_partitions(rest, k):
                        ranks = np.zeros(p)
                        for i, block in enumerate(blocks):  # the first block ranks highest
                            ranks[list(block)] = k - i
                        for signs in itertools.product((-1.0, 1.0), repeat=p - z):
                            yield p - k, _face_rows(spec, ranks * _signed(p, rest, signs))
    else:
        d = spec.d
        m = d.shape[0]
        for r, zero in flats:
            rest = [i for i in range(m) if i not in zero]
            for sigma in itertools.product((-1.0, 1.0), repeat=len(rest)):
                if rest and not _is_covector(d, zero, rest, np.array(sigma)):
                    continue
                yield r, _face_rows(spec, _signed(m, rest, sigma))


def _signed(n: int, idx, values) -> np.ndarray:
    """The vector of length n with `values` at `idx` and 0.0 elsewhere."""
    out = np.zeros(n)
    out[list(idx)] = values
    return out


def _sign_vectors(pattern: np.ndarray) -> np.ndarray:
    """The vectors of {-1, 1}^m agreeing with a sign pattern on its support,
    in the product order that generators() uses."""
    return np.array(list(itertools.product(*[(v,) if v else (-1.0, 1.0) for v in pattern.tolist()])))


def _stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind: partitions of n items into k blocks."""
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1)) // math.factorial(k)


def _ordered_partitions(items: list, k: int):
    """Ordered partitions of items into k nonempty blocks."""
    if k == 1:
        yield (tuple(items),)
        return
    for size in range(1, len(items) - k + 2):
        for first in itertools.combinations(items, size):
            rest = [i for i in items if i not in first]
            for tail in _ordered_partitions(rest, k - 1):
                yield (first,) + tail


def _slope_face_rows(w: np.ndarray, pattern: np.ndarray) -> np.ndarray:
    """Signed permutations of w on the face of a signed-rank pattern: the
    cluster of the j-th largest rank takes the j-th run of weights in any
    order and the pattern's signs, the zero cluster the last run with any
    signs; rows sorted into generators() order, which is lexicographic in
    (weight index per position, sign bit per position)."""
    a = np.abs(pattern)
    blocks = [np.flatnonzero(a == r).tolist() for r in range(int(a.max(initial=0)), -1, -1)]
    zero = blocks[-1]
    starts = np.cumsum([0] + [len(block) for block in blocks]).tolist()
    runs = [[(block, perm) for perm in itertools.permutations(range(start, start + len(block)))]
            for block, start in zip(blocks, starts)]
    orders = []
    for assignment in itertools.product(*runs):
        order = [0] * w.size
        for block, perm in assignment:
            for j, l in zip(block, perm):
                order[j] = l
        orders.append(order)
    orders.sort()
    signs = np.where(pattern > 0, 1.0, -1.0) * np.ones((2 ** len(zero), 1))
    signs[:, zero] = list(itertools.product((-1.0, 1.0), repeat=len(zero)))
    return (w[np.array(orders)][:, None, :] * signs).reshape(-1, w.size)


def _flats_below(d: np.ndarray, deficiency: int) -> list:
    """Flats of the rows of D (sets of rows closed under span) of rank below
    `deficiency`, as (rank, sorted row tuple), built rank by rank from the
    closure of the empty set.  Raises GeneratorBlowup as soon as the
    covector-LP bound sum 2^(m - |Z|) exceeds _FACE_LISTING_CAP."""
    m = d.shape[0]
    flats, level = [], [_closure(d, ())]
    for r in range(deficiency):
        if r:
            level = sorted({_closure(d, z + (i,)) for z in level for i in range(m) if i not in z})
        flats += [(r, z) for z in level]
        bound = sum(2 ** (m - len(z)) for _, z in flats)
        if bound > _FACE_LISTING_CAP:
            raise GeneratorBlowup(
                f"genlasso gauge needs over {bound} covector LPs below dimension {deficiency} "
                f"(cap {_FACE_LISTING_CAP})"
            )
    return flats


def _closure(d: np.ndarray, rows) -> tuple:
    """The rows of D in the span of the rows `rows`, as a sorted tuple."""
    basis = row_space_basis(d[list(rows)])
    return tuple(i for i in range(d.shape[0]) if basis.contains(d[i]))


def _rows_dependent(spec: GaugeSpec) -> bool:
    """Whether the rows of a genlasso D are linearly dependent, decided once
    and cached on the spec; only then can a zero set need its span closure."""
    if not hasattr(spec, "_rows_dependent_cache"):
        object.__setattr__(spec, "_rows_dependent_cache", rank(spec.d) < spec.d.shape[0])
    return spec._rows_dependent_cache


def _is_covector(d: np.ndarray, zero: tuple, rest: list, sigma: np.ndarray) -> bool:
    """Phase-1 test whether some a has D_Z a = 0 and sigma_i d_i'a >= 1 off Z."""
    p = d.shape[1]
    a_eq, b_eq = (d[list(zero)], np.zeros(len(zero))) if zero else (None, None)
    problem = linprog.LpProblem(
        np.zeros(p), a_eq=a_eq, b_eq=b_eq, a_le=-sigma[:, None] * d[rest], b_le=-np.ones(len(rest))
    )
    return linprog.feasibility(problem).feasible


def _exposure_margin(u: np.ndarray, in_set, out_set) -> float:
    """Max margin delta (capped at 1) certifying S as an exact active set."""
    k, p = u.shape
    # vars: a (p), c (1), delta (1); maximize delta
    c_obj = np.zeros(p + 2)
    c_obj[-1] = -1.0
    a_eq = np.hstack([u[in_set], -np.ones((len(in_set), 1)), np.zeros((len(in_set), 1))])
    b_eq = np.zeros(len(in_set))
    if out_set:
        a_le = np.hstack([u[out_set], -np.ones((len(out_set), 1)), np.ones((len(out_set), 1))])
        b_le = np.zeros(len(out_set))
    else:
        a_le, b_le = None, None
    bounds = [(-1.0, 1.0)] * p + [(None, None), (None, 1.0)]
    sol = linprog.lp_solve(
        linprog.LpProblem(c_obj, a_eq=a_eq, b_eq=b_eq, a_le=a_le, b_le=b_le, bounds=bounds)
    )
    if sol.status != linprog.OPTIMAL:
        return -np.inf
    return -float(sol.value)


def subdiff_includes(spec: GaugeSpec, b_inner, b_outer, rel_tol: float = 0.0) -> bool:
    """Whether the subdifferential at b_inner is contained in the one at
    b_outer, decided on their patterns r (inner) and r' (outer), snapped as
    in active_set at max(rel_tol, 1e-12) * max(1, pen); the 1e-12 floor
    keeps round-off from splitting a tie or a zero.  The face order:

    l1, genlasso -- r' != 0 implies r = r';
    sup          -- true if r' = 0, else false if r = 0, else r != 0
                    implies r' = r;
    slope        -- r_i = 0 implies r'_i = 0, r'_i != 0 implies equal signs,
                    |r_i| <= |r_j| implies |r'_i| <= |r'_j|;
    custom       -- the active rows of r are active in r' (mask inclusion).

    Raises ValueError unless both vectors have length p.
    """
    b1, b2 = as_vector(b_inner), as_vector(b_outer)
    if b1.size != spec.p or b2.size != spec.p:
        raise ValueError(f"subdiff_includes got vectors of lengths {b1.size} and {b2.size}, expected p = {spec.p}")
    rel = max(rel_tol, 1e-12)
    r1, r2 = _snap(spec, b1, rel)[1], _snap(spec, b2, rel)[1]
    if spec.kind == "custom":
        return bool(np.all(r2[r1]))
    if spec.kind == "sup":
        if not r2.any():
            return True
        return bool(r1.any() and np.all((r1 == 0) | (r1 == r2)))
    if spec.kind == "slope":
        a1, a2 = np.abs(r1), np.abs(r2)
        return bool(
            np.all((a1 > 0) | (a2 == 0))
            and np.all((r2 == 0) | (np.sign(r1) == np.sign(r2)))
            and np.all((a1[:, None] > a1) | (a2[:, None] <= a2))
        )
    return bool(np.all((r2 == 0) | (r2 == r1)))
