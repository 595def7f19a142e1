"""Exterior algebra over R^n with exact-rational and float coefficients.

Conventions used throughout the package:

* A multi-index is a strictly increasing tuple of axis labels from
  ``{1, .., n}``; the empty tuple labels the scalar (degree-0) component.
* An element is a finite linear combination of basis monomials
  ``e_I = e_{i1} ^ .. ^ e_{ip}``.  Products pick up the Koszul sign
  ``(-1)^{inv(I,J)}`` where ``inv`` counts the inversions needed to merge
  the two sorted index tuples.
* The volume element ``e_{1..n}`` has coefficient +1; ``M[I, J]`` of the
  middle-degree pairing matrix is the volume coefficient of ``e_I ^ e_J``.
* Two arithmetic modes coexist: exact (``fractions.Fraction``) and float.
  The exact mode is the oracle for the float mode in tests.
* ``merge_sign`` defines the sign; ``wedge_table``/``wedge_nonzeros``
  tabulate it per (n, p, q) as read-only arrays, and are the one sign table
  that ``bands`` (d, primitive, pointwise wedge) and ``scalability`` read.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, sqrt
from typing import Mapping, NamedTuple, Union

import numpy as np

from .errors import DimensionMismatch, ShapeError, UnsupportedPairing

__all__ = [
    "Scalar",
    "MultiIndex",
    "ExteriorElement",
    "SignatureTriple",
    "multi_indices",
    "merge_sign",
    "wedge",
    "wedge_pairing_matrix",
    "signature",
    "signature_exact",
    "basis_element",
    "volume_element",
    "selfdual_triple",
    "jsonable",
    "JsonFields",
]

Scalar = Union[int, float, Fraction]
MultiIndex = tuple  # strictly increasing tuple of ints in {1..n}


# -- JSON encoding -----------------------------------------------------------


def jsonable(x):
    """A JSON-ready copy of x, the one encoder every result goes through.

    Objects with ``to_json_dict`` use it, a Fraction becomes ``"p/q"``, a
    numpy scalar its Python value, tuples and ranges become lists, and
    mapping keys become strings (before ``json.dumps(sort_keys=True)``
    sorts them, so band 10 sorts before band 4 as in every saved output).
    """
    if hasattr(x, "to_json_dict"):
        return x.to_json_dict()
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, np.generic):
        return x.item()
    if isinstance(x, Mapping):
        return {str(key): jsonable(val) for key, val in x.items()}
    if isinstance(x, (list, tuple, range)):
        return [jsonable(v) for v in x]
    return x


class JsonFields:
    """Dataclass mixin: ``to_json_dict`` is the fields through ``jsonable``."""

    def to_json_dict(self) -> dict:
        return {f.name: jsonable(getattr(self, f.name)) for f in fields(self)}


def multi_indices(n: int, p: int) -> list:
    """All degree-p multi-indices over {1..n} in lexicographic order."""
    if not 0 <= p <= n:
        return []
    return [tuple(c) for c in combinations(range(1, n + 1), p)]


def merge_sign(I: MultiIndex, J: MultiIndex):
    """Koszul sign of merging two disjoint sorted index tuples.

    Returns (sign, merged) with sign = (-1)^{#inversions}, or (0, None)
    when the tuples share an index (the product vanishes).
    """
    if set(I) & set(J):
        return 0, None
    inversions = 0
    for i in I:
        for j in J:
            if i > j:
                inversions += 1
    merged = tuple(sorted(I + J))
    return (-1) ** (inversions & 1), merged


def _check_index(n: int, I) -> MultiIndex:
    I = tuple(int(i) for i in I)
    if any(not 1 <= i <= n for i in I):
        raise DimensionMismatch(f"index {I} out of range for ambient dimension {n}")
    if any(I[k] >= I[k + 1] for k in range(len(I) - 1)):
        raise ShapeError(f"multi-index {I} is not strictly increasing")
    return I


@dataclass(frozen=True)
class ExteriorElement:
    """A (possibly inhomogeneous) exterior-algebra element.

    coefficients maps multi-indices to scalars; zero coefficients are
    dropped on construction so equality is structural.
    """

    ambient_dim: int
    coefficients: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise DimensionMismatch("ambient dimension must be >= 1")
        clean = {}
        for I, c in self.coefficients.items():
            I = _check_index(self.ambient_dim, I)
            if c != 0:
                clean[I] = c
        object.__setattr__(self, "coefficients", clean)

    # -- queries ---------------------------------------------------------

    @property
    def degrees(self) -> set:
        return {len(I) for I in self.coefficients}

    @property
    def degree(self):
        """Common degree of all terms; None for 0; error if mixed."""
        degs = self.degrees
        if not degs:
            return None
        if len(degs) > 1:
            raise ShapeError(f"element has mixed degrees {sorted(degs)}")
        return degs.pop()

    def coefficient(self, I) -> Scalar:
        return self.coefficients.get(_check_index(self.ambient_dim, I), 0)

    def sup_norm(self) -> float:
        """Largest absolute basis coefficient (0 for the zero element)."""
        if not self.coefficients:
            return 0
        return max(abs(c) for c in self.coefficients.values())

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.sup_norm() <= tol

    # -- linear structure --------------------------------------------------

    def _binary(self, other: "ExteriorElement", sign: int) -> "ExteriorElement":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )
        out = dict(self.coefficients)
        for I, c in other.coefficients.items():
            out[I] = out.get(I, 0) + sign * c
        return ExteriorElement(self.ambient_dim, out)

    def __add__(self, other):
        return self._binary(other, +1)

    def __sub__(self, other):
        return self._binary(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c: Scalar) -> "ExteriorElement":
        return ExteriorElement(
            self.ambient_dim, {I: c * v for I, v in self.coefficients.items()}
        )

    def __rmul__(self, c):
        return self.scale(c)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        terms = [{"I": I, "c": c} for I, c in sorted(self.coefficients.items())]
        return jsonable({"n": self.ambient_dim, "terms": terms})


def basis_element(n: int, I, c: Scalar = 1) -> ExteriorElement:
    return ExteriorElement(n, {tuple(I): c})


def volume_element(n: int, c: Scalar = 1) -> ExteriorElement:
    return ExteriorElement(n, {tuple(range(1, n + 1)): c})


def wedge(a: ExteriorElement, b: ExteriorElement) -> ExteriorElement:
    """Bilinear wedge product with Koszul signs."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )
    out: dict = {}
    for I, ca in a.coefficients.items():
        for J, cb in b.coefficients.items():
            sign, K = merge_sign(I, J)
            if sign:
                out[K] = out.get(K, 0) + sign * ca * cb
    return ExteriorElement(a.ambient_dim, out)


# -- middle-degree pairing -------------------------------------------------


class SignatureTriple(NamedTuple):
    pos: int
    neg: int
    zero: int


@lru_cache(maxsize=None)
def wedge_pairing_matrix(n: int, p: int) -> np.ndarray:
    """Pairing M[i, j] = volume coefficient of e_{I_i} ^ e_{I_j} on degree p.

    Requires 2p = n (so every nonzero product is +-e_{1..n}) and p even
    (odd p gives an antisymmetric pairing, which has no signature in this
    sense).  Basis order is lexicographic, matching multi_indices(n, p).
    Entries are exact integers; the cached array is read-only.
    """
    if 2 * p != n:
        raise UnsupportedPairing(f"pairing needs 2p = n, got n={n}, p={p}")
    if p % 2 != 0:
        raise UnsupportedPairing(f"pairing needs even degree, got p={p}")
    M = wedge_table(n, p, p)[1].astype(np.int64)
    M.setflags(write=False)
    return M


def _as_exact_rows(M) -> list:
    if isinstance(M, np.ndarray):
        rows = M.tolist()
    else:
        rows = [list(r) for r in M]
    return [[Fraction(x) for x in r] for r in rows]


def signature_exact(M) -> SignatureTriple:
    """Signature of a symmetric matrix over exact rationals.

    Symmetric Gauss (congruence) diagonalization; no tolerance involved.
    Accepts integer/Fraction numpy arrays or nested sequences.
    """
    A = _as_exact_rows(M)
    m = len(A)
    if any(len(r) != m for r in A):
        raise ShapeError("signature needs a square matrix")
    for i in range(m):
        for j in range(i + 1, m):
            if A[i][j] != A[j][i]:
                raise ShapeError("signature needs a symmetric matrix")
    pos = neg = zero = 0
    for r in range(m):
        if A[r][r] == 0:
            # try to bring a nonzero onto the diagonal by congruence
            swap = next((i for i in range(r + 1, m) if A[i][i] != 0), None)
            if swap is not None:
                A[r], A[swap] = A[swap], A[r]
                for row in A:
                    row[r], row[swap] = row[swap], row[r]
            else:
                off = next((i for i in range(r + 1, m) if A[r][i] != 0), None)
                if off is None:
                    zero += 1
                    continue
                # row/col r += row/col off makes the pivot 2*A[r][off] != 0
                for k in range(m):
                    A[r][k] += A[off][k]
                for row in A:
                    row[r] += row[off]
        piv = A[r][r]
        if piv > 0:
            pos += 1
        else:
            neg += 1
        for i in range(r + 1, m):
            if A[i][r] != 0:
                f = A[i][r] / piv
                for k in range(r, m):
                    A[i][k] -= f * A[r][k]
        for i in range(r + 1, m):
            A[r][i] = Fraction(0)
            A[i][r] = Fraction(0)
    return SignatureTriple(pos, neg, zero)


def signature(M, tol: float = 1e-9) -> SignatureTriple:
    """Signature (pos, neg, zero) of a symmetric matrix.

    Integer and Fraction inputs take the exact congruence route; float
    inputs are classified through eigenvalues with |lambda| <= tol counted
    as zero.
    """
    A = np.asarray(M)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError("signature needs a square matrix")
    if A.dtype == object or np.issubdtype(A.dtype, np.integer):
        return signature_exact(M)
    if not np.allclose(A, A.T, atol=tol, rtol=0.0):
        raise ShapeError("signature needs a symmetric matrix")
    eig = np.linalg.eigvalsh(0.5 * (A + A.T))
    pos = int(np.sum(eig > tol))
    neg = int(np.sum(eig < -tol))
    return SignatureTriple(pos, neg, int(len(eig) - pos - neg))


# -- distinguished middle bases in dimension 4 ------------------------------


def selfdual_triple(normalized: bool = True, exact: bool = False) -> list:
    """The three +1-eigenvector 2-forms of the middle pairing on R^4.

    b_i = e_I + (*e_I) for I = (1,2), (1,3), (1,4), where the Hodge star
    *e_I = s * e_J is read from e_I ^ e_J = s * vol.  With ``normalized``
    each b_i satisfies b_i ^ b_j = delta_ij * vol (coefficients 1/sqrt(2),
    float only); unnormalized coefficients are 1 and b_i ^ b_i = 2 * vol
    exactly, available in exact mode.
    """
    if normalized and exact:
        raise UnsupportedPairing("1/sqrt(2) normalization is not rational")
    one = Fraction(1) if exact else 1.0
    scale = 1.0 / sqrt(2.0) if normalized else one
    out = []
    for I in multi_indices(4, 2)[:3]:
        J = tuple(j for j in range(1, 5) if j not in I)
        s, _ = merge_sign(I, J)
        out.append(ExteriorElement(4, {I: scale * one, J: scale * (s * one)}))
    return out


# -- dense representation (flat coefficient vectors per degree) -------------


@lru_cache(maxsize=None)
def _index_positions(n: int, p: int) -> dict:
    return {I: k for k, I in enumerate(multi_indices(n, p))}


@lru_cache(maxsize=None)
def wedge_table(n: int, p: int, q: int):
    """Structure constants of wedge: (target, sign) arrays, -1 for zero.

    target[i, j] is the position of e_{I_i} ^ e_{J_j} in the (p+q)-basis,
    sign[i, j] the Koszul sign; both arrays are cached and read-only.
    """
    bp, bq = multi_indices(n, p), multi_indices(n, q)
    pos = _index_positions(n, p + q) if p + q <= n else {}
    target = -np.ones((len(bp), len(bq)), dtype=np.int64)
    sign = np.zeros((len(bp), len(bq)), dtype=np.int8)
    for i, I in enumerate(bp):
        for j, J in enumerate(bq):
            s, K = merge_sign(I, J)
            if s and K in pos:
                target[i, j] = pos[K]
                sign[i, j] = s
    target.setflags(write=False)
    sign.setflags(write=False)
    return target, sign


def dense_vector(a: ExteriorElement, p: int) -> np.ndarray:
    """Float coefficient vector of the degree-p part, lexicographic basis."""
    pos = _index_positions(a.ambient_dim, p)
    v = np.zeros(len(pos))
    for I, c in a.coefficients.items():
        if len(I) == p:
            v[pos[I]] = float(c)
    return v


def from_dense(n: int, p: int, v: np.ndarray) -> ExteriorElement:
    basis = multi_indices(n, p)
    return ExteriorElement(n, {I: float(c) for I, c in zip(basis, v) if c != 0.0})


@lru_cache(maxsize=None)
def wedge_nonzeros(n: int, p: int, q: int):
    """Nonzero structure constants of wedge as read-only arrays.

    Returns (target, left, right, sign) with
    e_{I_left} ^ e_{J_right} = sign * e_{K_target}, in row-major order of
    (left, right).  For a fixed left index, and for a fixed right index,
    each target occurs at most once.
    """
    target, sign = wedge_table(n, p, q)
    left, right = np.nonzero(target >= 0)
    out = (target[left, right], left, right, sign[left, right].astype(float))
    for arr in out:
        arr.setflags(write=False)
    return out


def wedge_dense(n: int, p: int, q: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense wedge of coefficient vectors (degrees p and q over R^n)."""
    target, left, right, sign = wedge_nonzeros(n, p, q)
    return np.bincount(
        target, weights=sign * a[left] * b[right], minlength=comb(n, p + q)
    )


def wedge_left_matrix(n: int, p: int, q: int, a: np.ndarray) -> np.ndarray:
    """Matrix of x -> a ^ x on dense vectors (a of degree p, x of degree q)."""
    target, left, right, sign = wedge_nonzeros(n, p, q)
    out = np.zeros((comb(n, p + q), comb(n, q)))
    out[target, right] = sign * a[left]
    return out


def wedge_right_matrix(n: int, p: int, q: int, b: np.ndarray) -> np.ndarray:
    """Matrix of x -> x ^ b on dense vectors (x of degree p, b of degree q)."""
    target, left, right, sign = wedge_nonzeros(n, p, q)
    out = np.zeros((comb(n, p + q), comb(n, p)))
    out[target, left] = sign * b[right]
    return out
