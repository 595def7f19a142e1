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
* Coefficients are exact (``fractions.Fraction``) or float.  The exact
  element arithmetic that tests check the float kernels against lives in
  ``tests/oracles.py``.
* ``merge_sign`` defines the sign; ``wedge_nonzeros`` tabulates its
  nonzero entries per (n, p, q) as read-only arrays: the one sign table
  that the pairing matrix, ``bands`` (projection, d, primitive, grid
  wedge) and ``scalability`` read.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, sqrt
from typing import Mapping, NamedTuple

import numpy as np

from .errors import DimensionMismatch, ShapeError, UnsupportedPairing

__all__ = [
    "MultiIndex",
    "ExteriorElement",
    "SignatureTriple",
    "multi_indices",
    "merge_sign",
    "wedge_pairing_matrix",
    "signature",
    "signature_exact",
    "selfdual_triple",
    "jsonable",
    "JsonFields",
]

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

    def to_json_dict(self) -> dict:
        terms = [{"I": I, "c": c} for I, c in sorted(self.coefficients.items())]
        return jsonable({"n": self.ambient_dim, "terms": terms})


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
    _, left, right, sign = wedge_nonzeros(n, p, p)
    M = np.zeros((comb(n, p), comb(n, p)), dtype=np.int64)
    M[left, right] = sign
    M.setflags(write=False)
    return M


def signature_exact(M) -> SignatureTriple:
    """Signature of a symmetric matrix over exact rationals.

    Symmetric Gauss (congruence) diagonalization; no tolerance involved.
    Accepts integer/Fraction numpy arrays or nested sequences.
    """
    # through Python ints, so exact arithmetic never meets a fixed-width overflow
    A = [[Fraction(x) for x in r] for r in np.asarray(M, dtype=object).tolist()]
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
    return SignatureTriple(pos, neg, zero)


def signature(M) -> SignatureTriple:
    """Signature (pos, neg, zero) of a symmetric matrix.

    Integer and Fraction inputs take the exact congruence route; float
    inputs are classified through eigenvalues with |lambda| <= 1e-9 counted
    as zero.
    """
    tol = 1e-9
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


def selfdual_triple() -> np.ndarray:
    """The three +1-eigenvector 2-forms of the middle pairing on R^4, as
    dense rows (3, 6) in the lexicographic basis of multi_indices(4, 2).

    b_i = (e_I + *e_I) / sqrt(2) for I = (1,2), (1,3), (1,4), where the
    Hodge star *e_I = s * e_J is read from e_I ^ e_J = s * vol, so
    b_i ^ b_j = delta_ij * vol.
    """
    return (np.eye(6)[:3] + wedge_pairing_matrix(4, 2)[:3]) / sqrt(2.0)


# -- dense representation (flat coefficient vectors per degree) -------------


@lru_cache(maxsize=None)
def _index_positions(n: int, p: int) -> dict:
    return {I: k for k, I in enumerate(multi_indices(n, p))}


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
    pos = _index_positions(n, p + q)  # for p + q > n every pair overlaps
    rows = []
    for i, I in enumerate(multi_indices(n, p)):
        for j, J in enumerate(multi_indices(n, q)):
            s, K = merge_sign(I, J)
            if s:
                rows.append((pos[K], i, j, s))
    cols = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    out = (cols[0].copy(), cols[1].copy(), cols[2].copy(), cols[3].astype(float))
    for arr in out:
        arr.setflags(write=False)
    return out
