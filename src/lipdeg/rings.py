"""Graded ring presentations, their intersection forms, and growth exponents.

A presentation records generators (name, even-or-odd degree >= 2), named
polynomial relations (each a list of (coefficient, word) monomials), and a
designated top-degree word whose image must hit the volume form.  Presets
cover the standard closed-manifold examples used by the scalability
checker and the degree-bound pipeline.

Two exponent extractors live here as well:

* ``lipschitz_lower_exponent`` turns the spectral radii of an algebra
  action on graded pieces into the growth exponent rho with
  ``Lip(f) >= c * |deg f|^{rho/n}``, i.e. ``deg <= C * L^{n/rho}``.
* ``positive_weight_exponents`` extracts (alpha, multiplicity) from
  positive weight data attached to indecomposables of a minimal model.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyData,
    ParameterError,
    PresetLookupError,
    ShapeError,
    UndefinedExponent,
    UnsupportedPresentation,
)
from .exterior import JsonFields

__all__ = [
    "Relation",
    "RingPresentation",
    "Assignment",
    "CohomologyAction",
    "ExponentReport",
    "intersection_form",
    "lipschitz_lower_exponent",
    "positive_weight_exponents",
    "preset_presentations",
    "preset_cohomology_action",
    "preset_weights",
]

Word = Tuple[str, ...]


@dataclass(frozen=True)
class Relation:
    name: str
    monomials: tuple  # of (coefficient, word)

    def words(self):
        return [w for _, w in self.monomials]


@dataclass(frozen=True)
class RingPresentation:
    manifold_dim: int
    generators: tuple  # of (name, degree)
    relations: tuple  # of Relation
    top_class: Word

    def __post_init__(self):
        names = [g for g, _ in self.generators]
        if len(set(names)) != len(names):
            raise ShapeError("generator names must be unique")
        degs = dict(self.generators)
        if any(d < 2 for d in degs.values()):
            raise UnsupportedPresentation("generator degrees must be >= 2")
        for rel in self.relations:
            if not rel.monomials:
                raise EmptyData(f"relation {rel.name} has no monomials")
            degrees = {self.word_degree(w) for _, w in rel.monomials}
            if len(degrees) != 1:
                raise UnsupportedPresentation(
                    f"relation {rel.name} is not homogeneous: degrees {sorted(degrees)}"
                )
        if not self.top_class:
            raise EmptyData("empty top-class word")
        if self.word_degree(self.top_class) != self.manifold_dim:
            raise UnsupportedPresentation(
                "top-class word degree must equal the manifold dimension"
            )

    @property
    def degrees(self) -> dict:
        return dict(self.generators)

    def word_degree(self, word: Word) -> int:
        degs = self.degrees
        try:
            return sum(degs[g] for g in word)
        except KeyError as bad:
            raise UnsupportedPresentation(f"unknown generator {bad} in word {word}")


@dataclass(frozen=True)
class Assignment(JsonFields):
    """Exterior-algebra images of the generators, shared ambient dimension."""

    ambient_dim: int
    forms: Mapping  # generator name -> ExteriorElement

    def __post_init__(self):
        for name, el in self.forms.items():
            if el.ambient_dim != self.ambient_dim:
                raise DimensionMismatch(
                    f"form for {name} lives in dimension {el.ambient_dim}, "
                    f"assignment says {self.ambient_dim}"
                )


# -- intersection forms ------------------------------------------------------


def _exact_solve(A: list, b: list):
    """Gaussian elimination over Fractions; returns None if not unique."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    M = [row[:] + [rhs] for row, rhs in zip(A, b)]
    for c in range(cols):
        piv = next((i for i in range(c, rows) if M[i][c] != 0), None)
        if piv is None:
            return None  # underdetermined
        M[c], M[piv] = M[piv], M[c]
        inv = 1 / M[c][c]
        M[c] = [x * inv for x in M[c]]
        for i in range(rows):
            if i != c and M[i][c] != 0:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[c])]
    # every column has its pivot: a leftover row with a nonzero right side
    # contradicts the others
    if any(M[i][cols] != 0 for i in range(cols, rows)):
        raise UnsupportedPresentation("inconsistent pairing relations")
    return [M[i][cols] for i in range(cols)]


@lru_cache(maxsize=64)
def intersection_form(pres: RingPresentation) -> np.ndarray:
    """Middle-degree product matrix Q with u_i u_j = Q[i,j] * top.

    Requires all generators in the middle degree and relations that pin
    every pairwise product; entries are exact Fractions.  Cached per
    presentation, so the array is read-only.
    """
    gens = [g for g, _ in pres.generators]
    degs = pres.degrees
    n = pres.manifold_dim
    mid = degs[gens[0]]
    if any(degs[g] != mid for g in gens) or 2 * mid != n:
        raise UnsupportedPresentation(
            "intersection form needs all generators in middle degree n/2"
        )
    pairs = [(i, j) for i in range(len(gens)) for j in range(i, len(gens))]
    pos = {p: k for k, p in enumerate(pairs)}
    gi = {g: i for i, g in enumerate(gens)}

    def pair_of(word):
        i, j = sorted((gi[word[0]], gi[word[1]]))
        return pos[(i, j)]

    rows, rhs = [], []
    for rel in pres.relations:
        # relations above the top degree (u^3 on CP^2) hold vacuously
        if pres.word_degree(rel.words()[0]) > n:
            continue
        if any(len(w) != 2 for w in rel.words()):
            raise UnsupportedPresentation(
                f"relation {rel.name} is not a middle-degree pair product"
            )
        row = [Fraction(0)] * len(pairs)
        for c, w in rel.monomials:
            row[pair_of(w)] += Fraction(c)
        rows.append(row)
        rhs.append(Fraction(0))
    norm = [Fraction(0)] * len(pairs)
    norm[pair_of(pres.top_class)] = Fraction(1)
    rows.append(norm)
    rhs.append(Fraction(1))
    x = _exact_solve(rows, rhs)
    if x is None:
        raise UnsupportedPresentation(
            "relations do not determine all pairwise products"
        )
    k = len(gens)
    Q = np.empty((k, k), dtype=object)
    for (i, j), idx in pos.items():
        Q[i, j] = x[idx]
        Q[j, i] = x[idx]
    Q.setflags(write=False)
    return Q


# -- growth exponents --------------------------------------------------------


@dataclass(frozen=True)
class CohomologyAction:
    """Matrices of an endomorphism on each graded piece of a Poincare-duality
    manifold's cohomology, plus its degree."""

    manifold_dim: int
    matrices: Mapping  # degree k -> square ndarray
    claimed_degree: float

    def __post_init__(self):
        for k, A in self.matrices.items():
            A = np.asarray(A, dtype=float)
            if A.ndim != 2 or A.shape[0] != A.shape[1]:
                raise ShapeError(f"action matrix in degree {k} is not square")
            if not 1 <= k <= self.manifold_dim:
                raise DimensionMismatch(f"degree {k} outside 1..{self.manifold_dim}")
        if self.claimed_degree == 0:
            raise ParameterError("claimed degree must be nonzero")
        n = self.manifold_dim
        if n in self.matrices:
            top = np.asarray(self.matrices[n], dtype=float)
            if top.shape != (1, 1):
                raise ShapeError("top-degree action must be 1x1")
            if abs(top[0, 0] - self.claimed_degree) > 1e-9 * max(1.0, abs(top[0, 0])):
                raise ParameterError(
                    f"top-degree action {top[0, 0]} conflicts with "
                    f"claimed degree {self.claimed_degree}"
                )


@dataclass(frozen=True)
class ExponentReport(JsonFields):
    rho: float
    rho_rational: Optional[Fraction]
    degree_exponent: float
    degree_exponent_rational: Optional[Fraction]
    lip_exponent: float  # rho / n; Lip f >= c |deg f|^{lip_exponent}
    witnesses: tuple  # of (degree k, |eigenvalue|, exponent)


def _snap(x: float, tol: float = 1e-9) -> Optional[Fraction]:
    cand = Fraction(x).limit_denominator(10**6)
    return cand if abs(float(cand) - x) <= tol * max(1.0, abs(x)) else None


def lipschitz_lower_exponent(action: CohomologyAction, tol: float = 1e-9) -> ExponentReport:
    """Growth exponent rho = max_k,lambda  n*log|lambda| / (k*log|d|).

    Any endomorphism of algebra-degree d acting with eigenvalue lambda on
    graded degree k forces Lip >= |lambda|^{1/k} per iteration-doubling,
    hence Lip >= |d|^{rho/n} and deg <= C * Lip^{n/rho}.  By Poincare
    duality each eigenvalue lambda in degree k contributes its dual
    d/lambda in degree n-k, and rho >= 1 is checked.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ParameterError(f"tolerance must be finite and positive, got {tol!r}")
    n = action.manifold_dim
    d = abs(float(action.claimed_degree))
    if abs(d - 1.0) <= tol:
        raise UndefinedExponent("|degree| = 1 admits no growth exponent")
    logd = np.log(d)
    entries = []  # (k, modulus)
    for k, A in action.matrices.items():
        for lam in np.linalg.eigvals(np.asarray(A, dtype=float)):
            m = abs(lam)
            if m > tol:
                entries.append((k, m))
                if k < n:
                    entries.append((n - k, d / m))
    if not entries:
        raise EmptyData("no nonzero eigenvalues found")
    witnesses = [(k, m, n * np.log(m) / (k * logd)) for k, m in entries]
    rho = float(max(e for _, _, e in witnesses))
    if rho < 1.0 - 1e-12:
        raise ParameterError(
            f"duality-completed exponent {rho} < 1; eigenvalue data inconsistent"
        )
    rho_rat = _snap(rho, tol)
    deg_exp = n / rho
    deg_rat = None if rho_rat is None else Fraction(n, 1) / rho_rat
    witnesses.sort(key=lambda w: (-w[2], w[0]))
    return ExponentReport(
        rho=rho,
        rho_rational=rho_rat,
        degree_exponent=float(deg_exp),
        degree_exponent_rational=deg_rat,
        lip_exponent=rho / n,
        witnesses=tuple(witnesses),
    )


def positive_weight_exponents(weights: Sequence) -> tuple:
    """(alpha, multiplicity) from (dimension, weight) pairs.

    Per dimension m the best ratio is gamma_m = max(weight/m); alpha is the
    largest gamma_m and the multiplicity counts dimensions attaining it.
    Exact Fractions throughout.
    """
    if not weights:
        raise EmptyData("no weight data")
    gamma: dict = {}
    for dim, w in weights:
        dim, w = int(dim), int(w)
        if dim < 1 or w < 1:
            raise ParameterError(f"weights must be positive, got ({dim}, {w})")
        r = Fraction(w, dim)
        gamma[dim] = max(gamma.get(dim, Fraction(0)), r)
    alpha = max(gamma.values())
    mult = sum(1 for v in gamma.values() if v == alpha)
    return alpha, mult


# -- presets -----------------------------------------------------------------


def _xk(k: int) -> RingPresentation:
    """k positive-definite summands: the connected sum of k copies of CP^2."""
    if k < 1:
        raise ParameterError("Xk needs k >= 1")
    return _connected_sum(k, 0)


def _cpn(n: int) -> RingPresentation:
    if n < 1:
        raise ParameterError("CPn needs n >= 1")
    rel = Relation("u^{n+1}", ((Fraction(1), ("u",) * (n + 1)),))
    return RingPresentation(2 * n, (("u", 2),), (rel,), ("u",) * n)


def _s2xs2() -> RingPresentation:
    rels = (
        Relation("u1^2", ((Fraction(1), ("u1", "u1")),)),
        Relation("u2^2", ((Fraction(1), ("u2", "u2")),)),
    )
    return RingPresentation(4, (("u1", 2), ("u2", 2)), rels, ("u1", "u2"))


def _connected_sum(p: int, q: int) -> RingPresentation:
    k = p + q
    if k < 1:
        raise EmptyData("connected sum needs at least one summand")
    sign = [1] * p + [-1] * q
    gens = tuple((f"u{i}", 2) for i in range(1, k + 1))
    rels = []
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            rels.append(Relation(f"u{i}u{j}", ((Fraction(1), (f"u{i}", f"u{j}")),)))
            rels.append(
                Relation(
                    f"u{i}^2{'-' if sign[i-1]*sign[j-1] > 0 else '+'}u{j}^2",
                    (
                        (Fraction(1), (f"u{i}", f"u{i}")),
                        (Fraction(-sign[i - 1] * sign[j - 1]), (f"u{j}", f"u{j}")),
                    ),
                )
            )
    return RingPresentation(4, gens, tuple(rels), ("u1", "u1"))


def _torus(n: int) -> RingPresentation:
    """Even-degree model with n square-zero degree-2 generators.

    Degree-1 classes are lifted to degree 2 (the checker requires degrees
    >= 2), giving the ring of a product of n two-spheres: square-zero
    generators whose full product is the top class.
    """
    if n < 1:
        raise ParameterError("torus needs n >= 1")
    gens = tuple((f"t{i}", 2) for i in range(1, n + 1))
    rels = tuple(
        Relation(f"t{i}^2", ((Fraction(1), (f"t{i}", f"t{i}")),))
        for i in range(1, n + 1)
    )
    return RingPresentation(2 * n, gens, rels, tuple(f"t{i}" for i in range(1, n + 1)))


# family -> (builder, pattern of the name with its parameters embedded, or
# None, and the keyword parameters in the builder's order)
_PRESETS = {
    "connected-sum": (_connected_sum, r"connected-sum\((\d+), *(\d+)\)", ("p", "q")),
    "torus": (_torus, r"torus\((\d+)\)", ("n",)),
    "S2xS2": (_s2xs2, None, ()),
    "CPn": (_cpn, r"CP(\d+)", ("n",)),
    "Xk": (_xk, r"X(\d+)", ("k",)),
}


def preset_presentations(name: str, **params) -> RingPresentation:
    """Presets: CPn, Xk, S2xS2, connected-sum(p,q), torus(n).

    Numeric parameters may be embedded ("X3", "CP2", "torus(4)",
    "connected-sum(2,3)") or passed as keywords (k=3, n=2, p=2, q=3).
    """

    def param(key: str) -> int:
        if params.get(key) is None:
            raise ParameterError(f"preset {name!r} needs parameter {key!r}")
        return int(params[key])

    for family, (build, pattern, keys) in _PRESETS.items():
        m = re.fullmatch(pattern, name, re.ASCII) if pattern else None
        if m:
            return build(*map(int, m.groups()))
        if name == family:
            return build(*map(param, keys))
    raise PresetLookupError(f"unknown presentation preset {name!r}")


def preset_cohomology_action(name: str, t: int = 2) -> CohomologyAction:
    """Preset endomorphism actions with known growth exponents.

    "s3-bundle": the 7-manifold total space of a 3-sphere bundle over a
    product of two 2-spheres.  Weights: the two generators of degree 2
    scale by t, the two middle (degree 5) classes -- products of one
    degree-2 and one degree-3 class, taken as the standard basis of that
    product space -- scale by t^3, and the top class by t^4.

    "sphere": S^n with a degree-t self-map (n via keyword not needed; the
    1-dimensional top action alone, n = 7 kept for symmetry of tests).
    """
    if name == "s3-bundle":
        if abs(int(t)) != t or t < 2:
            raise ParameterError("s3-bundle preset needs an integer t >= 2")
        return CohomologyAction(
            manifold_dim=7,
            matrices={
                2: t * np.eye(2),
                5: (t**3) * np.eye(2),
                7: np.array([[float(t**4)]]),
            },
            claimed_degree=float(t**4),
        )
    if name == "sphere":
        if t == 0:
            raise ParameterError("sphere preset needs a nonzero degree")
        return CohomologyAction(
            manifold_dim=7,
            matrices={7: np.array([[float(t)]])},
            claimed_degree=float(t),
        )
    raise PresetLookupError(f"unknown action preset {name!r}")


def preset_weights(name: str) -> list:
    """Weight data (dimension, weight) presets for positive-weight spaces."""
    if name == "s3-bundle":
        return [(2, 1), (2, 1), (5, 3), (5, 3), (7, 4)]
    raise PresetLookupError(f"unknown weight preset {name!r}")
