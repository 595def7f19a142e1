"""Ring-embedding verdicts for closed-manifold cohomology presentations.

The decision problem: does a presented graded ring admit an injective,
degree-preserving ring homomorphism into an exterior algebra (or a direct
sum of them) sending the top class to a nonzero volume multiple?

Three layers of evidence, kept strictly apart:

* exact middle-degree signature tests — the only source of a
  ``not_scalable`` verdict.  When the signature fits, the same layer
  builds the witness in closed form: matching the inertia directions of
  the form with those of the ambient wedge pairing gives rows realizing
  the form, up to float rounding;
* numerical embedding search (damped least squares, i.e.
  Levenberg–Marquardt, over assignments of constant-coefficient forms,
  projected onto the unit coefficient ball after each step) — produces
  witnesses and defect floors for whole presentations, never
  impossibility claims.  Its words are compiled once per search into flat
  wedge index arrays, so residual and Jacobian are a few ``np.bincount``
  calls, and the projection rescales and clips the top generators'
  coefficients as Python floats against the top word's one pinned slot;
* the k <= 3 counterexample to the four-tuple wedge inequality: the
  normalized self-dual triple, whose squares are the volume form while
  its pairwise products and square differences vanish.

Defects and norms use the maximum absolute basis coefficient throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, groupby
from math import comb, isfinite
from typing import Optional

import numpy as np

from .errors import (
    DegenerateForm,
    DimensionMismatch,
    EmptyData,
    LipdegError,
    ParameterError,
    ShapeError,
)
from .exterior import (
    JsonFields,
    from_dense,
    multi_indices,
    selfdual_triple,
    signature,
    wedge_nonzeros,
    wedge_pairing_matrix,
)
from .rings import Assignment, RingPresentation, intersection_form

__all__ = [
    "ScalabilityVerdict",
    "SearchConfig",
    "EmbeddingSearch",
    "Kge4Report",
    "check_middle_form",
    "search_embedding",
    "kge4_certificate",
]


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 16
    max_iters: int = 300
    tolerance: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ParameterError("restarts must be >= 1")
        if not (isfinite(self.tolerance) and self.tolerance > 0):
            raise ParameterError(f"tolerance must be finite and positive, got {self.tolerance!r}")
        if self.max_iters < 1:
            raise ParameterError("max_iters must be >= 1")


@dataclass(frozen=True)
class ScalabilityVerdict(JsonFields):
    status: str  # "scalable" | "not_scalable" | "evidence_only"
    certificate: Optional[Assignment] = None
    obstruction: Optional[dict] = None
    defect: Optional[float] = None
    notes: str = ""

    def __post_init__(self):
        if self.status not in ("scalable", "not_scalable", "evidence_only"):
            raise ParameterError(f"unknown status {self.status!r}")
        if self.status == "scalable" and self.certificate is None:
            raise ParameterError("scalable verdict requires a witness assignment")

    def to_json_dict(self) -> dict:
        return {k: v for k, v in super().to_json_dict().items() if v is not None}


# -- exact middle-degree criterion --------------------------------------------


def _pairing_witness(G, p: int) -> Optional[np.ndarray]:
    """Rows X with X P X^T = G, P the wedge pairing on Lambda^p(R^2p).

    Diagonalize both G and P, rescale the pairing eigenbasis to squares
    of +-1, and match inertia directions: row i of X is generator i's
    coefficient vector.  Returns None when G has a numerically null
    direction or more directions of one sign than P.
    """
    P = wedge_pairing_matrix(2 * p, p).astype(float)
    mu, U = np.linalg.eigh(P)
    basis = U / np.sqrt(np.abs(mu))[None, :]
    lam, V = np.linalg.eigh(np.asarray(G, dtype=float))
    if np.any(np.abs(lam) < 1e-12):
        return None
    pos_cols = [i for i, v in enumerate(mu) if v > 0]
    neg_cols = [i for i, v in enumerate(mu) if v < 0]
    sel = []
    for lv in lam:
        pool = pos_cols if lv > 0 else neg_cols
        if not pool:
            return None
        sel.append(pool.pop())
    M = V * np.sqrt(np.abs(lam))[None, :]
    return M @ basis[:, sel].T


def check_middle_form(Q, n: int, cfg: Optional[SearchConfig] = None) -> ScalabilityVerdict:
    """Exact verdict for the middle-degree pairing of a 2n-manifold.

    The positive and negative inertia indices must each fit inside the
    corresponding inertia index of the wedge pairing on middle-degree
    constant forms in 2n ambient dimensions — each equal to half of
    (2n choose n).  Integer and Fraction forms are decided exactly.  When
    the signature fits, the witness rows x1..xr come from
    ``_pairing_witness`` in float arithmetic, and the reported defect is
    max |X P X^T - Q| / max |Q|; cfg supplies only its tolerance.
    """
    Q = np.asarray(Q)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or Q.size == 0:
        raise ShapeError(f"intersection form must be square and nonempty, got {Q.shape}")
    if n % 2 != 0:
        raise ParameterError("middle degree must be even for a symmetric pairing")
    pos, neg, zero = signature(Q)
    if zero > 0:
        raise DegenerateForm(f"intersection form degenerate: {zero} null directions")
    cap = comb(2 * n, n) // 2
    if pos > cap or neg > cap:
        return ScalabilityVerdict(
            status="not_scalable",
            obstruction={
                "positive": pos,
                "negative": neg,
                "cap_each_sign": cap,
                "excess": max(pos - cap, neg - cap),
            },
            notes=f"inertia index exceeds {cap}: signature ({pos},{neg})",
        )
    fits = f"signature ({pos},{neg}) fits cap {cap}"
    Qf = Q.astype(float)
    X = _pairing_witness(Qf, n)
    if X is None:
        return ScalabilityVerdict("evidence_only", notes=f"{fits}; float form too near singular")
    P = wedge_pairing_matrix(2 * n, n)
    defect = float(np.max(np.abs(X @ P @ X.T - Qf)) / np.max(np.abs(Qf)))
    ok = defect < max((cfg or SearchConfig()).tolerance, 1e-6)
    return ScalabilityVerdict(
        status="scalable" if ok else "evidence_only",
        certificate=Assignment(
            ambient_dim=2 * n,
            forms={f"x{i + 1}": from_dense(2 * n, n, row) for i, row in enumerate(X)},
        ),
        defect=defect,
        notes=f"{fits}; witness defect {defect:.3e}" + ("" if ok else " exceeds tolerance"),
    )


# -- dense workspace for the search -------------------------------------------

# float64 entries in the search Jacobian, its normal matrix and its compiled
# terms; the sample cap of bands._check_grid
_MAX_JACOBIAN = 2**27


class _Workspace:
    """Dense-vector evaluation of one presentation inside Lambda(R^m).

    The search state is one flat vector x: the generators' coefficient
    vectors laid end to end in generator order, ``cols[g]`` slicing out g's.
    Every word the search reads is compiled once into flat index arrays over
    z = [1, x, word values], the empty word's value being the constant 1
    and a one-letter word's a slice of x.
    """

    def __init__(self, pres: RingPresentation, m: int):
        self.deg = dict(pres.generators)
        # relations of degree above m vanish identically in Lambda(R^m) and
        # get no residual rows; sizes are settled before anything is built
        kept = [(rel, pres.word_degree(rel.monomials[0][1])) for rel in pres.relations]
        kept = [(rel, deg) for rel, deg in kept if deg <= m]
        self.n_params = sum(comb(m, d) for _, d in pres.generators)
        self.n_rows = sum(comb(m, deg) for _, deg in kept)
        words = [w for rel, _ in kept for _, w in rel.monomials]
        top = pres.top_class
        # slot t of a degree-D word splits e_K, |K| = D, into prefix, slot and
        # suffix indices; no word product has more terms than its last slot
        n_terms = sum(
            comb(m, deg) * comb(deg, self.deg[g]) * comb(deg - self.deg[g], p)
            for w in words + [top]
            for deg in [pres.word_degree(w)]
            for g, p in zip(w, accumulate([0] + [self.deg[g] for g in w]))
        )
        if max(self.n_rows * self.n_params, self.n_params**2, n_terms) > _MAX_JACOBIAN:
            raise ParameterError(
                f"search in Lambda(R^{m}) exceeds the cap of {_MAX_JACOBIAN} Jacobian entries"
            )
        self.cols = {}
        flip, in_top = [], []
        at = 0
        for nm, d in pres.generators:
            basis = multi_indices(m, d)
            self.cols[nm] = slice(at, at + len(basis))
            at += len(basis)
            flip += [1 in I for I in basis]
            in_top += [nm in top] * len(basis)
        # coefficients whose basis index contains axis 1 (negated by the
        # reflection of the first coordinate), and those of generators in
        # the top word (rescaled to pin the top value)
        self.flip = np.array(flip)
        self.in_top = np.array(in_top)
        self.top_idx = np.flatnonzero(self.in_top)
        self.top_flip = self.flip[self.top_idx].tolist()
        self.top_len = len(top)

        # z = [1, x, word values]: word w's coefficients start at pos[w]; the
        # subwords a relation word's Jacobian reads as prefix or suffix
        sub = {w[i:k] for w in words for i in range(len(w)) for k in range(i + 2, len(w) + 1)}
        pos = {(): 0, **{(g,): 1 + cols.start for g, cols in self.cols.items()}}
        self.levels = _compile_levels(pres, m, sub, pos, 1 + self.n_params)

        # r: each monomial's coefficient times its word; J: for each
        # (monomial, slot), coefficient times sign times prefix times suffix,
        # at (row of e_K, column of the slot's index).  bincount adds each
        # bin's terms in this (monomial, slot) order
        r_parts = [(np.zeros(0, int), np.zeros(0), np.zeros(0, int))]
        j_parts = [(np.zeros(0, int), np.zeros(0), np.zeros(0, int), np.zeros(0, int))]
        row = 0
        for rel, deg in kept:
            span = np.arange(comb(m, deg))
            for c, w in rel.monomials:
                r_parts.append((row + span, np.full(span.size, float(c)), pos[w] + span))
                for t, p in enumerate(accumulate([0] + [self.deg[g] for g in w[:-1]])):
                    d = self.deg[w[t]]
                    t1, l1, r1, s1 = wedge_nonzeros(m, p, d)
                    t2, l2, r2, s2 = wedge_nonzeros(m, p + d, deg - p - d)
                    # join each (prefix, slot) pair with the suffixes that
                    # extend it: l2 is sorted, so those are one run of it
                    first = np.searchsorted(l2, t1)
                    count = np.searchsorted(l2, t1, side="right") - first
                    i1 = np.repeat(np.arange(t1.size), count)
                    i2 = np.arange(i1.size) + np.repeat(first + count - np.cumsum(count), count)
                    j_parts.append((
                        (row + t2[i2]) * self.n_params + self.cols[w[t]].start + r1[i1],
                        float(c) * s1[i1] * s2[i2],
                        pos[w[:t]] + l1[i1],
                        pos[w[t + 1:]] + r2[i2],
                    ))
            row += span.size
        self.r_bins, self.r_coeff, self.r_at = map(np.concatenate, zip(*r_parts))
        self.j_bins, self.j_coeff, self.j_a, self.j_b = map(np.concatenate, zip(*j_parts))

        # the top value over u = [1, x[top_idx], top prefix values]: the (sign,
        # a, b) terms of slot e_{1..n} (volume when m == n) in bincount's order
        upos = {(): 0, **{(g,): 1 + int(np.searchsorted(self.top_idx, c.start))
                          for g, c in self.cols.items() if g in top}}
        prefixes = {top[:k] for k in range(2, len(top))}
        self.top_levels = _compile_levels(pres, m, prefixes, upos, 1 + self.top_idx.size)
        target, left, right, sign = wedge_nonzeros(m, pres.word_degree(top[:-1]), self.deg[top[-1]])
        a, b = upos[top[:-1]] + left[target == 0], upos[top[-1:]] + right[target == 0]
        self.top_terms = list(zip(sign[target == 0].tolist(), a.tolist(), b.tolist()))

    # -- the residual/Jacobian kernel ----------------------------------------

    def residual_jacobian(self, x):
        """Stacked relation coefficients and their Jacobian in x.  The max
        absolute residual is the defect."""
        z = _chain(np.concatenate(([1.0], x)), self.levels)
        r = np.bincount(self.r_bins, weights=self.r_coeff * z[self.r_at], minlength=self.n_rows)
        J = np.bincount(
            self.j_bins,
            weights=self.j_coeff * z[self.j_a] * z[self.j_b],
            minlength=self.n_rows * self.n_params,
        )
        return r, J.reshape(self.n_rows, self.n_params)

    def top(self, t: list) -> float:
        """The top word's normalization-slot value at t = x[top_idx] as a list."""
        u = [1.0, *t]
        if self.top_levels:
            u = _chain(np.array(u), self.top_levels).tolist()
        c = 0.0
        for s, a, b in self.top_terms:
            c += s * u[a] * u[b]
        return c

    # -- normalization ------------------------------------------------------

    def project_top(self, x) -> Optional[np.ndarray]:
        """Project onto the search domain: unit-ball coefficients with the
        top word landing on the reference slot with value +1.

        Negative top values are cured by pulling back through the
        reflection of the first axis (an algebra map, so relation defects
        transform consistently); the generators in the top word are then
        rescaled, alternating with a clip to the coefficient ball.  The
        ball matters: without it the defect infimum is approached by
        letting coefficients blow up, and the reported floors for
        non-embeddable presentations would be meaningless.  Returns None
        when the top value is numerically zero or the two constraints
        cannot be reconciled within 60 clips.

        The rounds run on the top generators' floats; the rest never move c,
        so they are clipped once if any round clips and reflected by parity.
        NaN fails every ball test: NaN in x or c, and inf * 0 (c = inf), give None.
        """
        if np.isnan(x).any():
            return None
        tol = 1.0 + 1e-12
        rest_wide = float(np.max(np.abs(x), where=~self.in_top, initial=0.0)) > tol
        t = x[self.top_idx].tolist()
        flips, clipped = 0, False
        for _ in range(60):
            c = self.top(t)
            if not abs(c) >= 1e-12 or not (isfinite(c) or all(map(isfinite, t))):
                return None
            if c < 0:
                t = [-v if f else v for v, f in zip(t, self.top_flip)]
                c, flips = -c, flips + 1
            s = c ** (-1.0 / self.top_len)
            t = [v * s for v in t]
            if (clipped or not rest_wide) and max(t) <= tol and min(t) >= -tol:
                y = np.clip(x, -1.0, 1.0) if clipped else x
                y = np.where(self.flip, -y, y) if flips % 2 else y.copy()
                y[self.top_idx] = t
                return y
            t = [1.0 if v > 1.0 else -1.0 if v < -1.0 else v for v in t]
            clipped = True
        return None


def _compile_levels(pres: RingPresentation, m: int, words, pos: dict, size: int):
    """One (n, bins, sign, a, b) per word length, each word wedging its prefix
    with its last letter at z[pos[...]]; words start at z[size:]."""
    levels = []
    for _, level in groupby(sorted(words, key=lambda w: (len(w), w)), key=len):
        parts, lo = [], size
        for w in level:
            p, q = pres.word_degree(w[:-1]), pres.degrees[w[-1]]
            target, left, right, sign = wedge_nonzeros(m, p, q)
            parts.append((size - lo + target, sign, pos[w[:-1]] + left, pos[w[-1:]] + right))
            pos[w] = size
            size += comb(m, p + q)
        levels.append((size - lo, *map(np.concatenate, zip(*parts))))
    return levels


def _chain(z: np.ndarray, levels: list) -> np.ndarray:
    """z extended by the word values of ``levels``, one bincount per level."""
    for n, bins, sign, a, b in levels:
        z = np.concatenate((z, np.bincount(bins, weights=sign * z[a] * z[b], minlength=n)))
    return z


@dataclass(frozen=True)
class EmbeddingSearch(JsonFields):
    assignment: Assignment
    defect: float
    restart_defects: tuple
    best_restart: int
    summand_dim: int
    converged: bool
    seed: int


def _descend(ws: _Workspace, x: np.ndarray, cfg: SearchConfig):
    """Damped least-squares descent; returns the best-defect incumbent."""
    r, J = ws.residual_jacobian(x)
    if r.size == 0:
        return 0.0, x
    F = float(r @ r)
    lam = 1e-3
    best_defect = float(np.max(np.abs(r)))
    best_x = x
    eye = np.eye(J.shape[1])
    for _ in range(cfg.max_iters):
        # J is fixed until a step is accepted, so every damping try shares these
        JtJ, Jtr = J.T @ J, J.T @ r
        stepped = False
        for _ in range(12):
            A = JtJ + lam * eye
            try:
                delta = np.linalg.solve(A, Jtr)
            except np.linalg.LinAlgError:
                lam *= 4.0
                continue
            cand = ws.project_top(x - delta)
            if cand is None:
                lam *= 4.0
                continue
            r2, J2 = ws.residual_jacobian(cand)
            F2 = float(r2 @ r2)
            if F2 < F:
                x, r, J, F = cand, r2, J2, F2
                lam = max(lam / 3.0, 1e-12)
                stepped = True
                break
            lam *= 4.0
        defect = float(np.max(np.abs(r)))
        if defect < best_defect:
            best_defect, best_x = defect, x
        if best_defect < cfg.tolerance or not stepped:
            break
    return best_defect, best_x


def _structured_start(pres: RingPresentation, m: int) -> Optional[np.ndarray]:
    """Spectral initialization for middle-degree presentations.

    When the presentation pins all pairwise products (so it has a genuine
    pair-product matrix G), ``_pairing_witness`` realizes G exactly
    whenever the signature fits, giving the descent an exact witness to
    polish, as generator rows laid end to end; otherwise return None
    and let random restarts run.
    """
    if m != pres.manifold_dim:
        return None
    try:
        # raises unless every generator sits in the middle degree m/2, and
        # the pairing then raises unless that degree is even
        X = _pairing_witness(intersection_form(pres), m // 2)
    except LipdegError:
        return None
    return None if X is None else X.ravel()


def _search_single(pres: RingPresentation, m: int, cfg: SearchConfig):
    ws = _Workspace(pres, m)
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    structured = _structured_start(pres, m)
    best = None
    defects = []
    for ridx in range(cfg.restarts):
        rng = np.random.default_rng(seeds[ridx])
        x = None
        if ridx == 0 and structured is not None:
            x = ws.project_top(structured)
        if x is None:
            for _ in range(32):
                x = ws.project_top(rng.standard_normal(ws.n_params))
                if x is not None:
                    break
        if x is None:
            defects.append(float("inf"))
            continue
        defect, x = _descend(ws, x, cfg)
        defects.append(defect)
        if best is None or defect < best[0]:
            best = (defect, ridx, x)
    if best is None:
        raise DegenerateForm("every restart produced a vanishing top class")
    defect, ridx, x = best
    forms = {g: from_dense(m, ws.deg[g], x[cols]) for g, cols in ws.cols.items()}
    return EmbeddingSearch(
        assignment=Assignment(ambient_dim=m, forms=forms),
        defect=defect,
        restart_defects=tuple(defects),
        best_restart=ridx,
        summand_dim=m,
        converged=defect < cfg.tolerance,
        seed=cfg.seed,
    )


def search_embedding(
    pres: RingPresentation, ambient: list, cfg: SearchConfig = SearchConfig()
) -> EmbeddingSearch:
    """Best-effort injective-image search over a sum of exterior algebras.

    Top-class normalization pins the image of the top word to +1 on the
    reference volume slot, so the zero assignment is never a minimizer.
    A direct sum is handled one summand at a time: the top class must
    land injectively in a single summand (its pairing with everything
    else is what forces injectivity), so per-summand search with the
    best defect kept is exact for duality-respecting presentations.
    """
    if not ambient:
        raise EmptyData("ambient list is empty")
    usable = [
        m
        for m in ambient
        if m >= pres.manifold_dim and all(d <= m for _, d in pres.generators)
    ]
    if not usable:
        raise DimensionMismatch(
            f"no ambient summand can carry a degree-{pres.manifold_dim} top class"
        )
    # min keeps the first of equal defects
    return min((_search_single(pres, m, cfg) for m in usable), key=lambda s: s.defect)


# -- four-tuple wedge inequality ----------------------------------------------


@dataclass(frozen=True)
class Kge4Report(JsonFields):
    status: str  # "counterexample"
    worst_case: Assignment
    lhs: float
    rhs: float
    seed: int
    k: int


def _pair_stats(B: np.ndarray, W: np.ndarray):
    """(lhs, rhs) of the pairing estimate for the k two-forms in the rows of
    B (k, 6), from the volume coefficients of all their pairwise wedges."""
    S = B @ W.astype(float) @ B.T
    k = len(B)
    diag = np.diag(S)
    lhs = np.max(np.abs(diag))
    pairs = ((i, j) for i in range(k) for j in range(k) if i != j)
    rhs = sum(np.abs(diag[i] - diag[j]) + np.abs(S[i, j]) for i, j in pairs)
    return lhs, rhs


def kge4_certificate(samples: int = 10, seed: int = 0, k: int = 3) -> Kge4Report:
    """Counterexample to the pairing estimate below four factors.

    For k >= 4, any k two-forms on R^4 with sup-norm coefficients at most
    one satisfy max_i |b_i ^ b_i| <= C * sum over ordered pairs i != j of
    (|b_i^b_i - b_j^b_j| + |b_i^b_j|): when the right side vanishes, all
    squares are equal and pairwise products vanish, which the (3,3)
    pairing signature rules out unless every square is zero.  The
    constant C is not estimated; ``check_middle_form`` gives the
    not-scalable verdict.

    With 1 <= k <= 3 the inequality is false: the first k forms of the
    normalized self-dual triple have pairwise products and square
    differences all zero while each square is the volume form, and the
    report carries them as its worst case with lhs 1 and rhs 0.  The
    report does not depend on samples or seed; seed is recorded.
    """
    if not 1 <= k <= 3:
        raise ParameterError(
            f"k = {k}: the counterexample needs 1 <= k <= 3; the k >= 4 constant "
            "is not estimated, and check_middle_form gives the not-scalable verdict"
        )
    rows = selfdual_triple()[:k]
    lhs, rhs = _pair_stats(rows, wedge_pairing_matrix(4, 2))
    forms = {f"b{i + 1}": from_dense(4, 2, row) for i, row in enumerate(rows)}
    return Kge4Report(
        status="counterexample",
        worst_case=Assignment(ambient_dim=4, forms=forms),
        lhs=float(lhs),
        rhs=float(rhs),
        seed=seed,
        k=k,
    )
