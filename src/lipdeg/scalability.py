"""Ring-embedding verdicts for closed-manifold cohomology presentations.

The decision problem: does a presented graded ring admit an injective,
degree-preserving ring homomorphism into an exterior algebra (or a direct
sum of them) sending the top class to a nonzero volume multiple?

Three layers of evidence, kept strictly apart:

* exact middle-degree signature tests — the only source of a
  ``not_scalable`` verdict;
* numerical embedding search (damped least squares, i.e.
  Levenberg–Marquardt, over assignments of constant-coefficient forms,
  projected onto a normalized coefficient ball after each step) —
  produces witnesses and defect floors, never impossibility claims;
* a quantitative obstruction estimate: the four-tuple wedge inequality
  constant.

Defects and norms use the maximum absolute basis coefficient throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from math import comb
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
    dense_vector,
    from_dense,
    multi_indices,
    selfdual_triple,
    signature,
    wedge_dense,
    wedge_left_matrix,
    wedge_pairing_matrix,
    wedge_right_matrix,
)
from .rings import Assignment, RingPresentation, Relation, intersection_form

__all__ = [
    "ScalabilityVerdict",
    "SearchConfig",
    "EmbeddingSearch",
    "Kge4Report",
    "check_middle_form",
    "presentation_from_intersection_form",
    "search_embedding",
    "kge4_certificate",
]


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 16
    max_iters: int = 300
    tolerance: float = 1e-8
    seed: int = 0
    # coefficient ball for the search domain; None lifts the cap (used when
    # attaching witnesses to exact verdicts, where scale carries no meaning)
    ball_cap: Optional[float] = 1.0

    def __post_init__(self):
        if self.restarts < 1:
            raise ParameterError("restarts must be >= 1")
        if self.tolerance <= 0:
            raise ParameterError("tolerance must be positive")
        if self.max_iters < 1:
            raise ParameterError("max_iters must be >= 1")
        if self.ball_cap is not None and self.ball_cap <= 0:
            raise ParameterError("ball_cap must be positive or None")


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


def presentation_from_intersection_form(Q, half_dim: int = 2) -> RingPresentation:
    """Presentation of a (half_dim-1)-connected manifold with pairing Q.

    Generators in degree half_dim, one relation per unordered generator
    pair pinning the product to the right multiple of a reference pair
    with nonzero pairing; that reference pair is the top word.
    """
    Q = np.asarray(Q)
    r = Q.shape[0]
    names = tuple(f"x{i + 1}" for i in range(r))
    ref = None
    for i in range(r):
        for j in range(i, r):
            if Q[i, j] != 0:
                ref = (i, j)
                break
        if ref:
            break
    if ref is None:
        raise DegenerateForm("intersection form is identically zero")
    a, b = ref
    qref = Fraction(Q[a, b]) if not isinstance(Q[a, b], float) else Q[a, b]
    rels = []
    for i in range(r):
        for j in range(i, r):
            if (i, j) == ref:
                continue
            ratio = (Fraction(Q[i, j]) if not isinstance(Q[i, j], float) else Q[i, j]) / qref
            mons = [(1, (names[i], names[j]))]
            if ratio != 0:
                mons.append((-ratio, (names[a], names[b])))
            rels.append(Relation(f"pair_{i + 1}_{j + 1}", tuple(mons)))
    return RingPresentation(
        manifold_dim=2 * half_dim,
        generators=tuple((nm, half_dim) for nm in names),
        relations=tuple(rels),
        top_class=(names[a], names[b]),
    )


def check_middle_form(Q, n: int, cfg: Optional[SearchConfig] = None) -> ScalabilityVerdict:
    """Exact verdict for the middle-degree pairing of a 2n-manifold.

    The positive and negative inertia indices must each fit inside the
    corresponding inertia index of the wedge pairing on middle-degree
    constant forms in 2n ambient dimensions — each equal to half of
    (2n choose n).  A decision this way is exact; only the attached
    witness (when scalable) comes from numerical search.
    """
    Q = np.asarray(Q)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ShapeError(f"intersection form must be square, got {Q.shape}")
    if n % 2 != 0:
        raise ParameterError("middle degree must be even for a symmetric pairing")
    pos, neg, zero = signature(Q)
    if zero > 0:
        raise DegenerateForm(
            f"intersection form degenerate: {zero} null directions"
        )
    cap = comb(2 * n, n) // 2
    sig = {"positive": pos, "negative": neg, "cap_each_sign": cap}
    if pos <= cap and neg <= cap:
        pres = presentation_from_intersection_form(Q, half_dim=n)
        cfg = cfg or SearchConfig()
        # witnesses certify exact relations; their scale carries no meaning,
        # so the coefficient ball is lifted for this search only
        wcfg = replace(cfg, ball_cap=None)
        search = search_embedding(pres, [2 * n], wcfg)
        witness_ok = search.defect < max(cfg.tolerance, 1e-6)
        if witness_ok:
            return ScalabilityVerdict(
                status="scalable",
                certificate=search.assignment,
                defect=search.defect,
                obstruction=None,
                notes=f"signature ({pos},{neg}) fits cap {cap}; witness defect {search.defect:.3e}",
            )
        return ScalabilityVerdict(
            status="evidence_only",
            certificate=search.assignment,
            defect=search.defect,
            notes=(
                f"signature ({pos},{neg}) fits cap {cap} but search defect "
                f"{search.defect:.3e} exceeded tolerance"
            ),
        )
    return ScalabilityVerdict(
        status="not_scalable",
        obstruction={
            **sig,
            "excess": max(pos - cap, neg - cap),
        },
        notes=f"inertia index exceeds {cap}: signature ({pos},{neg})",
    )


# -- dense workspace for the search -------------------------------------------


class _Workspace:
    """Dense-vector evaluation of one presentation inside Lambda(R^m).

    The search state is one flat vector x: the generators' coefficient
    vectors laid end to end in generator order, ``cols[g]`` slicing out g's.
    """

    def __init__(self, pres: RingPresentation, m: int, ball_cap: Optional[float] = 1.0):
        self.pres = pres
        self.m = m
        self.ball_cap = ball_cap
        self.deg = dict(pres.generators)
        self.cols = {}
        flip, in_top = [], []
        at = 0
        for nm, d in pres.generators:
            basis = multi_indices(m, d)
            self.cols[nm] = slice(at, at + len(basis))
            at += len(basis)
            flip += [1 in I for I in basis]
            in_top += [nm in pres.top_class] * len(basis)
        self.n_params = at
        # coefficients whose basis index contains axis 1 (negated by the
        # reflection of the first coordinate), and those of generators in
        # the top word (rescaled to pin the top value)
        self.flip = np.array(flip)
        self.in_top = np.array(in_top)
        self.top_len = len(pres.top_class)
        # residual rows per relation; relations of degree above m vanish
        # identically in Lambda(R^m) and get none
        self.relations = []
        at = 0
        for rel in pres.relations:
            deg = pres.word_degree(rel.monomials[0][1])
            if deg > m:
                continue
            monomials = [(float(c), word) for c, word in rel.monomials]
            self.relations.append((slice(at, at + comb(m, deg)), monomials))
            at += comb(m, deg)
        self.n_rows = at
        n = pres.manifold_dim
        # normalization slot: the volume element when m == n, else the
        # first lexicographic degree-n basis index
        self.top_slot = multi_indices(m, n).index(tuple(range(1, n + 1)))

    # -- the residual/Jacobian kernel ----------------------------------------

    def _prefixes(self, word, x) -> list:
        """Images of the word's prefixes: x1, x1^x2, ..., the whole word."""
        out = [x[self.cols[word[0]]]]
        deg = self.deg[word[0]]
        for g in word[1:]:
            out.append(wedge_dense(self.m, deg, self.deg[g], out[-1], x[self.cols[g]]))
            deg += self.deg[g]
        return out

    def _add_word(self, r, J, coeff, word, x) -> None:
        """Add coeff times the word's image to r and its Jacobian to J.

        The block of slot t is S @ L: L wedges the prefix before slot t on
        the left, S the suffix after it on the right.  S is kept as one
        running matrix from the end of the word, so a word of length k
        costs O(k) wedges.
        """
        prefixes = self._prefixes(word, x)
        r += coeff * prefixes[-1]
        if len(word) == 1:
            J[:, self.cols[word[0]]] += coeff * np.eye(r.size)
            return
        degs = list(accumulate(self.deg[g] for g in word))
        blocks = [None] * len(word)
        suffix = None
        for t in range(len(word) - 1, 0, -1):
            g, p = word[t], degs[t - 1]
            left = wedge_left_matrix(self.m, p, self.deg[g], prefixes[t - 1])
            blocks[t] = left if suffix is None else suffix @ left
            right = wedge_right_matrix(self.m, p, self.deg[g], x[self.cols[g]])
            suffix = right if suffix is None else suffix @ right
        blocks[0] = suffix
        for g, block in zip(word, blocks):
            J[:, self.cols[g]] += coeff * block

    def residual_jacobian(self, x):
        """Stacked relation coefficients and their Jacobian in x.  The max
        absolute residual is the defect."""
        r = np.zeros(self.n_rows)
        J = np.zeros((self.n_rows, self.n_params))
        for rows, monomials in self.relations:
            for coeff, word in monomials:
                self._add_word(r[rows], J[rows], coeff, word, x)
        return r, J

    def top_value(self, x) -> float:
        return float(self._prefixes(self.pres.top_class, x)[-1][self.top_slot])

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
        """
        cap = self.ball_cap
        for _ in range(60):
            c = self.top_value(x)
            if abs(c) < 1e-12:
                return None
            if c < 0:
                x, c = np.where(self.flip, -x, x), -c
            x = np.where(self.in_top, x * c ** (-1.0 / self.top_len), x)
            if cap is None or float(np.max(np.abs(x))) <= cap + 1e-12:
                return x
            x = np.clip(x, -cap, cap)
        return None


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
    n_params = J.shape[1]
    best_defect = float(np.max(np.abs(r)))
    best_x = x
    for _ in range(cfg.max_iters):
        stepped = False
        for _ in range(12):
            A = J.T @ J + lam * np.eye(n_params)
            try:
                delta = np.linalg.solve(A, J.T @ r)
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
    pair-product matrix G), diagonalize both G and the ambient wedge
    pairing, rescale the pairing eigenbasis to squares of +-1, and match
    inertia directions.  The resulting assignment realizes G exactly
    whenever the signature fits, giving the descent an exact witness to
    polish, as generator rows laid end to end; otherwise return None
    and let random restarts run.
    """
    if m != pres.manifold_dim:
        return None
    degs = {d for _, d in pres.generators}
    if len(degs) != 1:
        return None
    p0 = degs.pop()
    if 2 * p0 != m or p0 % 2 != 0:
        return None
    try:
        G = np.array(intersection_form(pres), dtype=float)
    except (LipdegError, TypeError, ValueError):
        return None
    P = wedge_pairing_matrix(m, p0).astype(float)
    mu, U = np.linalg.eigh(P)
    basis = U / np.sqrt(np.abs(mu))[None, :]
    basis_sign = np.sign(mu)
    lam, V = np.linalg.eigh(G)
    if np.any(np.abs(lam) < 1e-12):
        return None
    pos_cols = [i for i in range(len(mu)) if basis_sign[i] > 0]
    neg_cols = [i for i in range(len(mu)) if basis_sign[i] < 0]
    sel = []
    for lv in lam:
        pool = pos_cols if lv > 0 else neg_cols
        if not pool:
            return None
        sel.append(pool.pop())
    M = V * np.sqrt(np.abs(lam))[None, :]
    return (M @ basis[:, sel].T).ravel()


def _search_single(pres: RingPresentation, m: int, cfg: SearchConfig):
    ws = _Workspace(pres, m, ball_cap=cfg.ball_cap)
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
    return defect, ridx, Assignment(ambient_dim=m, forms=forms), tuple(defects)


def search_embedding(pres: RingPresentation, ambient, cfg: SearchConfig = SearchConfig()) -> EmbeddingSearch:
    """Best-effort injective-image search over a sum of exterior algebras.

    Top-class normalization pins the image of the top word to +1 on the
    reference volume slot, so the zero assignment is never a minimizer.
    A direct sum is handled one summand at a time: the top class must
    land injectively in a single summand (its pairing with everything
    else is what forces injectivity), so per-summand search with the
    best defect kept is exact for duality-respecting presentations.
    """
    if not pres.generators:
        raise EmptyData("presentation has no generators")
    dims = [ambient] if isinstance(ambient, int) else list(ambient)
    if not dims:
        raise EmptyData("ambient list is empty")
    usable = [
        m
        for m in dims
        if m >= pres.manifold_dim and all(d <= m for _, d in pres.generators)
    ]
    if not usable:
        raise DimensionMismatch(
            f"no ambient summand can carry a degree-{pres.manifold_dim} top class"
        )
    best = None
    for m in usable:
        defect, ridx, assignment, defects = _search_single(pres, m, cfg)
        if best is None or defect < best.defect:
            best = EmbeddingSearch(
                assignment=assignment,
                defect=defect,
                restart_defects=defects,
                best_restart=ridx,
                summand_dim=m,
                converged=defect < cfg.tolerance,
                seed=cfg.seed,
            )
    return best


# -- four-tuple wedge inequality ----------------------------------------------


@dataclass(frozen=True)
class Kge4Report(JsonFields):
    status: str  # "estimated" | "counterexample"
    c_est: Optional[float]
    worst_case: Assignment
    lhs: float
    rhs: float
    tuples: int
    seed: int
    k: int


def _pair_stats(B: np.ndarray, W: np.ndarray):
    """Volume coefficients of all pairwise wedges for tuples B (t, k, 6)."""
    S = np.einsum("tki,ij,tlj->tkl", B, W.astype(float), B)
    k = B.shape[1]
    diag = S[:, np.arange(k), np.arange(k)]
    lhs = np.max(np.abs(diag), axis=1)
    rhs = np.zeros(B.shape[0])
    for i in range(k):
        for j in range(k):
            if i != j:
                rhs += np.abs(diag[:, i] - diag[:, j]) + np.abs(S[:, i, j])
    return lhs, rhs


def _forms_assignment(B_row: np.ndarray) -> Assignment:
    forms = {
        f"b{i + 1}": from_dense(4, 2, B_row[i]) for i in range(B_row.shape[0])
    }
    return Assignment(ambient_dim=4, forms=forms)


def kge4_certificate(
    samples: int = 100_000, seed: int = 0, k: int = 4, ascent_iters: int = 150
) -> Kge4Report:
    """Estimate the best constant in the four-tuple wedge inequality.

    For k >= 4, any k two-forms on R^4 with sup-norm coefficients at most
    one satisfy max_i |b_i ^ b_i| <= C * sum over ordered pairs i != j of
    (|b_i^b_i - b_j^b_j| + |b_i^b_j|): when the right side vanishes, all
    squares are equal and pairwise products vanish, which the (3,3)
    pairing signature rules out unless every square is zero.  The
    constant is estimated by random sampling plus hill-climb ascent on
    the ratio, and the returned estimate is re-verified against every
    sampled tuple.

    With k < 4 the inequality is false: the normalized self-dual triple
    has pairwise products and square differences all zero while each
    square is the volume form, so the report carries counterexample
    status instead of a constant.
    """
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    W = wedge_pairing_matrix(4, 2)
    if k < 4:
        triple = selfdual_triple(normalized=True)
        rows = np.array([dense_vector(el, 2) for el in triple[:k]])
        lhs, rhs = _pair_stats(rows[None, :, :], W)
        return Kge4Report(
            status="counterexample",
            c_est=None,
            worst_case=_forms_assignment(rows),
            lhs=float(lhs[0]),
            rhs=float(rhs[0]),
            tuples=1,
            seed=seed,
            k=k,
        )
    rng = np.random.default_rng(seed)
    B = rng.uniform(-1.0, 1.0, size=(samples, k, 6))
    lhs, rhs = _pair_stats(B, W)
    ratio = np.where(rhs > 1e-12, lhs / np.maximum(rhs, 1e-300), 0.0)
    order = np.argsort(ratio)[::-1]
    climbers = B[order[:8]].copy()
    best_ratio = float(ratio[order[0]])
    best_tuple = climbers[0].copy()

    def tuple_ratio(tup):
        l, r = _pair_stats(tup[None], W)
        return float(l[0]) / max(float(r[0]), 1e-12)

    for c in range(climbers.shape[0]):
        cur = climbers[c]
        val = tuple_ratio(cur)
        step = 0.05
        for _ in range(ascent_iters):
            probe = np.clip(
                cur + step * rng.standard_normal(cur.shape), -1.0, 1.0
            )
            pval = tuple_ratio(probe)
            if pval > val:
                cur, val = probe, pval
            else:
                step *= 0.97
        if val > best_ratio:
            best_ratio, best_tuple = val, cur.copy()
    c_est = best_ratio
    # re-verify: no sampled tuple may violate the inequality at c_est
    bad = lhs > c_est * rhs + 1e-12
    if np.any(bad):
        worst = int(np.argmax(lhs - c_est * rhs))
        c_est = float(np.max(ratio))
        best_tuple = B[worst]
    lhs_best, rhs_best = _pair_stats(best_tuple[None], W)
    return Kge4Report(
        status="estimated",
        c_est=float(c_est),
        worst_case=_forms_assignment(best_tuple),
        lhs=float(lhs_best[0]),
        rhs=float(rhs_best[0]),
        tuples=samples,
        seed=seed,
        k=k,
    )
