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
  impossibility claims;
* a quantitative obstruction estimate: the four-tuple wedge inequality
  constant.

Defects and norms use the maximum absolute basis coefficient throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        if self.tolerance <= 0:
            raise ParameterError("tolerance must be positive")
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

# float64 entries in the search Jacobian; the sample cap of bands._check_grid
_MAX_JACOBIAN = 2**27


class _Workspace:
    """Dense-vector evaluation of one presentation inside Lambda(R^m).

    The search state is one flat vector x: the generators' coefficient
    vectors laid end to end in generator order, ``cols[g]`` slicing out g's.
    """

    def __init__(self, pres: RingPresentation, m: int):
        self.pres = pres
        self.m = m
        self.deg = dict(pres.generators)
        # relations of degree above m vanish identically in Lambda(R^m) and
        # get no residual rows; sizes are settled before anything is built
        rel_degs = [pres.word_degree(rel.monomials[0][1]) for rel in pres.relations]
        self.n_params = sum(comb(m, d) for _, d in pres.generators)
        self.n_rows = sum(comb(m, deg) for deg in rel_degs if deg <= m)
        # the Jacobian and its normal matrix
        if max(self.n_rows, self.n_params) * self.n_params > _MAX_JACOBIAN:
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
            in_top += [nm in pres.top_class] * len(basis)
        # coefficients whose basis index contains axis 1 (negated by the
        # reflection of the first coordinate), and those of generators in
        # the top word (rescaled to pin the top value)
        self.flip = np.array(flip)
        self.in_top = np.array(in_top)
        self.top_len = len(pres.top_class)
        self.relations = []
        at = 0
        for rel, deg in zip(pres.relations, rel_degs):
            if deg > m:
                continue
            monomials = [(float(c), word) for c, word in rel.monomials]
            self.relations.append((slice(at, at + comb(m, deg)), monomials))
            at += comb(m, deg)
        # normalization slot: e_{1..n}, first in lexicographic order (the
        # volume element when m == n)
        self.top_slot = 0

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
        for _ in range(60):
            c = self.top_value(x)
            if abs(c) < 1e-12:
                return None
            if c < 0:
                x, c = np.where(self.flip, -x, x), -c
            x = np.where(self.in_top, x * c ** (-1.0 / self.top_len), x)
            if float(np.max(np.abs(x))) <= 1.0 + 1e-12:
                return x
            x = np.clip(x, -1.0, 1.0)
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
    pair-product matrix G), ``_pairing_witness`` realizes G exactly
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
        G = intersection_form(pres)
    except LipdegError:
        return None
    X = _pairing_witness(G, p0)
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
