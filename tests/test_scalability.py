"""Embedding verdicts: exact signature tests, search, obstruction estimates."""

import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lipdeg import scalability
from lipdeg.errors import (
    DegenerateForm,
    DimensionMismatch,
    EmptyData,
    ParameterError,
    ShapeError,
)
from lipdeg.exterior import multi_indices, wedge_pairing_matrix
from lipdeg.rings import Assignment, Relation, preset_presentations
from lipdeg.scalability import (
    SearchConfig,
    _pair_stats,
    _Workspace,
    check_middle_form,
    kge4_certificate,
    search_embedding,
)
from oracles import (
    ExteriorElement,
    dense_vector,
    evaluate_relations,
    selfdual_triple_exact,
    wedge,
    word_value,
)

CFG = SearchConfig(restarts=12, max_iters=200, seed=11)
SHEAR = np.array([[1, 2, 0], [0, 1, -1], [0, 0, 1]])


# -- exact middle-form criterion ------------------------------------------------


def test_three_summands_scalable():
    v = check_middle_form(np.eye(3, dtype=int), 2, CFG)
    assert v.status == "scalable"
    assert v.certificate is not None
    assert v.defect < 1e-6


def test_four_summands_not_scalable():
    v = check_middle_form(np.eye(4, dtype=int), 2, CFG)
    assert v.status == "not_scalable"
    assert v.certificate is None
    assert v.obstruction["positive"] == 4
    assert v.obstruction["cap_each_sign"] == 3
    assert v.obstruction["excess"] == 1


def test_balanced_six_form_scalable():
    Q = np.diag([1, 1, 1, -1, -1, -1]).astype(int)
    v = check_middle_form(Q, 2, CFG)
    assert v.status == "scalable"
    assert v.defect < 1e-6


def test_hyperbolic_pair_scalable():
    v = check_middle_form(np.array([[0, 1], [1, 0]]), 2, CFG)
    assert v.status == "scalable"


@pytest.mark.parametrize(
    "Q",
    [
        np.eye(3, dtype=int),
        np.diag([1, 1, 1, -1, -1, -1]),
        np.array([[0, 1], [1, 0]]),
        SHEAR.T @ np.diag([1, 1, -1]) @ SHEAR,
    ],
    ids=["I3", "diag3-3", "hyperbolic", "sheared"],
)
def test_witness_realizes_form_under_sparse_wedge(Q):
    """Every certificate pair x_i ^ x_j has volume coefficient Q[i, j],
    checked with the sparse wedge rather than the dense pairing matrix."""
    v = check_middle_form(Q, 2, CFG)
    assert v.status == "scalable"
    assert v.defect < 1e-12
    forms = v.certificate.forms
    assert v.certificate.ambient_dim == 4
    assert list(forms) == [f"x{i + 1}" for i in range(Q.shape[0])]
    scale = np.max(np.abs(Q))
    for i in range(Q.shape[0]):
        for j in range(Q.shape[0]):
            vol = wedge(forms[f"x{i + 1}"], forms[f"x{j + 1}"]).coefficient((1, 2, 3, 4))
            assert abs(vol - Q[i, j]) <= 1e-12 * scale


def test_middle_form_at_eight_dimensions():
    """The (35, 35) pairing on Lambda^4(R^8) takes 35 squares, not 36."""
    v = check_middle_form(np.eye(35), 4, SearchConfig())
    assert v.status == "scalable"
    assert v.defect < 1e-12
    v = check_middle_form(np.eye(36, dtype=int), 4, SearchConfig())
    assert v.status == "not_scalable"
    assert v.obstruction["cap_each_sign"] == 35


def test_near_singular_exact_form_gives_evidence_only():
    """An exact form whose float image has a near-null direction keeps its
    signature verdict but gets no float witness."""
    Q = np.array([[Fraction(1, 10**13)]], dtype=object)
    v = check_middle_form(Q, 2, CFG)
    assert v.status == "evidence_only"
    assert v.certificate is None and v.defect is None


def test_degenerate_form_rejected():
    with pytest.raises(DegenerateForm):
        check_middle_form(np.diag([1, 0, -1]), 2, CFG)


def test_middle_form_input_validation():
    with pytest.raises(ParameterError):
        check_middle_form(np.eye(2, dtype=int), 3, CFG)  # odd middle degree
    with pytest.raises(ShapeError):
        check_middle_form(np.ones((2, 3)), 2, CFG)


def test_verdict_invariant_under_congruence():
    rng = np.random.default_rng(5)
    for Q in (np.eye(4, dtype=np.int64), np.diag([1, 1, -1]).astype(np.int64)):
        base = check_middle_form(Q, 2, CFG).status
        for _ in range(3):
            S = np.eye(Q.shape[0], dtype=np.int64)
            for _ in range(4):  # random unimodular shear product
                i, j = rng.integers(0, Q.shape[0], 2)
                if i != j:
                    E = np.eye(Q.shape[0], dtype=np.int64)
                    E[i, j] = rng.integers(-2, 3)
                    S = S @ E
            assert check_middle_form(S.T @ Q @ S, 2, CFG).status == base


# -- embedding search -------------------------------------------------------------


def test_projective_plane_witness():
    res = search_embedding(preset_presentations("CP2"), [4], CFG)
    assert res.defect < 1e-9
    beta = res.assignment.forms["u"]
    square = wedge(beta, beta)
    assert abs(square.coefficient((1, 2, 3, 4)) - 1.0) < 1e-8


def test_three_sum_converges_four_sum_floors():
    res3 = search_embedding(preset_presentations("Xk", k=3), [4], CFG)
    assert res3.defect < 1e-6
    assert res3.converged
    cfg = SearchConfig(restarts=100, max_iters=200, seed=1)
    res4 = search_embedding(preset_presentations("Xk", k=4), [4], cfg)
    assert res4.defect > 1e-2
    assert not res4.converged
    assert len(res4.restart_defects) == 100
    assert res4.defect == min(res4.restart_defects)


def test_exact_witness_kills_relations_in_rational_mode():
    pres = preset_presentations("Xk", k=3)
    triple = selfdual_triple_exact()
    a = Assignment(
        ambient_dim=4, forms={f"u{i + 1}": triple[i] for i in range(3)}
    )
    for value in evaluate_relations(pres, a):
        assert value.is_zero()  # exact zeros, no tolerance involved


def test_search_is_deterministic():
    pres = preset_presentations("Xk", k=4)
    cfg = SearchConfig(restarts=6, max_iters=120, seed=42)
    r1 = search_embedding(pres, [4], cfg)
    r2 = search_embedding(pres, [4], cfg)
    assert r1.defect == r2.defect
    assert r1.restart_defects == r2.restart_defects
    assert r1.best_restart == r2.best_restart


def test_ambient_list_skips_small_summands():
    pres = preset_presentations("CP2")
    res = search_embedding(pres, [2, 4], CFG)
    assert res.summand_dim == 4
    with pytest.raises(DimensionMismatch):
        search_embedding(pres, [2, 3], CFG)
    with pytest.raises(EmptyData):
        search_embedding(pres, [], CFG)


@pytest.mark.parametrize(
    "name, params, m",
    [("Xk", {"k": 3}, 4), ("CPn", {"n": 2}, 6)],
    ids=["X3", "CP2-m6"],  # CP2 in R^6 keeps its length-3 relation u^3
)
def test_analytic_gradient_matches_finite_differences(name, params, m):
    """Each column of residual_jacobian's J is a forward difference of r."""
    pres = preset_presentations(name, **params)
    ws = _Workspace(pres, m)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(ws.n_params)
    r0, J = ws.residual_jacobian(x)
    h = 1e-6
    for j in range(ws.n_params):
        bumped = x.copy()
        bumped[j] += h
        fd = (ws.residual_jacobian(bumped)[0] - r0) / h
        col = J[:, j]
        assert np.all(np.abs(fd - col) < 1e-4 * np.maximum(1.0, np.abs(col)))


def test_top_grad_matches_finite_differences():
    # the top word t1*t2*t3 has length 3, so every slot has a prefix or
    # a suffix and the middle slot has both; as the one relation of a
    # presentation its Jacobian row at the top slot is the top value's gradient
    pres = preset_presentations("torus(3)")
    top = Relation("top", ((Fraction(1), pres.top_class),))
    ws = _Workspace(replace(pres, relations=(top,)), 6)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(ws.n_params)
    r, J = ws.residual_jacobian(x)
    T0, grad = ws.top(x[ws.top_idx].tolist()), J[0]
    assert r.shape == (1,) and r[0] == T0
    h = 1e-6
    for j in range(ws.n_params):
        bumped = x.copy()
        bumped[j] += h
        fd = (ws.top(bumped[ws.top_idx].tolist()) - T0) / h
        assert abs(fd - grad[j]) < 1e-4 * max(1.0, abs(grad[j]))


@pytest.mark.parametrize(
    "name, m",
    [("X4", 4), ("CP2", 6), ("torus(3)", 6)],
    ids=["X4", "CP2-m6", "torus3-m6"],  # u^3 and t1*t2*t3 have length 3
)
def test_kernel_is_exact_at_a_dyadic_point(name, m):
    """At coefficients in {-1, -3/4, ..., 1} every float product and sum is
    exact, so r must equal the exact relation images, J their five-point
    central difference (exact for polynomials of degree <= 4), and
    the top evaluator the exact top word, with no tolerance."""
    pres = preset_presentations(name)
    ws = _Workspace(pres, m)
    degs = [pres.word_degree(rel.words()[0]) for rel in pres.relations]

    def exact(x):
        forms = {
            g: ExteriorElement(m, dict(zip(multi_indices(m, d), x[ws.cols[g]])))
            for g, d in pres.generators
        }
        values = evaluate_relations(pres, Assignment(m, forms))
        r = [
            v.coefficient(I)
            for v, deg in zip(values, degs)
            if deg <= m  # the search keeps no rows for a relation above m
            for I in multi_indices(m, deg)
        ]
        top = word_value(pres.top_class, forms)
        return r, top.coefficient(multi_indices(m, pres.manifold_dim)[0])

    rng = np.random.default_rng(17)
    x = [Fraction(int(k), 4) for k in rng.integers(-4, 5, ws.n_params)]
    r, J = ws.residual_jacobian(np.array([float(v) for v in x]))
    r_exact, top_exact = exact(x)
    assert [Fraction(v) for v in r] == r_exact
    assert Fraction(ws.top([float(x[j]) for j in ws.top_idx])) == top_exact
    for j in range(ws.n_params):
        at = [exact(x[:j] + [x[j] + k] + x[j + 1:])[0] for k in (-2, -1, 1, 2)]
        fd = [(a - 8 * b + 8 * c - d) / 12 for a, b, c, d in zip(*at)]
        assert [Fraction(v) for v in J[:, j]] == fd


def test_compiled_terms_count_against_the_cap(monkeypatch):
    """The workspace counts its compiled Jacobian terms before it builds
    anything: CP2 in R^6 has 300 (u^3's three slots and the top word u^2
    counted alike) against 225 normal-matrix entries."""
    pres = preset_presentations("CP2")
    monkeypatch.setattr(scalability, "_MAX_JACOBIAN", 300)
    _Workspace(pres, 6)
    monkeypatch.setattr(scalability, "_MAX_JACOBIAN", 299)
    with pytest.raises(ParameterError, match="cap"):
        _Workspace(pres, 6)


PINNED = json.loads((Path(__file__).parent / "data" / "pinned_searches.json").read_text())
KGE4 = json.loads((Path(__file__).parent / "data" / "pinned_constants.json").read_text())[
    "kge4_certificate"
]


@pytest.mark.parametrize("case", sorted(PINNED))
def test_search_trajectory_is_pinned(case):
    """Searches of 4 restarts and 20 iterations reproduce to the bit the
    restart defects, best restart and witness recorded with the per-word
    kernel that preceded the compiled one.  Relation words have length 2
    here, where the compiled sums keep that kernel's order; torus(3)'s top
    word has length 3."""
    name, m = case.rsplit("@", 1)
    want = PINNED[case]
    pres = preset_presentations(name)
    cfg = SearchConfig(restarts=4, max_iters=20, seed=want["seed"])
    res = search_embedding(pres, [int(m)], cfg)
    assert [d.hex() for d in res.restart_defects] == want["restart_defects"]
    assert res.best_restart == want["best_restart"]
    degs = dict(pres.generators)
    got = {g: [c.hex() for c in dense_vector(el, degs[g])] for g, el in res.assignment.forms.items()}
    assert got == want["coefficients"]


@pytest.mark.parametrize("name", ["X3", "CP2", "torus(3)"])
def test_project_top_pins_top_and_respects_ball(name):
    """project_top lands the top word on +1 inside the coefficient ball,
    and refuses a state whose top value vanishes."""
    pres = preset_presentations(name)
    ws = _Workspace(pres, pres.manifold_dim)
    rng = np.random.default_rng(13)
    for _ in range(5):
        x = rng.standard_normal(ws.n_params)
        y = ws.project_top(x)
        assert y is not None and y.shape == x.shape
        assert abs(ws.top(y[ws.top_idx].tolist()) - 1.0) <= 1e-12
        assert np.max(np.abs(y)) <= 1.0 + 1e-12
    assert ws.project_top(np.zeros(ws.n_params)) is None


def _numpy_project_top(ws, top_ws, x):
    """The numpy rounds over the whole vector that the list-based rounds
    replaced, verbatim but for reading the top value off ``top_ws``, whose
    one relation is the top word (residual row 0 is the normalization
    slot, read through the relation kernel alone)."""
    for _ in range(60):
        c = float(top_ws.residual_jacobian(x)[0][0])
        if abs(c) < 1e-12:
            return None
        if c < 0:
            x, c = np.where(ws.flip, -x, x), -c
        x = np.where(ws.in_top, x * c ** (-1.0 / ws.top_len), x)
        if float(np.max(np.abs(x))) <= 1.0 + 1e-12:
            return x
        x = np.clip(x, -1.0, 1.0)
    return None


def _projection_inputs(pres, m, ws, top_ws):
    """Random vectors plus the edge cases of the rounds: NaN, +-inf, a top
    value that overflows, signed zeros and entries at the ball's slack."""
    rng = np.random.default_rng(23)
    n, nan, inf = ws.n_params, float("nan"), float("inf")
    top = ws.top_idx.tolist()
    rest = [j for j in range(n) if not ws.in_top[j]]
    # top coefficients off the normalization slot: their basis index has an
    # axis beyond the manifold dimension
    misses = [
        ws.cols[g].start + i
        for g, d in pres.generators
        if g in pres.top_class
        for i, I in enumerate(multi_indices(m, d))
        if max(I) > pres.manifold_dim
    ]
    xs = [rng.standard_normal(n) * s for s in (0.1, 1.0, 3.0, 30.0) for _ in range(10)]
    base = xs[10]
    inside = next(y for x in xs if (y := _numpy_project_top(ws, top_ws, x)) is not None)
    edits = [(base, j, v) for j in top[1:2] + rest[:1] + misses[:1] for v in (nan, inf, -inf)]
    edits += [(base * 1e200, j, v) for j in misses[:1] + rest[:1] for v in (inf, -inf)]
    edits += [(inside, j, v) for j in (rest or top)[:2] for v in (1 + 1e-12, -1 - 1e-12, 1 + 2e-12)]
    for x, j, v in edits:
        y = x.copy()
        y[j] = v
        xs.append(y)
    xs += [base * 1e200, np.full(n, 1e200), np.full(n, -1e200), np.zeros(n), -np.zeros(n)]
    xs += [np.full(n, 1 + 1e-12), np.full(n, -1 - 1e-12), np.where(ws.in_top, base, 1 + 1e-12)]
    return xs


@pytest.mark.parametrize("case", ["X4@4", "X4@5", "S2xS2@5", "CP2@6", "torus(3)@6"])
def test_project_top_matches_numpy_rounds(case):
    """project_top gives the numpy rounds' result to the bit, None included."""
    name, m = case.rsplit("@", 1)
    pres, m = preset_presentations(name), int(m)
    ws = _Workspace(pres, m)
    top = Relation("top", ((Fraction(1), pres.top_class),))
    top_ws = _Workspace(replace(pres, relations=(top,)), m)
    with np.errstate(all="ignore"):
        for x in _projection_inputs(pres, m, ws, top_ws):
            want, got = _numpy_project_top(ws, top_ws, x.copy()), ws.project_top(x.copy())
            assert (got is None) == (want is None)
            if want is not None:
                assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]


# -- four-tuple wedge constant -----------------------------------------------------


def test_kge4_triple_counterexample():
    rep = kge4_certificate(samples=10, seed=0, k=3)
    assert rep.status == "counterexample"
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)
    # the certificate exists for 1 <= k <= 3 only; k >= 4 is not estimated
    for k in (0, 4):
        with pytest.raises(ParameterError, match=f"k = {k}"):
            kge4_certificate(samples=10, seed=0, k=k)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_pair_stats_against_exterior_wedges(k):
    """lhs = max |b_i ^ b_i|, rhs = sum over ordered pairs i != j of
    |b_i ^ b_i - b_j ^ b_j| + |b_i ^ b_j|, volume coefficients read off
    the oracle's wedge."""
    B = np.random.default_rng(k).uniform(-1.0, 1.0, size=(k, 6))
    forms = [ExteriorElement(4, dict(zip(multi_indices(4, 2), row))) for row in B]
    vol = [[wedge(a, b).coefficients.get((1, 2, 3, 4), 0.0) for b in forms] for a in forms]
    rhs = sum(
        abs(vol[i][i] - vol[j][j]) + abs(vol[i][j])
        for i in range(k) for j in range(k) if i != j
    )
    lhs, got = _pair_stats(B, wedge_pairing_matrix(4, 2))
    assert lhs == pytest.approx(max(abs(vol[i][i]) for i in range(k)), rel=1e-12)
    assert got == pytest.approx(rhs, rel=1e-12)
    assert got > 0.0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_kge4_certificate_is_pinned(k):
    """The worst case, lhs and rhs reproduce to the bit those recorded while
    the triple was built as exterior elements and read back as rows."""
    rep = kge4_certificate(k=k)
    forms = {
        g: {",".join(map(str, I)): float(c).hex() for I, c in sorted(el.coefficients.items())}
        for g, el in rep.worst_case.forms.items()
    }
    assert forms == KGE4[str(k)]["forms"]
    assert (rep.lhs.hex(), rep.rhs.hex()) == (KGE4[str(k)]["lhs"], KGE4[str(k)]["rhs"])
