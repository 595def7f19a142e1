"""Embedding verdicts: exact signature tests, search, obstruction estimates."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest

from lipdeg.errors import (
    DegenerateForm,
    DimensionMismatch,
    EmptyData,
    ParameterError,
    ShapeError,
)
from lipdeg.exterior import selfdual_triple, wedge
from lipdeg.rings import Assignment, evaluate_relations, preset_presentations
from lipdeg.scalability import (
    SearchConfig,
    _Workspace,
    check_middle_form,
    kge4_certificate,
    search_embedding,
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
    triple = selfdual_triple(normalized=False, exact=True)
    a = Assignment(
        ambient_dim=4, forms={f"u{i + 1}": triple[i] for i in range(3)}
    )
    for value in evaluate_relations(pres, a):
        assert value.is_zero  # exact zeros, no tolerance involved


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
    # a suffix and the middle slot has both
    pres = preset_presentations("torus(3)")
    ws = _Workspace(pres, 6)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(ws.n_params)
    rows = comb(6, pres.manifold_dim)
    r, J = np.zeros(rows), np.zeros((rows, ws.n_params))
    ws._add_word(r, J, 1.0, pres.top_class, x)
    T0, grad = ws.top_value(x), J[ws.top_slot]
    assert r[ws.top_slot] == T0
    h = 1e-6
    for j in range(ws.n_params):
        bumped = x.copy()
        bumped[j] += h
        fd = (ws.top_value(bumped) - T0) / h
        assert abs(fd - grad[j]) < 1e-4 * max(1.0, abs(grad[j]))


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
        assert abs(ws.top_value(y) - 1.0) <= 1e-12
        assert np.max(np.abs(y)) <= 1.0 + 1e-12
    assert ws.project_top(np.zeros(ws.n_params)) is None


# -- four-tuple wedge constant -----------------------------------------------------


def test_kge4_triple_counterexample():
    rep = kge4_certificate(samples=10, seed=0, k=3)
    assert rep.status == "counterexample"
    assert rep.c_est is None
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)


def test_kge4_estimate_is_verified_and_deterministic():
    rep = kge4_certificate(samples=4000, seed=9)
    assert rep.status == "estimated"
    assert np.isfinite(rep.c_est) and rep.c_est > 0
    assert rep.lhs <= rep.c_est * rep.rhs + 1e-9
    for el in rep.worst_case.forms.values():
        assert el.sup_norm() <= 1.0 + 1e-12
    rep2 = kge4_certificate(samples=4000, seed=9)
    assert rep2.c_est == rep.c_est
