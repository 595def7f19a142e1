"""Ring presentation and exponent tests."""

from fractions import Fraction

import numpy as np
import pytest

from lipdeg import cli, rings
from lipdeg.errors import (
    EmptyData,
    ParameterError,
    PresetLookupError,
    UndefinedExponent,
    UnsupportedPresentation,
)
from lipdeg.exterior import signature
from lipdeg.rings import (
    Assignment,
    CohomologyAction,
    Relation,
    RingPresentation,
    intersection_form,
    lipschitz_lower_exponent,
    positive_weight_exponents,
    preset_cohomology_action,
    preset_presentations,
    preset_weights,
)
from oracles import (
    AssignmentError,
    ExteriorElement,
    evaluate_relations,
    relation_defect,
    selfdual_triple_exact,
    volume_element,
    word_value,
)


def test_preset_shapes():
    cp2 = preset_presentations("CPn", n=2)
    assert cp2.manifold_dim == 4
    assert cp2.generators == (("u", 2),)
    assert cp2.relations[0].monomials[0][1] == ("u", "u", "u")
    assert cp2.top_class == ("u", "u")

    x4 = preset_presentations("Xk", k=4)
    assert len(x4.generators) == 4
    assert len(x4.relations) == 12  # 2 * C(4,2)
    assert preset_presentations("X3") == preset_presentations("Xk", k=3)

    t3 = preset_presentations("torus(3)")
    assert len(t3.generators) == 3 and t3.manifold_dim == 6
    assert len(t3.top_class) == 3

    with pytest.raises(PresetLookupError):
        preset_presentations("nope")


@pytest.mark.parametrize(
    "name",
    [
        "X3\n", "torus(3)\n", "CP2\n", "connected-sum(1,2)\n",
        "X\u0663", "CP\uff12", "torus(\u0663)", "connected-sum(1,\n2)",
    ],
)
def test_preset_name_must_match_whole(name):
    """An embedded-parameter name matches as a whole, its parameters are
    ASCII digits, and connected-sum takes only spaces after its comma: a
    trailing newline, an Arabic-Indic or fullwidth digit and a newline
    after the comma are not presets."""
    with pytest.raises(PresetLookupError):
        preset_presentations(name)


def test_connected_sum_takes_spaces_after_the_comma():
    want = preset_presentations("connected-sum", p=2, q=3)
    assert preset_presentations("connected-sum(2, 3)") == want
    assert preset_presentations("connected-sum(2,  3)") == want
    with pytest.raises(PresetLookupError):
        preset_presentations("connected-sum(2,\t3)")


def test_cp2_defect_vanishes_in_dim4():
    cp2 = preset_presentations("CP2")
    u = ExteriorElement(4, {(1, 2): 2.0**-0.5, (3, 4): 2.0**-0.5})
    a = Assignment(4, {"u": u})
    assert relation_defect(cp2, a) == 0.0  # u^3 lands above top degree


def test_x3_selfdual_witness_exact_zero():
    x3 = preset_presentations("Xk", k=3)
    b = selfdual_triple_exact()
    a = Assignment(4, {"u1": b[0], "u2": b[1], "u3": b[2]})
    values = evaluate_relations(x3, a)
    assert all(v.is_zero() for v in values)  # exact rational zeros
    assert relation_defect(x3, a) == 0


def test_assignment_degree_check():
    x2 = preset_presentations("Xk", k=2)
    bad = Assignment(4, {"u1": ExteriorElement(4, {(1,): 1.0}),
                         "u2": ExteriorElement(4, {(1, 2): 1.0})})
    with pytest.raises(AssignmentError):
        evaluate_relations(x2, bad)
    missing = Assignment(4, {"u1": ExteriorElement(4, {(1, 2): 1.0})})
    with pytest.raises(AssignmentError):
        evaluate_relations(x2, missing)


def test_relation_homogeneity_enforced():
    with pytest.raises(UnsupportedPresentation):
        RingPresentation(
            4,
            (("u", 2),),
            (Relation("bad", ((1, ("u",)), (1, ("u", "u")))),),
            ("u", "u"),
        )


def test_intersection_forms():
    for k in (1, 2, 3, 4):
        Q = intersection_form(preset_presentations("Xk", k=k))
        assert Q.shape == (k, k)
        assert all(Q[i][j] == (1 if i == j else 0) for i in range(k) for j in range(k))
    Qh = intersection_form(preset_presentations("S2xS2"))
    assert Qh[0][0] == 0 and Qh[0][1] == 1 and Qh[1][1] == 0
    Qcs = intersection_form(preset_presentations("connected-sum(2,3)"))
    diag = [Qcs[i][i] for i in range(5)]
    assert diag == [1, 1, -1, -1, -1]
    assert signature(np.array(Qcs.tolist(), dtype=float)) == (2, 3, 0)
    # u^3 on CP^2 lies above the top degree and holds vacuously
    Qcp2 = intersection_form(preset_presentations("CP2"))
    assert Qcp2.tolist() == [[1]]


def test_one_exact_solve_per_presentation(monkeypatch, capsys):
    """The scalable command reads X4's form twice, for the verdict and for
    the search's structured start, and solves for it once."""
    solve, calls = rings._exact_solve, []
    monkeypatch.setattr(rings, "_exact_solve", lambda A, b: calls.append(1) or solve(A, b))
    rings.intersection_form.cache_clear()
    assert cli.main(["scalable", "--preset", "X4", "--restarts", "1"]) == 0
    assert len(calls) == 1


def test_intersection_form_underdetermined():
    pres = RingPresentation(
        4,
        (("u1", 2), ("u2", 2)),
        (Relation("u1u2", ((Fraction(1), ("u1", "u2")),)),),
        ("u1", "u1"),
    )
    with pytest.raises(UnsupportedPresentation):
        intersection_form(pres)


def test_intersection_form_needs_middle_degree():
    cp3 = preset_presentations("CPn", n=3)
    with pytest.raises(UnsupportedPresentation):
        intersection_form(cp3)


def test_s3_bundle_exponents_exact():
    act = preset_cohomology_action("s3-bundle", t=2)
    rep = lipschitz_lower_exponent(act)
    assert rep.rho_rational == Fraction(21, 20)
    assert rep.degree_exponent_rational == Fraction(20, 3)
    assert rep.rho == pytest.approx(21 / 20, abs=1e-12)
    assert rep.lip_exponent == pytest.approx(3 / 20, abs=1e-12)
    # the winning witness is the middle-degree eigenvalue t^3 = 8 in degree 5
    k, m, e = rep.witnesses[0]
    assert (k, m) == (5, pytest.approx(8.0))


def test_s3_bundle_exponent_scales_with_t():
    for t in (2, 3, 5):
        rep = lipschitz_lower_exponent(preset_cohomology_action("s3-bundle", t=t))
        assert rep.rho_rational == Fraction(21, 20)


def test_sphere_action_rho_one():
    rep = lipschitz_lower_exponent(preset_cohomology_action("sphere", t=16))
    assert rep.rho == pytest.approx(1.0, abs=1e-12)
    assert rep.rho_rational == 1


def test_degree_one_is_undefined():
    with pytest.raises(UndefinedExponent):
        lipschitz_lower_exponent(preset_cohomology_action("sphere", t=1))


def test_exponent_similarity_invariant():
    rng = np.random.default_rng(3)
    t = 2
    S = rng.standard_normal((2, 2))
    while abs(np.linalg.det(S)) < 0.3:
        S = rng.standard_normal((2, 2))
    A5 = S @ ((t**3) * np.eye(2)) @ np.linalg.inv(S)
    act = CohomologyAction(
        7,
        {2: t * np.eye(2), 5: A5, 7: np.array([[float(t**4)]])},
        float(t**4),
    )
    rep = lipschitz_lower_exponent(act)
    assert rep.rho == pytest.approx(21 / 20, rel=1e-9)


def test_action_validation():
    with pytest.raises(ParameterError):
        CohomologyAction(7, {7: np.array([[8.0]])}, 16.0)  # conflict with A_n
    with pytest.raises(ParameterError):
        CohomologyAction(4, {2: np.eye(2)}, 0.0)


def test_positive_weight_exponents():
    alpha, mult = positive_weight_exponents(preset_weights("s3-bundle"))
    assert (alpha, mult) == (Fraction(3, 5), 1)
    alpha, mult = positive_weight_exponents([(2, 2), (4, 4)])
    assert (alpha, mult) == (Fraction(1), 2)
    # permutation invariance
    alpha2, mult2 = positive_weight_exponents(
        list(reversed(preset_weights("s3-bundle")))
    )
    assert (alpha2, mult2) == (Fraction(3, 5), 1)
    with pytest.raises(EmptyData):
        positive_weight_exponents([])
    with pytest.raises(ParameterError):
        positive_weight_exponents([(0, 1)])


def test_evaluate_word_top_class():
    x2 = preset_presentations("Xk", k=2)
    b = selfdual_triple_exact()
    a = Assignment(4, {"u1": b[0], "u2": b[1]})
    top = word_value(x2.top_class, a.forms)
    assert top == volume_element(4, Fraction(2))
