"""Exterior algebra unit tests.

The wedge sign is cross-checked against an independent permutation-parity
oracle, and float-mode signatures against the exact congruence route.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipdeg.errors import DimensionMismatch, ShapeError, UnsupportedPairing
from lipdeg.exterior import (
    SignatureTriple,
    from_dense,
    merge_sign,
    multi_indices,
    selfdual_triple,
    signature,
    signature_exact,
    wedge_pairing_matrix,
)
from oracles import (
    ExteriorElement,
    basis_element,
    selfdual_triple_exact,
    volume_element,
    wedge,
)


def parity_oracle(seq):
    """Sign of the permutation sorting seq, by explicit bubble count."""
    seq = list(seq)
    swaps = 0
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                swaps += 1
    return (-1) ** swaps


def oracle_wedge_sign(I, J):
    if set(I) & set(J):
        return 0
    return parity_oracle(list(I) + list(J))


def test_merge_sign_against_permutation_oracle():
    idx = multi_indices(6, 2) + multi_indices(6, 3) + multi_indices(6, 1)
    for I in idx:
        for J in idx:
            s, K = merge_sign(I, J)
            assert s == oracle_wedge_sign(I, J)
            if s:
                assert K == tuple(sorted(I + J))


def test_wedge_basis_vectors():
    n = 4
    e1 = basis_element(n, (1,))
    e2 = basis_element(n, (2,))
    assert wedge(e1, e2) == basis_element(n, (1, 2))
    assert wedge(e2, e1) == basis_element(n, (1, 2), -1)
    assert wedge(e1, e1).is_zero()


def test_wedge_selfdual_square():
    a = ExteriorElement(4, {(1, 2): 1, (3, 4): 1})
    sq = wedge(a, a)
    assert sq == volume_element(4, 2)


def test_selfdual_triple_squares_to_volume():
    b = [from_dense(4, 2, row) for row in selfdual_triple()]
    for i, bi in enumerate(b):
        for j, bj in enumerate(b):
            prod = wedge(bi, bj)
            want = 1.0 if i == j else 0.0
            assert prod.coefficient((1, 2, 3, 4)) == pytest.approx(want, abs=1e-15)
    # exact, unnormalized: squares are exactly 2 vol
    for bi in selfdual_triple_exact():
        assert wedge(bi, bi) == volume_element(4, Fraction(2))


def test_mixed_degree_and_errors():
    with pytest.raises(ShapeError):
        ExteriorElement(4, {(2, 1): 1})
    with pytest.raises(DimensionMismatch):
        ExteriorElement(2, {(3,): 1})
    with pytest.raises(DimensionMismatch):
        wedge(basis_element(2, (1,)), basis_element(3, (1,)))
    mixed = basis_element(3, (1,)) + volume_element(3)
    with pytest.raises(ShapeError):
        mixed.degree


def rational_elements(n, p):
    basis = multi_indices(n, p)
    coeff = st.integers(-4, 4).map(lambda k: Fraction(k, 3))
    return st.lists(coeff, min_size=len(basis), max_size=len(basis)).map(
        lambda cs: ExteriorElement(n, dict(zip(basis, cs)))
    )


@settings(max_examples=80, derandomize=True)
@given(
    a=rational_elements(5, 2),
    b=rational_elements(5, 3),
)
def test_graded_commutativity(a, b):
    # a ^ b = (-1)^{pq} b ^ a with p = 2, q = 3
    assert wedge(a, b) == wedge(b, a)


@settings(max_examples=80, derandomize=True)
@given(
    a=rational_elements(5, 1),
    b=rational_elements(5, 1),
)
def test_graded_anticommutativity_odd(a, b):
    assert wedge(a, b) == wedge(b, a).scale(-1)
    assert wedge(a, a).is_zero()


@settings(max_examples=40, derandomize=True)
@given(
    a=rational_elements(6, 1),
    b=rational_elements(6, 2),
    c=rational_elements(6, 3),
)
def test_associativity_exact(a, b, c):
    left = wedge(wedge(a, b), c)
    right = wedge(a, wedge(b, c))
    assert left == right  # exact rational equality


def test_pairing_matrix_signature_dim4():
    M = wedge_pairing_matrix(4, 2)
    assert M.shape == (6, 6)
    assert np.array_equal(M, M.T)
    assert signature(M) == SignatureTriple(3, 3, 0)
    # float route agrees with exact route
    assert signature(M.astype(float)) == SignatureTriple(3, 3, 0)


def test_pairing_matrix_signature_dim8():
    M = wedge_pairing_matrix(8, 4)
    assert M.shape == (70, 70)
    want = SignatureTriple(35, 35, 0)
    assert signature_exact(M) == want
    # independent oracle: eigenvalue counts
    eig = np.linalg.eigvalsh(M.astype(float))
    assert (int((eig > 1e-9).sum()), int((eig < -1e-9).sum())) == (35, 35)


def test_pairing_rejects_bad_degree():
    with pytest.raises(UnsupportedPairing):
        wedge_pairing_matrix(2, 1)  # odd degree
    with pytest.raises(UnsupportedPairing):
        wedge_pairing_matrix(6, 2)  # 2p != n


def test_signature_small_examples():
    assert signature(np.diag([1.0, -2.0, 0.0])) == SignatureTriple(1, 1, 1)
    assert signature_exact([[0, 1], [1, 0]]) == SignatureTriple(1, 1, 0)
    with pytest.raises(ShapeError):
        signature(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ShapeError):
        signature(np.ones((2, 3)))


@pytest.mark.parametrize(
    "M",
    [
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],  # off-diagonal pivot, then a zero row
        [[0, 1, 1], [1, 0, 0], [1, 0, 0]],  # zero diagonal, null direction (0, 1, -1)
        [[0, 0, 1], [0, 0, 0], [1, 0, 0]],  # off-diagonal pivot past a zero row
        [[0, 1, 1], [1, 1, 1], [1, 1, 1]],  # diagonal swap, null direction (0, 1, -1)
        [[0, Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 3), Fraction(1, 3)],
         [Fraction(1, 2), Fraction(1, 3), Fraction(1, 3)]],
    ],
    ids=["off-diagonal", "zero-diagonal", "off-diagonal-late", "swap", "swap-fraction"],
)
def test_signature_exact_on_singular_matrices(M):
    """Elimination leaves exact zeros below each pivot, and no later step
    reads a pivot's row, through either route a zero diagonal takes."""
    assert signature_exact(M) == SignatureTriple(1, 1, 1)
    assert signature(np.array(M, dtype=float)) == SignatureTriple(1, 1, 1)


@settings(max_examples=30, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_signature_float_matches_exact(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 7))
    A = rng.integers(-3, 4, size=(m, m))
    S = A + A.T
    assert signature(S.astype(float)) == signature_exact(S)


def test_sup_norm_and_scale():
    a = ExteriorElement(4, {(1, 2): -2.0, (1, 3): 0.5})
    assert a.sup_norm() == 2.0
    assert a.scale(0.5).sup_norm() == 1.0
    assert (a - a).is_zero()
