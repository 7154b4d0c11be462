"""Tests for exact rationals, bivariate polynomials and the nullspace."""

import random
from fractions import Fraction

import pytest

from kgsym.arith import RationalMatrix, XYPoly, nullspace, rank
from kgsym.verify import random_xypoly

X = XYPoly.variable("x")
Y = XYPoly.variable("y")


def test_monomial_product():
    assert X * Y == XYPoly({(1, 1): 1})


def test_difference_of_squares():
    assert (X + Y) * (X - Y) == X * X - Y * Y


def test_cancellation_gives_empty_term_map():
    result = X ** 2 - X ** 2
    assert result.is_zero()
    assert result.terms == {}


def test_diff_examples():
    assert (X ** 2 * Y).diff("x") == 2 * X * Y
    assert XYPoly.constant(Fraction(7, 2)).diff("y").is_zero()
    assert (X ** 3).diff("y").is_zero()


def test_no_zero_coefficients_stored():
    p = XYPoly({(0, 0): 0, (1, 0): 1})
    assert (0, 0) not in p.terms
    assert (X - X).terms == {}


def test_canonical_text_form():
    p = XYPoly({(2, 1): Fraction(3, 2), (0, 1): -1, (0, 0): 1})
    assert str(p) == "3/2*x^2*y - y + 1"
    assert str(XYPoly.zero()) == "0"
    assert str(XYPoly.constant(Fraction(-7, 3))) == "-7/3"


def test_ring_axioms_randomized():
    rng = random.Random(101)
    for _ in range(120):
        a = random_xypoly(rng)
        b = random_xypoly(rng)
        c = random_xypoly(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_diff_commutes_randomized():
    rng = random.Random(202)
    for _ in range(100):
        p = random_xypoly(rng, max_degree=4)
        assert p.diff("x").diff("y") == p.diff("y").diff("x")


def test_nullspace_trivial_examples():
    assert nullspace(RationalMatrix.from_rows([[1, -1]])) == [[1, 1]]
    assert nullspace(RationalMatrix.from_rows([[1, 0], [0, 1]])) == []


def test_nullspace_hand_row_reduction():
    # [[1,0,1],[0,1,1]] is already in reduced echelon form with free column
    # 2, so the lone kernel vector reads off as (-1, -1, 1).
    basis = nullspace(RationalMatrix.from_rows([[1, 0, 1], [0, 1, 1]]))
    assert basis == [[-1, -1, 1]]


def test_nullspace_rref_convention():
    # Two free columns: each vector has a unit pivot in its own free column
    # and zero in the other, ordered by free-column index.
    m = RationalMatrix.from_rows([[1, 2, 3, 4]])
    basis = nullspace(m)
    assert len(basis) == 3
    free_cols = [1, 2, 3]
    for vec, fc in zip(basis, free_cols):
        assert vec[fc] == 1
        for other in free_cols:
            if other != fc:
                assert vec[other] == 0


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_nullspace_properties_randomized(seed):
    rng = random.Random(seed)
    rows = rng.randint(1, 6)
    cols = rng.randint(1, 6)
    m = RationalMatrix.from_rows(
        [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
          for _ in range(cols)] for _ in range(rows)])
    basis = nullspace(m)
    for vec in basis:
        for row in m.entries:
            assert sum(a * v for a, v in zip(row, vec)) == 0
    assert rank(m) + len(basis) == cols
    if basis:
        stacked = RationalMatrix.from_rows(basis)
        assert rank(stacked) == len(basis)


def test_rank_of_zero_and_full():
    assert rank(RationalMatrix.from_rows([[0, 0], [0, 0]])) == 0
    assert rank(RationalMatrix.from_rows([[2, 0], [0, Fraction(1, 3)]])) == 2


def test_matrix_dimension_validation():
    with pytest.raises(ValueError):
        RationalMatrix(2, 2, [[1, 2]])
