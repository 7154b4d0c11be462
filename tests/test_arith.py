"""Tests for exact rationals, bivariate polynomials, the nullspace and the
rank of term maps."""

import random
from fractions import Fraction

import pytest

from kgsym.arith import (RationalMatrix, XYPoly, accumulate, as_rational,
                         exponent_pair, flat, from_terms, grouped, mul_terms,
                         nullspace, poly_coefficient, rank, scale_terms)
from kgsym.jet import FreeJetPoly, ReducedJetPoly, lift
from kgsym.opalg import TDOperator
from kgsym.parser import parse_operator
from kgsym.verify import random_operator, random_reduced_jet, random_xypoly

X = XYPoly.variable("x")
Y = XYPoly.variable("y")


def test_monomial_product():
    assert X * Y == XYPoly({(1, 1): 1})


def test_difference_of_squares():
    assert (X + Y) * (X - Y) == X * X - Y * Y


def test_cancellation_gives_empty_term_map():
    result = X ** 2 - X ** 2
    assert not result
    assert result.terms == {}


def test_diff_examples():
    assert (X ** 2 * Y).diff("x") == 2 * X * Y
    assert not XYPoly({(0, 0): Fraction(7, 2)}).diff("y")
    assert not (X ** 3).diff("y")


def test_no_zero_coefficients_stored():
    p = XYPoly({(0, 0): 0, (1, 0): 1})
    assert (0, 0) not in p.terms
    assert (X - X).terms == {}


def test_canonical_text_form():
    p = XYPoly({(2, 1): Fraction(3, 2), (0, 1): -1, (0, 0): 1})
    assert str(p) == "3/2*x^2*y - y + 1"
    assert str(XYPoly.zero()) == "0"
    assert str(XYPoly({(0, 0): Fraction(-7, 3)})) == "-7/3"


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
    assert nullspace(RationalMatrix([[1, -1]])) == [[1, 1]]
    assert nullspace(RationalMatrix([[1, 0], [0, 1]])) == []


def test_nullspace_hand_row_reduction():
    # [[1,0,1],[0,1,1]] is already in reduced echelon form with free column
    # 2, so the lone kernel vector reads off as (-1, -1, 1).
    basis = nullspace(RationalMatrix([[1, 0, 1], [0, 1, 1]]))
    assert basis == [[-1, -1, 1]]


def test_nullspace_rref_convention():
    # Two free columns: each vector has a unit pivot in its own free column
    # and zero in the other, ordered by free-column index.
    m = RationalMatrix([[1, 2, 3, 4]])
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
    m = RationalMatrix(
        [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
          for _ in range(cols)] for _ in range(rows)])
    basis = nullspace(m)
    for vec in basis:
        for row in m.entries:
            assert sum(a * v for a, v in zip(row, vec)) == 0
    assert rank(_term_rows(m.entries)) + len(basis) == cols
    assert rank(_term_rows(basis)) == len(basis)


def _term_rows(entries):
    """The dense rows entries as term maps {column: value}, zeros left out."""
    return [{c: v for c, v in enumerate(row) if v} for row in entries]


def test_rank_of_zero_and_full():
    assert rank(_term_rows([[0, 0], [0, 0]])) == 0
    assert rank([{}, {}]) == rank([]) == 0
    assert rank(_term_rows([[2, 0], [0, Fraction(1, 3)]])) == 2
    assert rank([{"a": 1, "b": 2}, {"a": Fraction(1, 2), "b": 1}]) == 1


def test_matrix_dimension_validation():
    # Rows and columns are read off the entries; ragged rows are refused.
    for ragged in ([[1, 2], [3]], [[1], [2, 3]], [[], [1]]):
        with pytest.raises(ValueError):
            RationalMatrix(ragged)
    for entries, shape in (([], (0, 0)), ([[]], (1, 0)),
                           ([[1, 2, 3], [4, 5, 6]], (2, 3))):
        m = RationalMatrix(entries)
        assert (m.rows, m.cols) == shape and m.entries == entries


@pytest.mark.parametrize("call, message", [
    (lambda: XYPoly.variable("z"), "unknown variable 'z'; only x and y exist"),
    (lambda: XYPoly.variable("x").diff("z"), "unknown variable 'z'"),
    (lambda: XYPoly.variable("x").constant_value(),
     "not a constant polynomial: x"),
    (lambda: XYPoly.variable("x") ** -1,
     "exponent must be a nonnegative integer"),
], ids=["variable", "diff", "constant_value", "negative_power"])
def test_xypoly_argument_errors(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message


_NOT_INT = "'{}' object cannot be interpreted as an integer"
_NOT_RATIONAL = "expected int or Fraction, got {}"


@pytest.mark.parametrize("call, error, message", [
    (lambda: XYPoly({(1.5, 0): 1}), TypeError, _NOT_RATIONAL.format("float")),
    (lambda: XYPoly({("1", 0): 1}), TypeError, _NOT_RATIONAL.format("str")),
    (lambda: XYPoly({(Fraction(3, 2), 0): 1}), TypeError,
     _NOT_INT.format("Fraction")),
    (lambda: XYPoly({(-1, 0): 1}), ValueError, "negative exponent in (-1, 0)"),
    (lambda: TDOperator({(-1, 0): XYPoly.one()}), ValueError,
     "negative exponent in (-1, 0)"),
    (lambda: TDOperator({(0, 2.0): XYPoly.one()}), TypeError,
     _NOT_RATIONAL.format("float")),
    (lambda: ReducedJetPoly.var("u", 2.7), TypeError,
     _NOT_INT.format("float")),
    (lambda: ReducedJetPoly.var("u", 0).partial("u", 0.0), TypeError,
     _NOT_INT.format("float")),
    (lambda: FreeJetPoly({((1.9, 0),): 1}), TypeError,
     _NOT_INT.format("float")),
    (lambda: FreeJetPoly({((0, 0),): 1}).partial(0, Fraction(0)), TypeError,
     _NOT_INT.format("Fraction")),
], ids=["xy_float", "xy_str", "xy_fraction", "xy_negative", "op_negative",
        "op_float", "reduced_var", "reduced_partial", "free_var",
        "free_partial"])
def test_exponent_keys_are_checked_not_truncated(call, error, message):
    # int() would truncate 1.5 to x and 2.7 to u[2], and keep -1, which
    # prints x^-1 and Dx^-1: texts that parse_operator rejects.
    with pytest.raises(error) as excinfo:
        call()
    assert type(excinfo.value) is error and str(excinfo.value) == message


def test_integral_rational_exponents_are_stored_as_int():
    # Either form of an integral rational is an exponent, as for scalars.
    p = XYPoly({(Fraction(1), True): 1})
    assert p == X * Y and [type(e) for e in next(iter(p.terms))] == [int, int]


@pytest.mark.parametrize("key, expected", [
    ((2, 3), (2, 3)), ((True, 2), (1, 2)), ([1, 2], (1, 2)),
    ((Fraction(4, 2), 0), (2, 0)), ((0, Fraction(3)), (0, 3))])
def test_exponent_pair_returns_a_tuple_of_ints(key, expected):
    pair = exponent_pair(key)
    assert pair == expected and type(pair) is tuple
    assert [type(e) for e in pair] == [int, int]


@pytest.mark.parametrize("key, error, message", [
    ((-1, 2), ValueError, "negative exponent in (-1, 2)"),
    ((3, -2), ValueError, "negative exponent in (3, -2)"),
    ([-1, 0], ValueError, "negative exponent in (-1, 0)"),
    ((Fraction(1, 2), 0), TypeError, _NOT_INT.format("Fraction")),
    ((1.0, 0), TypeError, _NOT_RATIONAL.format("float")),
    ((0, 1.0), TypeError, _NOT_RATIONAL.format("float"))])
def test_exponent_pair_errors(key, error, message):
    with pytest.raises(error) as excinfo:
        exponent_pair(key)
    assert type(excinfo.value) is error and str(excinfo.value) == message


def test_is_constant():
    assert XYPoly.zero().is_constant()
    assert XYPoly({(0, 0): Fraction(3, 2)}).is_constant()
    assert XYPoly.one().is_constant()
    assert not X.is_constant()
    assert not (X + 1).is_constant()
    assert not XYPoly({(0, 2): 5}).is_constant()


def test_int_subclass_coefficient_is_stored_as_int():
    p = XYPoly({(0, 0): True})
    assert p.terms == {(0, 0): 1}
    assert type(p.terms[0, 0]) is int


def _with_fractions(value):
    """value with every rational coefficient held as a Fraction, built
    past the constructors, which store the integral ones as int."""
    if isinstance(value, XYPoly):
        return from_terms(XYPoly, {key: Fraction(c)
                                   for key, c in value.terms.items()})
    return from_terms(type(value), {key: _with_fractions(c)
                                    for key, c in value.terms.items()})


def _rationals(value):
    if isinstance(value, XYPoly):
        return list(value.terms.values())
    return [c for poly in value.terms.values() for c in _rationals(poly)]


@pytest.mark.parametrize("make", [random_xypoly, random_operator,
                                  random_reduced_jet])
def test_int_and_fraction_coefficients_are_interchangeable(make):
    rng = random.Random(303)
    for _ in range(40):
        a, b = make(rng), make(rng)
        if rng.random() < 0.5:
            # 2520 = lcm(1..9) makes every seeded coefficient integral.
            a = a * 2520
        fa, fb = _with_fractions(a), _with_fractions(b)
        assert all(type(c) is int for c in _rationals(a)
                   if c.denominator == 1)
        assert all(type(c) is Fraction for c in _rationals(fa))
        assert fa == a and hash(fa) == hash(a) and str(fa) == str(a)
        if isinstance(a, TDOperator):
            assert fa.compose(fb) == a.compose(b)
            assert fa.adjoint() == a.adjoint()
        else:
            assert fa * fb == a * b
        if isinstance(a, ReducedJetPoly):
            for var in "xy":
                assert fa.total_derivative(var) == a.total_derivative(var)


def _random_free_jet(rng):
    return lift(random_reduced_jet(rng, fields=("u",)))


@pytest.mark.parametrize("make", [random_xypoly, random_operator,
                                  random_reduced_jet, _random_free_jet])
def test_negation_is_scaling_by_minus_one(make):
    rng = random.Random(305)
    for _ in range(2000):
        value = make(rng)
        negated, scaled = -value, value * -1
        assert negated == scaled
        assert (list(map(repr, _rationals(negated)))
                == list(map(repr, _rationals(scaled))))


def test_integral_values_are_stored_as_int():
    half = Fraction(1, 2)
    assert type(as_rational(Fraction(6, 2))) is int
    assert type(accumulate({}, [("k", half), ("k", half)])["k"]) is int
    scaled = scale_terms({"a": half, "b": 3}, Fraction(4, 2))
    assert scaled == {"a": 1, "b": 6}
    assert all(type(c) is int for c in scaled.values())
    assert type(poly_coefficient(Fraction(3)).terms[(0, 0)]) is int
    assert type(XYPoly.zero().constant_value()) is int
    m = RationalMatrix([[Fraction(4, 2), 1, 0], [half, 0, 2]])
    assert [type(v) for row in m.entries for v in row] == [
        int, int, int, Fraction, int, int]
    assert [[type(v) for v in vec] for vec in nullspace(m)] == [
        [int, int, int]]
    for text in ("3*x", "6/2*x"):
        (coeff,) = parse_operator(text).terms.values()
        assert type(coeff.terms[(1, 0)]) is int
    with pytest.raises(TypeError):
        as_rational(0.5)


@pytest.mark.parametrize("value", [0, 3, -7, Fraction(1, 2), Fraction(-5, 3)])
def test_constant_polynomial_hashes_as_its_value(value):
    # XYPoly({(0, 0): c}) == c, so the two must hash alike and make one set
    # element; XYPoly.zero() == 0 likewise.
    poly = XYPoly({(0, 0): value})
    assert poly == value and hash(poly) == hash(value)
    assert len({poly, value}) == 1
    assert {poly: "poly"}[value] == "poly"


def test_zero_polynomial_hashes_as_zero():
    assert XYPoly.zero() == 0 and hash(XYPoly.zero()) == hash(0)
    assert len({XYPoly.zero(), 0}) == 1


def test_nonconstant_polynomial_hash_unchanged():
    rng = random.Random(304)
    for _ in range(40):
        p = random_xypoly(rng)
        assert hash(p) == hash(XYPoly(dict(p.terms)))
        if not p.is_constant():
            assert hash(p) == hash(frozenset(p.terms.items()))


_X = XYPoly.variable("x")

# The value contract of each term-map class: raw terms holding a zero and
# keys out of normal form, the clean term map they give, its repr, and the
# value of class cls holding a scalar c (None for TDOperator, which holds
# no scalar).
_CONTRACT = {
    XYPoly: ({(Fraction(2), 0): 3, (0, 1): 0, (0, 0): Fraction(4, 2)},
             {(2, 0): 3, (0, 0): 2}, "XYPoly(3*x^2 + 2)",
             lambda p: XYPoly({(0, 0): p})),
    TDOperator: ({(Fraction(1), 0): _X, (0, 1): 0, (0, 0): 2},
                 {(1, 0): _X, (0, 0): XYPoly({(0, 0): 2})},
                 "TDOperator((x)*Dx + 2)", None),
    ReducedJetPoly: ({(("u", 1), ("u", 0)): 3, (("f", 2),): XYPoly.zero(),
                      (): _X},
                     {(("u", 0), ("u", 1)): XYPoly({(0, 0): 3}), (): _X},
                     "ReducedJetPoly(3*u[1]*u[0] + x)",
                     lambda p: ReducedJetPoly({(): p})),
    FreeJetPoly: ({((1, 0), (0, 2)): 3, ((0, 0),): 0, (): Fraction(1, 2)},
                  {((0, 2), (1, 0)): XYPoly({(0, 0): 3}),
                   (): XYPoly({(0, 0): Fraction(1, 2)})},
                  "FreeJetPoly(3*u(0,2)*u(1,0) + 1/2)",
                  lambda p: FreeJetPoly({(): p})),
}


@pytest.mark.parametrize("cls", list(_CONTRACT), ids=lambda c: c.__name__)
def test_term_map_value_contract(cls):
    raw, clean, text, constant = _CONTRACT[cls]
    value = cls(raw)
    assert value.terms == clean
    assert [repr(key) for key in value.terms] == [repr(key) for key in clean]
    assert repr(value) == text
    zero = cls.zero()
    assert not zero and zero.terms == {}
    assert zero == cls(dict.fromkeys(raw, 0))
    assert value and value != zero
    copy = cls(dict(value.terms))
    assert copy == value and hash(copy) == hash(value)
    assert len({copy, value}) == 1
    if constant is None:
        three = TDOperator({(0, 0): 3})
        assert three != 3 and three != XYPoly({(0, 0): 3}) and zero != 0
        assert hash(three) == hash(TDOperator({(0, 0): Fraction(6, 2)}))
        for scalar in (3, XYPoly({(0, 0): 3})):
            with pytest.raises(TypeError):
                three + scalar
            with pytest.raises(TypeError):
                scalar - three
    else:
        assert zero == 0 and hash(zero) == hash(0)
        for c in (3, Fraction(-2, 7)):
            held = constant(c)
            assert held == c and c == held and hash(held) == hash(c)
            poly = XYPoly({(0, 0): c})
            assert held == poly and hash(held) == hash(poly)
            assert held + c == constant(2 * c) and c - held == zero
            assert held - 1 == constant(c - 1) and 1 + held == held + 1
    jets = (ReducedJetPoly, FreeJetPoly)
    if cls in jets:
        other = jets[cls is ReducedJetPoly]
        assert cls({(): _X}) != other({(): _X})
        assert cls.zero() != other.zero()
        with pytest.raises(TypeError):
            cls.zero() + other.zero()
    if cls is not TDOperator:
        assert value != TDOperator.identity() and TDOperator.zero() != zero


@pytest.mark.parametrize("cls, make", [(TDOperator, random_operator),
                                       (ReducedJetPoly, random_reduced_jet)])
def test_flat_inverts_grouped(cls, make):
    assert flat(cls.zero()) == {}
    assert grouped(cls, {}) == cls.zero()
    rng = random.Random(2207)
    for _ in range(200):
        value = make(rng)
        pieces = flat(value)
        assert all(c for c in pieces.values())
        assert grouped(cls, pieces) == value


@pytest.mark.parametrize("factor", [
    XYPoly.one(), XYPoly({(0, 0): -1}), XYPoly({(0, 0): Fraction(-4, 6)}),
    XYPoly({(2, 1): 1}), XYPoly({(0, 3): -1}), XYPoly({(1, 2): Fraction(3, 2)}),
    XYPoly({(3, 0): 2})],
    ids=["1", "-1", "fraction", "x^2*y", "-y^3", "3/2*x*y^2", "2*x^3"])
def test_product_with_one_term_polynomial(factor):
    # A one-term factor, on either side, shifts the keys of the other
    # polynomial; the product must be the generic one, coefficient types
    # included.
    def generic(a, b):
        return from_terms(XYPoly, mul_terms(
            a.terms, b.terms, lambda k1, k2: (k1[0] + k2[0], k1[1] + k2[1])))
    rng = random.Random(2411)
    others = [XYPoly.zero(), XYPoly.one(), XYPoly({(0, 0): Fraction(3, 2)}),
              factor, *(random_xypoly(rng, max_degree=3, max_terms=5)
                        for _ in range(60))]
    for other in others:
        want = generic(factor, other)
        for got in (factor * other, other * factor):
            assert got == want
            assert repr(got) == repr(want)
            assert ({key: repr(c) for key, c in got.terms.items()}
                    == {key: repr(c) for key, c in want.terms.items()})
    assert factor * XYPoly.zero() == XYPoly.zero() * factor == 0
