"""Tests for the reduced and free jet spaces and the maps between them."""

import random
from fractions import Fraction

import pytest

from kgsym.arith import XYPoly, accumulate, common_denominator
from kgsym.jet import (FIELDS, FreeJetPoly, ReducedJetPoly,
                       apply_operator_free, apply_operator_reduced,
                       eval_exp_family, euler_operator, lift,
                       monomial_product, reduce, reduced_J, squares)
from kgsym.opalg import TDOperator, kg_operator, monomial_op
from kgsym.parser import parse_jet
from kgsym.verify import random_reduced_jet, random_xypoly

X = XYPoly.variable("x")
Y = XYPoly.variable("y")


def u(k):
    return ReducedJetPoly.var("u", k)


def uf(a, b):
    return FreeJetPoly({((a, b),): 1})


def random_free_jet(rng, max_order=3, max_degree=2, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = []
        for _ in range(rng.randint(0, max_degree)):
            a = rng.randint(0, max_order)
            mono.append((a, rng.randint(0, max_order - a)))
        terms[tuple(sorted(mono))] = random_xypoly(rng, allow_zero=False)
    return FreeJetPoly(terms)


def test_reduced_derivative_shifts_indices():
    for k in range(-4, 5):
        assert u(k).total_derivative("x") == u(k + 1)
        assert u(k).total_derivative("y") == u(k - 1)


def test_onshell_relation():
    assert u(0).total_derivative("x").total_derivative("y") == u(0)


def test_reduced_derivative_product_rule():
    p = u(0) * u(0) * X
    expected = u(0) * u(0) + u(0) * u(1) * X * 2
    assert p.total_derivative("x") == expected


def test_reduced_derivatives_commute():
    rng = random.Random(31)
    for _ in range(40):
        p = random_reduced_jet(rng, max_order=3, max_degree=3)
        dxdy = p.total_derivative("x").total_derivative("y")
        dydx = p.total_derivative("y").total_derivative("x")
        assert dxdy == dydx


def test_reduced_J_examples():
    assert reduced_J(u(0)) == u(1) * X - u(-1) * Y
    assert not reduced_J(ReducedJetPoly.one())
    expected = (u(2) * X ** 2 - u(0) * X * Y * 2 + u(-2) * Y ** 2
                + u(1) * X + u(-1) * Y)
    assert reduced_J(reduced_J(u(0))) == expected


def test_apply_operator_reduced():
    dx2dy = TDOperator({(2, 1): XYPoly.one()})
    assert apply_operator_reduced(dx2dy) == u(1)
    assert not apply_operator_reduced(kg_operator())


def test_operator_application_matches_reduced_dilation():
    # The cube of the dilation word applied on shell agrees with three
    # reduced applications, although the two lifts differ off shell.
    j3 = monomial_op("X", 3, 0)
    assert apply_operator_reduced(j3) == reduced_J(reduced_J(reduced_J(u(0))))


def test_free_total_derivative():
    assert uf(0, 0).total_derivative("x") == uf(1, 0)
    assert uf(1, 0).total_derivative("y") == uf(1, 1)
    lagrangian = -(uf(1, 0) * uf(0, 1) + uf(0, 0) ** 2) * Fraction(1, 2)
    expected = -(uf(2, 0) * uf(0, 1) + uf(1, 0) * uf(1, 1)
                 + uf(0, 0) * uf(1, 0) * 2) * Fraction(1, 2)
    assert lagrangian.total_derivative("x") == expected


def test_euler_operator_on_lagrangian():
    lagrangian = -(uf(1, 0) * uf(0, 1) + uf(0, 0) ** 2) * Fraction(1, 2)
    assert euler_operator(lagrangian) == uf(1, 1) - uf(0, 0)


def test_euler_operator_annihilates_divergences():
    rng = random.Random(32)
    for _ in range(25):
        p = random_free_jet(rng)
        assert not euler_operator(p.total_derivative("x"))
        assert not euler_operator(p.total_derivative("y"))


def test_euler_operator_nonzero_example():
    p = uf(0, 0) * (uf(1, 1) - uf(0, 0))
    assert euler_operator(p) == uf(1, 1) * 2 - uf(0, 0) * 2


def test_reduce_examples():
    assert reduce(uf(1, 1)) == u(0)
    assert reduce(uf(2, 1)) == u(1)
    assert not reduce(uf(1, 1) - uf(0, 0))


def test_reduce_is_differential_morphism():
    rng = random.Random(33)
    for _ in range(30):
        p = random_free_jet(rng)
        assert reduce(p.total_derivative("x")) == reduce(p).total_derivative("x")
        assert reduce(p.total_derivative("y")) == reduce(p).total_derivative("y")


def test_reduce_is_ring_morphism():
    rng = random.Random(34)
    for _ in range(30):
        p = random_free_jet(rng)
        q = random_free_jet(rng)
        assert reduce(p * q) == reduce(p) * reduce(q)
        assert reduce(p + q) == reduce(p) + reduce(q)


def test_lift_examples():
    assert lift(u(2) * u(-3) * X + Fraction(1, 2)) == (
        uf(2, 0) * uf(0, 3) * X + Fraction(1, 2))
    assert lift(ReducedJetPoly.zero()) == FreeJetPoly.zero()


def test_reduce_inverts_lift_on_pure_coordinates():
    # Seeded jets in u with Fraction coefficients, the zero jet and
    # coefficient-only jets among them; lift is one-to-one on monomials.
    rng = random.Random(35)
    for _ in range(2000):
        p = random_reduced_jet(rng, fields=("u",))
        lifted = lift(p)
        assert type(lifted) is FreeJetPoly
        assert reduce(lifted) == p
        assert len(lifted.terms) == len(p.terms)
        # Each variable is a pure coordinate u_(a,0) or u_(0,b), a, b >= 0.
        assert all(min(var) == 0 for mono in lifted.terms for var in mono)


def test_lift_rejects_other_fields():
    with pytest.raises(ValueError, match="only the field u.*'f'"):
        lift(u(0) * ReducedJetPoly.var("f", 1))


def test_eval_exp_family_examples():
    assert eval_exp_family(u(0)) == {(0, 0, 0): 1}
    assert eval_exp_family(reduced_J(u(0))) == {(1, 0, 1): 1, (0, 1, -1): -1}
    assert eval_exp_family(u(2)) == {(0, 0, 2): 1}


@pytest.mark.parametrize("call, message", [
    (lambda: u(0).total_derivative("z"), "unknown variable 'z'"),
    (lambda: uf(0, 0).total_derivative("z"), "unknown variable 'z'"),
    (lambda: FreeJetPoly({((-1, 0),): 1}),
     "derivative orders must be nonnegative"),
], ids=["reduced_total_derivative", "free_total_derivative", "free_var"])
def test_jet_argument_errors(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message


_NOT_INT = "'{}' object cannot be interpreted as an integer"


@pytest.mark.parametrize("call, error, message", [
    (lambda: ReducedJetPoly({(("u", 1.5),): 1}), TypeError,
     _NOT_INT.format("float")),
    (lambda: ReducedJetPoly({(("u", 1.0),): 1}), TypeError,
     _NOT_INT.format("float")),
    (lambda: ReducedJetPoly({((1, 0),): 1}), TypeError,
     "jet field must be a str, got int"),
    (lambda: ReducedJetPoly({(("g", 0),): 1}), ValueError,
     "unknown jet field 'g'"),
    (lambda: ReducedJetPoly.var("v", 0), ValueError, "unknown jet field 'v'"),
    (lambda: u(0).partial("g", 0), ValueError, "unknown jet field 'g'"),
    (lambda: ReducedJetPoly({(("u", Fraction(0)),): 1}), TypeError,
     _NOT_INT.format("Fraction")),
    (lambda: FreeJetPoly({((-1, 0),): 1}), ValueError,
     "derivative orders must be nonnegative"),
    (lambda: FreeJetPoly({((0, 2.0),): 1}), TypeError,
     _NOT_INT.format("float")),
    (lambda: uf(0, 0).partial(0, -1), ValueError,
     "derivative orders must be nonnegative"),
], ids=["reduced_float_index", "reduced_integral_float_index",
        "reduced_int_field", "reduced_unknown_field", "reduced_var_field",
        "reduced_partial_field", "reduced_fraction_index",
        "free_negative_order", "free_float_order", "free_partial_order"])
def test_jet_variables_are_checked(call, error, message):
    # Every jet is checked where it is made, not only through var: 1.5 and
    # -1 printed as u[1.5] and u(-1,0), and u[1.0] equalled u[1].
    with pytest.raises(error) as excinfo:
        call()
    assert type(excinfo.value) is error and str(excinfo.value) == message


def test_constructed_jets_round_trip():
    # Monomials given unsorted to the constructor, of every field: each
    # printed jet parses back to the value, and equals the same jet built
    # from var.
    rng = random.Random(29)
    for _ in range(500):
        terms = {}
        built = ReducedJetPoly.zero()
        for _ in range(rng.randint(0, 4)):
            mono = tuple((rng.choice(FIELDS), rng.randint(-4, 4))
                         for _ in range(rng.randint(0, 3)))
            if sorted(mono) in map(sorted, terms):
                continue
            coeff = random_xypoly(rng, allow_zero=False)
            terms[mono] = coeff
            for field, k in mono:
                coeff = coeff * ReducedJetPoly.var(field, k)
            built = built + coeff
        p = ReducedJetPoly(terms)
        assert parse_jet(str(p)) == p == built


def test_eval_exp_family_rejects_mixed_fields():
    mixed = u(0) + ReducedJetPoly.var("f", 0)
    with pytest.raises(ValueError):
        eval_exp_family(mixed)


def test_eval_exp_family_intertwines():
    # On linear polynomials, evaluating after the reduced x-derivative equals
    # multiplying by the spectral parameter plus differentiating in x.
    rng = random.Random(34)
    for _ in range(40):
        terms = {(("u", rng.randint(-3, 3)),):
                 random_xypoly(rng, allow_zero=False)
                 for _ in range(rng.randint(1, 3))}
        p = ReducedJetPoly(terms)
        lhs = eval_exp_family(p.total_derivative("x"))
        ev = eval_exp_family(p)
        shifted = {(i, j, m + 1): c for (i, j, m), c in ev.items()}
        rhs = accumulate(shifted, (((i - 1, j, m), c * i)
                                   for (i, j, m), c in ev.items() if i))
        assert lhs == rhs


def test_monomial_product_is_the_sorted_concatenation():
    # Repeated variables, both fields and negative indices: the product
    # lists every variable of both monomials, in sorted order.
    m1 = (("f", -2), ("u", -1), ("u", -1), ("u", 3))
    m2 = (("f", 2), ("u", -1), ("u", 0))
    assert monomial_product(m1, m2) == monomial_product(m2, m1) == (
        ("f", -2), ("f", 2), ("u", -1), ("u", -1), ("u", -1), ("u", 0),
        ("u", 3))
    assert monomial_product(m1, ()) == m1 and monomial_product((), ()) == ()
    assert monomial_product(((0, 2), (1, 0)), ((0, 2),)) == (
        (0, 2), (0, 2), (1, 0))
    # The jet parser's folded power and product keys agree with the ring
    # product of the jet classes.
    f = ReducedJetPoly.var
    for text, value in (("u[-1]^3*f[2]^2*u[0]", u(-1) * u(-1) * u(-1)
                         * f("f", 2) * f("f", 2) * u(0)),
                        ("(f[-2]*u[-1])^2*u[-1]", f("f", -2) * u(-1)
                         * f("f", -2) * u(-1) * u(-1))):
        parsed = parse_jet(text)
        assert parsed == value and list(parsed.terms) == list(value.terms)


def test_order_bookkeeping():
    assert ReducedJetPoly({(): X}).order() == 0
    assert (u(3) * u(-5)).order() == 5
    rng = random.Random(35)
    for _ in range(40):
        p = random_reduced_jet(rng, max_order=3)
        assert p.total_derivative("x").order() <= p.order() + 1
    # equality when the top x-index appears
    assert (u(2) * u(0)).total_derivative("x").order() == 3


def test_multifield_chain_rule_randomized():
    # Mixed-degree products of u- and f-jets still satisfy the Leibniz rule.
    rng = random.Random(36)
    for _ in range(40):
        p = random_reduced_jet(rng, max_order=2, max_degree=3)
        q = random_reduced_jet(rng, max_order=2, max_degree=3)
        for var in ("x", "y"):
            lhs = (p * q).total_derivative(var)
            rhs = p.total_derivative(var) * q + p * q.total_derivative(var)
            assert lhs == rhs


def test_apply_operator_free():
    op = TDOperator({(2, 1): X, (0, 0): XYPoly({(0, 0): -1})})
    assert apply_operator_free(op) == uf(2, 1) * X - uf(0, 0)


def _is_reduced_var(v):
    return isinstance(v[0], str) and isinstance(v[1], int)


def _is_free_var(v):
    return all(isinstance(i, int) and i >= 0 for i in v)


def _canonical(p, is_var):
    """Every monomial of p is a sorted tuple of jet variables."""
    return all(list(mono) == sorted(mono) and all(map(is_var, mono))
               for mono in p.terms)


def test_monomials_are_sorted_variable_tuples():
    assert ReducedJetPoly.var("u", 2).terms == {(("u", 2),): XYPoly.one()}
    assert FreeJetPoly({((1, 0),): 1}).terms == {((1, 0),): XYPoly.one()}
    # unsorted and repeated-variable input is the product of its variables
    assert (ReducedJetPoly({(("u", 1), ("f", 0), ("u", 0), ("u", 1)): 3})
            == u(1) * ReducedJetPoly.var("f", 0) * u(0) * u(1) * 3)
    assert FreeJetPoly({((1, 0), (0, 2), (1, 0)): 1}) == uf(1, 0) ** 2 * uf(0, 2)
    assert (u(0) ** 3).partial("u", 0) == u(0) ** 2 * 3
    assert (u(0) ** 2).total_derivative("x") == u(0) * u(1) * 2
    rng = random.Random(37)
    for _ in range(30):
        p = random_reduced_jet(rng, max_order=2, max_degree=3)
        q = random_reduced_jet(rng, max_order=2, max_degree=3)
        results = [p * q, p.total_derivative("x"), p.total_derivative("y")]
        results += [p.partial(*v) for v in p.jet_variables()]
        assert all(_canonical(r, _is_reduced_var) for r in results)
        f = random_free_jet(rng)
        g = random_free_jet(rng)
        results = [f * g, f.total_derivative("x"), f.total_derivative("y")]
        results += [f.partial(*v) for v in f.jet_variables()]
        assert all(_canonical(r, _is_free_var) for r in results)
        assert _canonical(reduce(f * g), _is_reduced_var)


def test_jet_text_forms():
    assert str(reduced_J(u(0))) == "x*u[1] - y*u[-1]"
    assert str(u(0) ** 2) == "u[0]^2"
    assert str(ReducedJetPoly({(): Fraction(3, 2)})) == "3/2"
    assert str(ReducedJetPoly.zero()) == "0"
    assert str(uf(1, 1) - uf(0, 0)) == "u(1,1) - u(0,0)"


def _coefficient_reprs(p):
    """Every coefficient of p with its keys, by repr: 3 and Fraction(3)
    are equal but print differently."""
    return sorted((mono, key, repr(c)) for mono, poly in p.terms.items()
                  for key, c in poly.terms.items())


def _euler_term_by_term(p):
    """The Euler operator as its definition reads: (-Dx)^a (-Dy)^b applied
    to dp/du_(a,b), one variable at a time."""
    result = FreeJetPoly.zero()
    for (a, b) in sorted(p.jet_variables()):
        term = p.partial(a, b)
        for _ in range(a):
            term = term.total_derivative("x")
        for _ in range(b):
            term = term.total_derivative("y")
        result = result + (term if (a + b) % 2 == 0 else -term)
    return result


def test_euler_operator_matches_term_by_term_sum():
    rng = random.Random(38)
    for _ in range(240):
        p = random_free_jet(rng, max_order=6, max_degree=3, max_terms=5)
        expected = _euler_term_by_term(p)
        assert euler_operator(p) == expected, p
        assert _coefficient_reprs(euler_operator(p)) == _coefficient_reprs(
            expected), p


def test_square_matches_general_product():
    rng = random.Random(39)
    for _ in range(200):
        for p in (random_reduced_jet(rng, max_order=3, max_degree=3,
                                     max_terms=6),
                  random_free_jet(rng, max_order=4, max_degree=3,
                                  max_terms=6)):
            general = p * type(p)(dict(p.terms))
            assert p * p == general, p
            assert _coefficient_reprs(p * p) == _coefficient_reprs(general)
            assert _canonical(p * p, _is_reduced_var
                              if isinstance(p, ReducedJetPoly)
                              else _is_free_var)


# Coefficient denominators of the squares tests: coprime ones, ones with
# common factors, and one of 20 digits.
_DENOMINATORS = (1, 1, 2, 3, 4, 9, 35, 12345678901234567891)


def _mixed_jet(rng, cls):
    """One to four terms of jet degree 0 to 3 and order at most 3, each
    coefficient one to three terms c x^i y^j, i + j <= 2, with c's
    denominator drawn from _DENOMINATORS."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = []
        for _ in range(rng.randint(0, 3)):
            if cls is ReducedJetPoly:
                mono.append((rng.choice(FIELDS), rng.randint(-3, 3)))
            else:
                a = rng.randint(0, 3)
                mono.append((a, rng.randint(0, 3 - a)))
        coeff = {}
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(0, 2)
            coeff[i, rng.randint(0, 2 - i)] = Fraction(
                rng.choice((-1, 1)) * rng.randint(1, 9),
                rng.choice(_DENOMINATORS))
        terms[tuple(mono)] = XYPoly(coeff)
    return cls(terms)


def _squares_by_ring(parts):
    """The sum of sign * x^di * y^dj * p^2 by the general jet product."""
    total = type(parts[0][0]).zero()
    for p, di, dj, sign in parts:
        total = total + sign * X ** di * Y ** dj * (p * type(p)(dict(p.terms)))
    return total


def test_squares_match_ring_products():
    rng = random.Random(41)
    long_denominators = 0
    for cls in (ReducedJetPoly, FreeJetPoly):
        for _ in range(150):
            parts = [(_mixed_jet(rng, cls), rng.randint(0, 2),
                      rng.randint(0, 2), rng.choice((1, -1)))
                     for _ in range(rng.randint(1, 3))]
            result, expected = squares(parts), _squares_by_ring(parts)
            assert type(result) is cls
            assert result == expected, parts
            assert _coefficient_reprs(result) == _coefficient_reprs(expected)
            long_denominators += any(
                c.denominator % _DENOMINATORS[-1] == 0
                for p, *_ in parts for poly in p.terms.values()
                for c in poly.terms.values() if type(c) is Fraction)
    assert long_denominators > 10


@pytest.mark.parametrize("cls", [ReducedJetPoly, FreeJetPoly])
def test_squares_edge_cases(cls):
    zero = squares([(cls.zero(), 1, 1, -1)])
    assert type(zero) is cls and not zero
    p = _mixed_jet(random.Random(42), cls)
    integral = p * common_denominator(p.terms.values())
    parts = [(integral, 2, 0, -1), (integral + cls.one(), 0, 1, 1)]
    result, expected = squares(parts), _squares_by_ring(parts)
    assert result == expected
    assert _coefficient_reprs(result) == _coefficient_reprs(expected)
    assert all(type(c) is int for poly in result.terms.values()
               for c in poly.terms.values())
    cancel = squares([(p, 1, 2, 1), (-p, 1, 2, -1)])
    assert type(cancel) is cls and not cancel


@pytest.mark.parametrize("cls", [ReducedJetPoly, FreeJetPoly])
def test_jet_without_variables_hashes_as_its_coefficient(cls):
    # cls({(): p}) == p, so the two must hash alike; a constant one also
    # equals, and hashes as, its rational value.
    rng = random.Random(40)
    for _ in range(40):
        p = random_xypoly(rng)
        jet = cls({(): p})
        assert jet == p and hash(jet) == hash(p)
        assert len({jet, p}) == 1
    for value in (0, 3, Fraction(-2, 7)):
        jet = cls({(): value})
        assert jet == value and hash(jet) == hash(value)
        assert len({jet, XYPoly({(0, 0): value}), value}) == 1
    assert len({cls.zero(), XYPoly.zero(), 0}) == 1
