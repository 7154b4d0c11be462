"""Parser tests: grammar examples, error reporting, print/parse round trips,
and the sum fold against ring operations."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from kgsym.arith import XYPoly
from kgsym.jet import ReducedJetPoly, reduced_J
from kgsym.opalg import TDOperator, basis_op, kg_operator
from kgsym.parser import (MAX_DIGITS, MAX_EXPONENT, MAX_JET_INDEX,
                          MAX_NESTING, MAX_WORK, ParseError, _JetParser,
                          _OperatorParser, parse_jet, parse_operator)
from kgsym.verify import (ROUND_TRIP_SEED, random_operator,
                          random_reduced_jet)


def test_operator_grammar_examples():
    assert parse_operator("(J + 1/2)^1 * Dx") == basis_op("Q", 1, 1)
    assert parse_operator("Dx*Dy - 1") == kg_operator()
    assert parse_operator("J^0") == TDOperator.identity()


def test_operator_composition_is_noncommutative():
    # Dx * x = x*Dx + 1, while x * Dx stays x*Dx.
    left = parse_operator("Dx*x")
    right = parse_operator("x*Dx")
    assert left == right + TDOperator.identity()


def test_jet_grammar_examples():
    assert parse_jet("x*u[1] - y*u[-1]") == reduced_J(ReducedJetPoly.var("u", 0))
    assert parse_jet("u[0]^2") == ReducedJetPoly.var("u", 0) ** 2
    assert parse_jet("3/2") == ReducedJetPoly({(): Fraction(3, 2)})
    assert parse_jet("f[-2]*u[3]") == (ReducedJetPoly.var("f", -2)
                                       * ReducedJetPoly.var("u", 3))


def test_zero_parses():
    assert not parse_operator("0")
    assert not parse_jet("0")


def test_unary_signs():
    assert parse_jet("-u[0]^2") == -(ReducedJetPoly.var("u", 0) ** 2)
    assert parse_operator("-Dx") == -TDOperator({(1, 0): 1})
    assert parse_operator("+Dx") == TDOperator({(1, 0): 1})


def test_syntax_errors_carry_positions():
    with pytest.raises(ParseError) as excinfo:
        parse_operator("Dx + ")
    assert excinfo.value.position == 5
    with pytest.raises(ParseError) as excinfo:
        parse_operator("Dz")
    assert excinfo.value.position == 0
    with pytest.raises(ParseError) as excinfo:
        parse_jet("u[1")
    assert "position" in str(excinfo.value)


@pytest.mark.parametrize("parse, text, message", [
    (parse_operator, "", "unexpected end of input (at position 0)"),
    (parse_operator, "(x", "expected ')', found end of input (at position 2)"),
    (parse_operator, "Dx + ", "unexpected end of input (at position 5)"),
    (parse_jet, "u[1", "expected ']', found end of input (at position 3)"),
    (parse_jet, "u[", "expected 'INT', found end of input (at position 2)"),
    (parse_jet, "(u[0]", "expected ')', found end of input (at position 5)")])
def test_end_of_input_is_named(parse, text, message):
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    assert str(excinfo.value) == message


def test_negative_exponent_rejected():
    with pytest.raises(ParseError) as excinfo:
        parse_operator("Dx^-1")
    assert "negative" in str(excinfo.value)
    with pytest.raises(ParseError):
        parse_jet("u[0]^-2")


def test_parenthesis_nesting_bound():
    deepest = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_operator(deepest) == parse_operator("x")
    with pytest.raises(ParseError) as excinfo:
        parse_jet("(" + deepest + ")")
    assert excinfo.value.position == MAX_NESTING


def test_exponent_bound():
    assert parse_operator(f"Dx^{MAX_EXPONENT}") == TDOperator(
        {(MAX_EXPONENT, 0): XYPoly.one()})
    with pytest.raises(ParseError) as excinfo:
        parse_operator(f"Dx^{MAX_EXPONENT + 1}")
    assert str(MAX_EXPONENT) in str(excinfo.value)
    assert excinfo.value.position == 3
    with pytest.raises(ParseError) as excinfo:
        parse_jet("u[0] * (x + 1)^99999999999999999999")
    assert excinfo.value.position == 15


def test_integer_digit_bound():
    nines = "9" * MAX_DIGITS
    assert parse_operator(f"x*{nines}") == TDOperator(
        {(0, 0): XYPoly({(1, 0): int(nines)})})
    too_long = "9" * 5000
    for parse, text, position in ((parse_operator, f"Dx^{too_long}", 3),
                                  (parse_operator, f"x*{too_long}", 2),
                                  (parse_operator, f"1/{too_long}", 2),
                                  (parse_jet, f"u[-{too_long}]", 3)):
        with pytest.raises(ParseError) as excinfo:
            parse(text)
        assert excinfo.value.position == position
        assert "5000 digits" in str(excinfo.value)
        assert str(MAX_DIGITS) in str(excinfo.value)


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_operator("Dx Dx")
    with pytest.raises(ParseError):
        parse_jet("u[0] u[1]")


def test_unknown_jet_atom_rejected():
    with pytest.raises(ParseError):
        parse_jet("w[0]")
    with pytest.raises(ParseError):
        parse_jet("Dx")


def test_zero_denominator_rejected():
    with pytest.raises(ParseError):
        parse_operator("1/0")


def test_operator_round_trip_randomized():
    rng = random.Random(51)
    for _ in range(300):
        op = random_operator(rng, max_order=3)
        assert parse_operator(str(op)) == op


def test_jet_round_trip_randomized():
    rng = random.Random(52)
    for _ in range(300):
        p = random_reduced_jet(rng, max_order=4, max_degree=2)
        assert parse_jet(str(p)) == p


def test_round_trip_awkward_coefficients():
    op = TDOperator({(1, 0): XYPoly({(1, 1): Fraction(-3, 7), (0, 0): 1}),
                     (0, 0): XYPoly({(0, 0): Fraction(-1, 2)})})
    assert parse_operator(str(op)) == op
    p = ReducedJetPoly({(("u", -3), ("u", -3), ("f", 1)):
                        XYPoly({(0, 2): Fraction(5, 3), (1, 0): -2})})
    assert parse_jet(str(p)) == p


@pytest.mark.parametrize("text, position", [
    ("\u00b2", 0), ("Dx^\u00b2", 3), ("\u0663*x", 0), ("Dx\u00b2", 2),
    ("x*\uff11", 2), ("u[\u0661]", 2)])
def test_non_ascii_digits_rejected(text, position):
    # Only 0-9 make an integer; a superscript, Arabic-Indic or fullwidth
    # digit is an unexpected character at its own position.
    for parse in (parse_operator, parse_jet):
        with pytest.raises(ParseError) as excinfo:
            parse(text)
        assert excinfo.value.position == position
        assert str(excinfo.value).startswith("unexpected character")


def test_jet_index_bound():
    assert parse_jet(f"u[{MAX_JET_INDEX}]*f[-{MAX_JET_INDEX}]") == (
        ReducedJetPoly.var("u", MAX_JET_INDEX)
        * ReducedJetPoly.var("f", -MAX_JET_INDEX))
    for text, index, position in (("u[1001]", "1001", 2),
                                  ("x*f[-10000000]", "-10000000", 5)):
        with pytest.raises(ParseError) as excinfo:
            parse_jet(text)
        assert excinfo.value.position == position
        message = str(excinfo.value)
        assert f"jet index {index} " in message
        assert str(MAX_JET_INDEX) in message


# Differential test of the sum fold: random expressions over each
# grammar are built twice, as text for the parser and as a value made
# directly with the TDOperator / ReducedJetPoly ring operations, following
# the grammar's precedence (a unary sign applies to one power).

_X, _Y = XYPoly.variable("x"), XYPoly.variable("y")
_RATIONALS = ("0", "1", "3", "4/2", "2/3", "3/2", "5/7")
_OPERATOR_ATOMS = {"Dx": TDOperator({(1, 0): 1}),
                   "Dy": TDOperator({(0, 1): 1}),
                   "J": TDOperator.j(), "x": TDOperator({(0, 0): _X}),
                   "y": TDOperator({(0, 0): _Y}),
                   **{r: TDOperator({(0, 0): Fraction(r)})
                      for r in _RATIONALS}}
_JET_ATOMS = {"x": ReducedJetPoly({(): _X}),
              "y": ReducedJetPoly({(): _Y}),
              **{f"{w}[{k}]": ReducedJetPoly.var(w, k)
                 for w in "uf" for k in (-2, 0, 1, 3)},
              **{r: ReducedJetPoly({(): Fraction(r)}) for r in _RATIONALS}}


def _random_expression(rng, atoms, depth):
    text, value = _random_factor(rng, atoms, depth)
    for _ in range(rng.randint(0, 2)):
        t, v = _random_factor(rng, atoms, depth)
        if rng.random() < 0.5:
            text, value = f"{text} + {t}", value + v
        else:
            text, value = f"{text} - {t}", value - v
    return text, value


def _random_factor(rng, atoms, depth):
    text, value = _random_unary(rng, atoms, depth)
    for _ in range(rng.randint(0, 2)):
        t, v = _random_unary(rng, atoms, depth)
        text, value = f"{text}*{t}", value * v
    return text, value


def _random_unary(rng, atoms, depth):
    signs = rng.choice(("", "", "", "-", "+", "--", "-+-"))
    text, value = _random_power(rng, atoms, depth)
    return signs + text, -value if signs.count("-") % 2 else value


def _random_power(rng, atoms, depth):
    if depth and rng.random() < 0.25:
        text, value = _random_expression(rng, atoms, depth - 1)
        text = f"({text})"
    else:
        text = rng.choice(sorted(atoms))
        value = atoms[text]
    if rng.random() < 0.3:
        e = rng.randint(0, 3)
        text, value = f"{text}^{e}", value ** e
    return text, value


def _coefficient_reprs(value):
    """Every coefficient with its key, by repr, so 3 and Fraction(3, 1)
    differ."""
    return sorted((repr(key), repr(ij), repr(c))
                  for key, poly in value.terms.items()
                  for ij, c in poly.terms.items())


def _assert_same(parsed, expected, text):
    assert parsed == expected, text
    assert _coefficient_reprs(parsed) == _coefficient_reprs(expected), text


@pytest.mark.parametrize("parse, atoms, seed", [
    (parse_operator, _OPERATOR_ATOMS, 1201), (parse_jet, _JET_ATOMS, 1202)])
def test_monomial_fold_matches_ring_operations(parse, atoms, seed):
    rng = random.Random(seed)
    for _ in range(500):
        text, value = _random_expression(rng, atoms, depth=2)
        _assert_same(parse(text), value, text)


def test_monomial_fold_keeps_noncommuting_products():
    dx, dy = TDOperator({(1, 0): 1}), TDOperator({(0, 1): 1})
    j = TDOperator.j()
    x, y = TDOperator({(0, 0): _X}), TDOperator({(0, 0): _Y})
    third = TDOperator({(0, 0): Fraction(2, 3)})
    for text, value in (("Dx*x", dx * x),
                        ("Dy^2*y^2*J", dy ** 2 * y ** 2 * j),
                        ("x*Dx*x", x * dx * x),
                        ("(x*Dx)^2", (x * dx) ** 2),
                        ("-(Dx*y^2)^3*x", -((dx * y ** 2) ** 3) * x),
                        ("(2/3*Dx)^3*x*3/2", (third * dx) ** 3 * x
                         * TDOperator({(0, 0): Fraction(3, 2)})),
                        ("Dx^2*Dy*x^3*y", dx ** 2 * dy * x ** 3 * y),
                        ("(Dx + 1)*x", (dx + TDOperator.identity()) * x)):
        _assert_same(parse_operator(text), value, text)
    assert parse_operator("Dx*x") != parse_operator("x*Dx")


def test_leibniz_closed_form_matches_composition():
    # Every monomial product Dx^p Dy^q * x^i y^j with p, q, i, j <= 5, both
    # one factor at a time and as one pair of monomials, against the
    # composition of the ring operations. Both sides run on
    # opalg.monomial_product, so this checks the parser's products against
    # TDOperator.compose, not the Leibniz rule itself;
    # test_sympy_oracle.py::test_leibniz_monomials_match_sympy checks that.
    dx, dy = TDOperator({(1, 0): 1}), TDOperator({(0, 1): 1})
    x, y = TDOperator({(0, 0): _X}), TDOperator({(0, 0): _Y})
    for p, q, i, j in itertools.product(range(6), repeat=4):
        value = dx ** p * dy ** q * x ** i * y ** j
        for text in (f"Dx^{p}*Dy^{q}*x^{i}*y^{j}",
                     f"(Dx^{p}*Dy^{q})*(x^{i}*y^{j})"):
            _assert_same(parse_operator(text), value, text)
    left = TDOperator({(0, 0): Fraction(2, 3)}) * dx ** 2 * dy
    right = TDOperator({(0, 0): Fraction(3, 2)}) * x ** 2 * y
    for text, value in (("(2/3*Dx^2*Dy)*(3/2*x^2*y)", left * right),
                        ("(x*Dx + Dy*y)^6", (x * dx + dy * y) ** 6)):
        _assert_same(parse_operator(text), value, text)


def test_jet_power_past_the_fold_bound():
    # A power of more than MAX_EXPONENT jet variables is not folded; both
    # sides of the bound agree with the ring power.
    u0, u1 = ReducedJetPoly.var("u", 0), ReducedJetPoly.var("u", 1)
    for e in (MAX_EXPONENT // 2, MAX_EXPONENT // 2 + 1):
        text = f"(2*u[0]*u[1])^{e}"
        _assert_same(parse_jet(text), (2 * u0 * u1) ** e, text)


def test_monomial_fold_normalizes_coefficients():
    # Integral products and powers of fractions are plain ints.
    for text in ("2/3*3/2*x", "(2/3)^0", "(2/3)^0*Dx", "4/2*Dy",
                 "(3/2*x)^2*4/9", "(3/2*Dx)*(2/3*x)"):
        op = parse_operator(text)
        assert all(type(c) is int for poly in op.terms.values()
                   for c in poly.terms.values()), text
    for text in ("2/3*u[0]*3/2", "(5/7)^0*u[0]", "(5/7*u[0])^0*u[0]",
                 "(3/2*u[0])*(2/3)"):
        assert _coefficient_reprs(parse_jet(text)) == [
            ("(('u', 0),)", "(0, 0)", "1")], text


def test_sum_fold_products_of_sums():
    # Sums on either side of a derivative: a product folds when no left
    # derivative meets a right x or y, and composes by Leibniz otherwise.
    dx, dy = TDOperator({(1, 0): 1}), TDOperator({(0, 1): 1})
    x, y = TDOperator({(0, 0): _X}), TDOperator({(0, 0): _Y})
    one, half = TDOperator.identity(), TDOperator({(0, 0): Fraction(1, 2)})
    for text, value in (("(x + Dx)*(y - Dy)", (x + dx) * (y - dy)),
                        ("Dx*(x + y)", dx * (x + y)),
                        ("(x + y)*Dx", (x + y) * dx),
                        ("(x - 1/2*y)*(Dx + Dy)", (x - half * y) * (dx + dy)),
                        ("(Dx + Dy)*(x - y)", (dx + dy) * (x - y)),
                        ("(Dx - 2*Dy)*(Dx*Dy + 1)",
                         (dx - 2 * dy) * (dx * dy + one)),
                        ("(x*Dx + y)*(x + Dy)*(1 - x*y)",
                         (x * dx + y) * (x + dy) * (one - x * y)),
                        ("(x + y)^2*Dx", (x + y) ** 2 * dx),
                        ("(Dx + 1)^3*(x - y)", (dx + one) ** 3 * (x - y))):
        _assert_same(parse_operator(text), value, text)
    u0, u1 = ReducedJetPoly.var("u", 0), ReducedJetPoly.var("u", 1)
    fm = ReducedJetPoly.var("f", -2)
    jx, jy = ReducedJetPoly({(): _X}), ReducedJetPoly({(): _Y})
    for text, value in (("(u[0] + x)*(u[1] - y)", (u0 + jx) * (u1 - jy)),
                        ("(x - 2*y)*u[1]*(f[-2] + u[0])^2",
                         (jx - 2 * jy) * u1 * (fm + u0) ** 2),
                        ("-(u[0] - 3/2*u[1])*(u[1] + u[0])",
                         -((u0 - Fraction(3, 2) * u1) * (u1 + u0)))):
        _assert_same(parse_jet(text), value, text)


def test_sum_fold_zero_sums():
    dx, x = TDOperator({(1, 0): 1}), TDOperator({(0, 0): _X})
    zero, one = TDOperator.zero(), TDOperator.identity()
    for text, value in (("(x - x)*Dx", zero), ("Dx*(x - x)", zero),
                        ("0^0", one), ("(x - x)^0", one),
                        ("(x - x)^0*Dx", dx), ("(Dx - Dx)^2", zero),
                        ("0*Dx*x", zero), ("(Dx*x - x*Dx)^5", one),
                        ("x + 0 - x", zero), ("(x - x)*Dx*x + x", x)):
        _assert_same(parse_operator(text), value, text)
    u0 = ReducedJetPoly.var("u", 0)
    for text, value in (("(u[0] - u[0])^0", ReducedJetPoly.one()),
                        ("(u[0] - u[0])^3", ReducedJetPoly.zero()),
                        ("(x - x)*u[0]", ReducedJetPoly.zero()),
                        ("0^0*u[0]", u0),
                        ("u[0] - u[0] + 0", ReducedJetPoly.zero())):
        _assert_same(parse_jet(text), value, text)
    assert parse_jet("(u[0] - u[0])^0").terms == {(): XYPoly.one()}


def test_sum_fold_with_j_in_products():
    dx, dy = TDOperator({(1, 0): 1}), TDOperator({(0, 1): 1})
    j = TDOperator.j()
    x, y = TDOperator({(0, 0): _X}), TDOperator({(0, 0): _Y})
    third = TDOperator({(0, 0): Fraction(1, 3)})
    for text, value in (("J", j), ("J*Dx", j * dx), ("Dx*J", dx * j),
                        ("x*J*y", x * j * y), ("J*x", j * x),
                        ("(J + x)*(J - Dy)", (j + x) * (j - dy)),
                        ("J^2*x - 1/3*J", j ** 2 * x - third * j),
                        ("(x + y)*J*(Dx + Dy)", (x + y) * j * (dx + dy)),
                        ("-(J - 1)^2*Dy", -((j - TDOperator.identity()) ** 2)
                         * dy)):
        _assert_same(parse_operator(text), value, text)


def _count_ring_calls(monkeypatch):
    """Wrap every ring operation of TDOperator and ReducedJetPoly so that
    each call is counted in the returned dict, by class and method name."""
    calls = {}
    for cls, names in ((TDOperator, ("compose", "__add__", "__sub__",
                                     "__mul__", "__rmul__", "__neg__",
                                     "__pow__", "scale", "left_mul_poly")),
                       (ReducedJetPoly, ("__add__", "__radd__", "__sub__",
                                         "__rsub__", "__mul__", "__rmul__",
                                         "__neg__", "__pow__"))):
        for name in names:
            def counted(*args, _method=getattr(cls, name),
                        _label=f"{cls.__name__}.{name}"):
                calls[_label] = calls.get(_label, 0) + 1
                return _method(*args)
            monkeypatch.setattr(cls, name, counted)
    return calls


def test_printed_values_parse_with_no_ring_operation(monkeypatch):
    rng = random.Random(53)
    values = [random_operator(rng) for _ in range(300)]
    values += [random_reduced_jet(rng) for _ in range(300)]
    texts = [str(v) for v in values]
    calls = _count_ring_calls(monkeypatch)
    parsed = [(parse_operator if isinstance(v, TDOperator) else parse_jet)(t)
              for v, t in zip(values, texts)]
    assert calls == {}
    for value, back, text in zip(values, parsed, texts):
        _assert_same(back, value, text)
    # A derivative meeting an x or y takes the Leibniz terms in closed form,
    # still with no ring operation.
    parse_operator("Dx*x")
    assert calls == {}


def test_jet_power_past_the_fold_bound_uses_product_steps(monkeypatch):
    # Up to MAX_EXPONENT jet variables a power folds; past it, for a power
    # of a sum and for a power of a monomial mixing derivatives with x or y,
    # repeated product steps build the value with no ring operation.
    calls = _count_ring_calls(monkeypatch)
    parse_jet(f"(2*u[0]*u[1])^{MAX_EXPONENT // 2}")
    parse_jet(f"(2*u[0]*u[1])^{MAX_EXPONENT // 2 + 1}")
    parse_jet("(u[0] - x*f[1])^3")
    parse_operator("(x + 2*y)^2*(Dx - Dy)^3")
    parse_operator("(x*Dx)^3")
    assert calls == {}


def test_work_bound_counts_monomial_pairs():
    # With no jet variable and no derivative, a product costs one step per
    # pair of monomials. Past MAX_WORK the error names the bound and the
    # position of the * or ^ whose product would pass it.
    n = 600
    left = " + ".join(f"x^{i}" for i in range(n))
    right = " + ".join(f"x^{j}" for j in range(MAX_WORK // n))
    assert MAX_WORK % n == 0
    assert parse_jet(f"({left})*({right})").terms[()].terms[1, 0] == 2
    for parse in (parse_operator, parse_jet):
        with pytest.raises(ParseError) as excinfo:
            parse(f"({left})*({right} + y)")
        assert str(excinfo.value) == (
            f"products exceed the bound of {MAX_WORK} monomial steps "
            f"(at position {len(left) + 2})")
    # Leibniz terms add to the cost of a pair: the 400 pairs Dx^k * x^j
    # with k, j > 980 make more than MAX_WORK terms, so nothing is composed.
    derivatives = " + ".join(f"Dx^{k}" for k in range(981, 1001))
    powers = " + ".join(f"x^{j}" for j in range(981, 1001))
    with pytest.raises(ParseError) as excinfo:
        parse_operator(f"({derivatives})*({powers})")
    assert str(MAX_WORK) in str(excinfo.value)
    assert excinfo.value.position == len(derivatives) + 2


def test_work_bound_admits_j_power_40():
    for n in (40, 48):                          # 48 is the largest that parses
        assert max(p + q for p, q in parse_operator(f"J^{n}").terms) == n


def test_large_coefficients_within_the_work_bound_cancel():
    # Squaring a 3000-digit coefficient is charged about 1250 steps for its
    # bits, far within MAX_WORK, and the two squares cancel exactly.
    big = "9" * 3000
    assert parse_operator(f"({big}*x)^2 - ({big}*x)^2") == TDOperator.zero()
    assert parse_jet(f"({big}*x)^2 - ({big}*x)^2") == ReducedJetPoly.zero()


def _work(parser, text):
    """The work a parse of text spends, in monomial steps."""
    p = parser(text)
    p.parse()
    return p.work


# sha256 of the list of works, repr'd, of the 1000 operators and the 1000
# jets the parser round trip parses, with their sums. A change to what a
# parse charges changes them.
ROUND_TRIP_WORK = {
    _OperatorParser: (6527, "095dd9d0946025371ab8e29758eed4116cc078ed"
                            "348793126dcc27665bce46a8"),
    _JetParser: (9865, "40850397ddf88ef3449d11a771d0e7853cbc31e5"
                       "1880e8e02f20e60a7da79433"),
}


def test_round_trip_parse_work_is_pinned():
    rng = random.Random(ROUND_TRIP_SEED)
    texts = {_OperatorParser: [str(random_operator(rng)) for _ in range(1000)],
             _JetParser: [str(random_reduced_jet(rng)) for _ in range(1000)]}
    for parser, (total, digest) in ROUND_TRIP_WORK.items():
        works = [_work(parser, text) for text in texts[parser]]
        assert sum(works) == total
        assert hashlib.sha256(repr(works).encode()).hexdigest() == digest


@pytest.mark.parametrize("parser, text, work", [
    (_OperatorParser, "(3*Dx)*(5*x)", 4),
    (_OperatorParser, "(123456789012345678901234567890*Dx^3)"
                      "*(987654321098765432109876543210*x^3)", 55),
    (_OperatorParser, "J^48", 279402),
    (_OperatorParser, "(3/2*Dx^2*Dy)*(2/3*x^2*y^3)", 11),
    (_OperatorParser, "(3/2*Dx)*(2/3*x)", 4),
    # 1/3 * 1610612736 is Fraction(2^29, 1); times the Leibniz factor 2 it
    # is Fraction(2^30, 1), charged 32 bits (2 steps) where 2^30 is 31 (1).
    (_OperatorParser, "(1/3*Dx^2)*(1610612736*x^2)", 10),
    (_OperatorParser, "(-7*Dx)*(x + 1/2*y)", 5),
    (_OperatorParser, "(2*Dx + 3/5*x*Dy)^4", 37),
    (_OperatorParser, "Dx*x", 2),
    (_OperatorParser, "x*Dx", 1),
    (_JetParser, "(3/2*u[0])*(2/3*u[1])", 7),
    (_JetParser, "(3*u[0]*x)*(5*u[-1]^2)", 11),
    (_JetParser, "(-5/7*x*u[2])*(14/15*y*u[2]*f[-1])", 13),
    (_JetParser, "(123456789012345678901234567890*u[2])"
                 "*(987654321098765432109876543210*f[-2]*y)", 21),
    (_JetParser, "(1/2*u[0] + 3*f[1])^5", 144),
    (_JetParser, "(-4/9*u[0]^2*x)^3", 7),
])
def test_parse_work_is_pinned(parser, text, work):
    # cost(a, b) once per product, then one charge per coefficient a
    # multiplication makes; a coefficient or factor 1 multiplies nothing.
    assert _work(parser, text) == work

