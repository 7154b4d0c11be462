"""Failure paths of the verification checks, each forced through a name
that kgsym.verify imports and named in the check's detail, the work one
run_all call shares, and the random values the parser round trip draws.

Each check takes its words from kgsym.opalg.basis_op through one helper, so
a wrong operator for one shape must make the check fail and name it.
"""

import hashlib
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from kgsym import verify
from kgsym.arith import XYPoly
from kgsym.jet import FIELDS, ReducedJetPoly, reduced_J
from kgsym.noether import (current_C0, current_Ctilde, current_minimal,
                           is_cl_characteristic, minimal_family_members)
from kgsym.opalg import TDOperator, basis_op
from kgsym.parser import parse_jet, parse_operator
from kgsym.symmetry import (DeterminingSystem, chain_rows, reduced_bracket,
                            solve_linear_determining)


def _patched(monkeypatch, wrong):
    """Make verify.basis_op return wrong for Q[1,0] and the true word for
    every other shape."""
    def patched(kind, k, l):
        return wrong if (kind, k, l) == ("Q", 1, 0) else basis_op(kind, k, l)
    monkeypatch.setattr(verify, "basis_op", patched)


@pytest.mark.parametrize("check", [verify.check_centrality,
                                   verify.check_adjoint_parity,
                                   verify.check_variational_parity])
def test_wrong_word_is_named(monkeypatch, check):
    _patched(monkeypatch, TDOperator.mul_by(XYPoly.variable("x")))
    result = check()
    assert not result.passed
    assert result.detail == "Q[1,0]"


def test_dependent_words_lose_rank(monkeypatch):
    _patched(monkeypatch, basis_op("Q", 0, 1))
    result = verify.check_independence(max_order=2)
    assert not result.passed
    assert result.detail == "rank(1)=2!=3"


@pytest.mark.parametrize("wrong, detail", [
    (basis_op("Q", 0, 1), "words rank(1)=3!=4"),
    (TDOperator.mul_by(XYPoly.variable("x")), "union rank(1)=5!=4")],
    ids=["dependent_word", "word_outside_the_solved_basis"])
def test_dimension_tables_compare_solved_basis_and_words(monkeypatch, wrong,
                                                         detail):
    _patched(monkeypatch, wrong)
    result = verify.check_dimension_tables(max_order=1)
    assert not result.passed
    assert result.detail == detail


def test_counting_needs_independent_characteristics(monkeypatch):
    # C1bar[1,0] built as C1bar[0,1]: still 7 verified currents of order 2,
    # but one characteristic repeats another.
    def patched(family, kp, lp):
        if (family, kp, lp) == ("C1bar", 1, 0):
            kp, lp = 0, 1
        return current_minimal(family, kp, lp)
    monkeypatch.setattr(verify, "current_minimal", patched)
    result = verify.check_counting(max_order=2)
    assert not result.passed
    assert result.detail == "rank(2)=6!=7"


def test_extra_kernel_vector_breaks_saturation(monkeypatch):
    # A vector that is no symmetry, x^3*u[0], injected into the kernel the
    # check solves for: it lies in (0, 3) but not in (0, 2).
    extra = parse_jet("x^3*u[0]")

    def patched(n, d):
        elements = (*solve_linear_determining(n, d).elements, extra)
        return SimpleNamespace(elements=elements, dim=len(elements))
    monkeypatch.setattr(verify, "solve_linear_determining", patched)
    result = verify.check_dimension_tables(max_order=2)
    assert not result.passed
    assert "saturation(0): 2!=1" in result.detail.split("; ")


def test_graded_dimension_is_named(monkeypatch):
    # One of the three rows of chain index 2 relabelled to index 1: the
    # order-1 layer loses an element to the degree saturation of order 0.
    def patched(basis):
        rows = chain_rows(basis)
        first = next(i for i, (m, _) in enumerate(rows) if m == 2)
        rows[first] = (1, rows[first][1])
        return rows
    monkeypatch.setattr(verify, "chain_rows", patched)
    result = verify.check_dimension_tables(max_order=1)
    assert not result.passed
    assert result.detail == "saturation(0): 2!=1; graded(1)=2!=3"


_U0 = ReducedJetPoly.var("u", 0)
_E = {"e0": _U0, "e1": -ReducedJetPoly.var("u", 1),
      "e2": -ReducedJetPoly.var("u", -1), "e3": -reduced_J(_U0)}


@pytest.mark.parametrize("pair, detail", [
    (("e1", "e2"), "[e1,e2]!=0"), (("e1", "e3"), "[e1,e3]!=e1"),
    (("e2", "e3"), "[e2,e3]!=-e2"), (("e0", "e3"), "[e0,e3]!=0")])
def test_structure_constant_relation_is_named(monkeypatch, pair, detail):
    wrong = tuple(_E[name] for name in pair)

    def patched(a, b):
        bracket = reduced_bracket(a, b)
        return bracket + _U0 if (a, b) == wrong else bracket
    monkeypatch.setattr(verify, "reduced_bracket", patched)
    result = verify.check_structure_constants()
    assert not result.passed
    assert result.detail == detail


def test_reduced_lift_names_a_failing_J3(monkeypatch):
    monkeypatch.setattr(verify, "is_variational_linear", lambda op: False)
    result = verify.check_reduced_lift_remark()
    assert not result.passed
    assert result.detail == "J^3 fails the variational criterion"


def test_reduced_lift_names_a_wrong_difference(monkeypatch):
    # J^3 + 1 fails the variational criterion, as the re-lift should, but
    # differs from J^3 by 1.
    wrong = basis_op("Q", 3, 0) + TDOperator.identity()
    monkeypatch.setattr(verify, "lift_linear_characteristic",
                        lambda eta: wrong)
    result = verify.check_reduced_lift_remark()
    assert not result.passed
    assert result.detail == "difference is not 3xy*J*(DxDy - 1)"


def test_conservation_names_a_wrong_order(monkeypatch):
    def patched(family, kp, lp):
        if (family, kp, lp) == ("C2", 1, 0):
            kp = 0
        return current_minimal(family, kp, lp)
    monkeypatch.setattr(verify, "current_minimal", patched)
    result = verify.check_conservation()
    assert not result.passed
    assert result.detail == "C2[1,0]: order 1 != 2"


def test_conservation_names_a_failed_euler_test(monkeypatch):
    wrong = current_minimal("C2", 1, 0).characteristic
    monkeypatch.setattr(verify, "is_cl_characteristic",
                        lambda eta: eta != wrong and is_cl_characteristic(eta))
    result = verify.check_conservation()
    assert not result.passed
    assert result.detail == "C2[1,0]: characteristic fails the Euler test"


def test_generating_action_names_a_wrong_uniform_current(monkeypatch):
    def patched(op):
        if op == basis_op("Q", 0, 1):
            op = op.scale(2)
        return current_Ctilde(op)
    monkeypatch.setattr(verify, "current_Ctilde", patched)
    result = verify.check_generating_action()
    assert not result.passed
    assert result.detail == "Ctilde action mismatch for Q[0,1]"


def test_generating_action_names_a_wrong_barred_current(monkeypatch):
    monkeypatch.setattr(verify, "current_C0",
                        lambda barred=False: current_C0())
    result = verify.check_generating_action()
    assert not result.passed
    assert result.detail == ("superposition action does not give the "
                             "barred current")


def test_counting_checks_order_two_below_it():
    # The check owns its lower bound: max_order 0 or 1 still counts n = 2.
    for max_order in (0, 1):
        result = verify.check_counting(max_order=max_order)
        assert result.passed and result.detail == "n=2: 7"


def test_counting_names_a_missing_member(monkeypatch):
    monkeypatch.setattr(verify, "minimal_family_members",
                        lambda n: minimal_family_members(n)[1:])
    result = verify.check_counting(max_order=2)
    assert not result.passed
    assert result.detail == "count(2)=6!=7; rank(2)=6!=7"


@pytest.mark.parametrize("name, parse, wrong, detail", [
    ("parse_operator", parse_operator, "Dx", "operator #0: 0"),
    ("parse_jet", parse_jet, "u[0]", "jet #0: 1/2*y^2*f[3] - 1/2*x*u[0]")])
def test_parser_round_trip_names_the_first_mismatch(monkeypatch, name, parse,
                                                    wrong, detail):
    # The first of the 1000 seeded values of the kind parses to wrong.
    calls = []

    def patched(text):
        calls.append(text)
        return parse(wrong if len(calls) == 1 else text)
    monkeypatch.setattr(verify, name, patched)
    result = verify.check_parser_round_trip()
    assert not result.passed
    assert result.detail == detail


def test_run_all_solves_once_and_builds_each_current_once(monkeypatch):
    assembled, built = [], []
    assemble = DeterminingSystem.assemble

    def counted_assemble(order, degree):
        assembled.append((order, degree))
        return assemble(order, degree)

    def counted_minimal(family, kp, lp):
        built.append((family, kp, lp))
        return current_minimal(family, kp, lp)
    monkeypatch.setattr(DeterminingSystem, "assemble",
                        staticmethod(counted_assemble))
    monkeypatch.setattr(verify, "current_minimal", counted_minimal)
    verify.run_all(5)
    assert assembled == [(5, 8)]
    # 55 minimal currents, each built once, and the generating action's own
    # C2[0,0]
    assert len(set(built)) == 55
    assert len(built) == 56
    assert built.count(("C2", 0, 0)) == 2
    # The shared currents live for one run_all call only.
    built.clear()
    verify.check_counting(max_order=2)
    assert len(built) == 7


def test_run_all_share_protocol(monkeypatch):
    # Conservation leaves each minimal current it builds in the table;
    # counting, the one check that reads them, takes out those of its own
    # orders and reads the very objects conservation built. The generating
    # action builds its own C2[0,0] and never touches the table.
    members = {n: minimal_family_members(n) for n in range(1, 5)}
    table = {}
    assert verify.check_conservation(_table=table).passed
    assert list(table) == [m for n in range(1, 5) for m in members[n]]
    assert len(table) == 36
    built = dict(table)
    generated = []

    def counted(*member):
        generated.append(member)
        return current_minimal(*member)
    monkeypatch.setattr(verify, "current_minimal", counted)
    assert verify.check_generating_action().passed
    assert generated == [("C2", 0, 0)]
    assert list(table) == list(built)
    assert all(table[m] is built[m] for m in built)

    def rebuilt(*member):
        raise AssertionError(f"{member} built twice")
    ranked = []

    def recorded_rank(characteristics):
        ranked.append(characteristics)
        return len(characteristics)
    monkeypatch.setattr(verify, "current_minimal", rebuilt)
    monkeypatch.setattr(verify, "independence_rank", recorded_rank)
    assert verify.check_counting(max_order=3, _table=table).passed
    assert list(table) == [m for n in (1, 4) for m in members[n]]
    assert len(table) == 18
    assert len(ranked) == 2
    for n, characteristics in zip((2, 3), ranked):
        assert len(characteristics) == len(members[n])
        for eta, member in zip(characteristics, members[n]):
            assert eta is built[member].characteristic


def test_run_all_builds_each_uniform_current_once(monkeypatch):
    built = []

    def counted_Ctilde(op):
        built.append(op)
        return current_Ctilde(op)
    monkeypatch.setattr(verify, "current_Ctilde", counted_Ctilde)
    results = verify.run_all(2)
    by_name = {r.name: r for r in results}
    assert by_name["conservation"].detail == "59 currents verified"
    assert by_name["generating conservation law"].passed
    built.clear()
    assert verify.check_generating_action().passed
    assert len(built) == 10


def test_centrality_checks_each_basis_word_once(monkeypatch):
    seen = []

    def recording(kind, k, l):
        op = basis_op(kind, k, l)
        seen.append(op)
        return op
    monkeypatch.setattr(verify, "basis_op", recording)
    result = verify.check_centrality()
    assert result.passed
    assert result.detail == "49 words checked"
    assert len(seen) == len(set(seen)) == 49


def test_check_result_record_contract():
    result = verify.CheckResult(name="a", passed=True, detail="b")
    assert result == verify.CheckResult("a", True, "b")
    assert hash(result) == hash(verify.CheckResult("a", True, "b"))
    assert result != verify.CheckResult("a", False, "b")
    assert repr(result) == "CheckResult(name='a', passed=True, detail='b')"
    assert verify.CheckResult(**{"name": "a", "passed": False,
                                 "detail": "b"}).line() == "FAIL  a: b"
    for name in ("name", "passed", "detail"):
        with pytest.raises(AttributeError):
            setattr(result, name, None)
    assert result.line() == "PASS  a: b"


def test_check_result_fields_cannot_be_deleted():
    result = verify.CheckResult("a", True, "b")
    for name in ("name", "passed", "detail"):
        with pytest.raises(AttributeError) as excinfo:
            delattr(result, name)
        assert str(excinfo.value) == f"cannot delete field {name!r}"
    assert result == verify.CheckResult("a", True, "b")


# sha256 of the printed forms, one a line, of the 1000 jets the parser round
# trip parses; recorded before random_reduced_jet took its fields from
# kgsym.jet.FIELDS, so the check's inputs are provably the same.
ROUND_TRIP_JETS = (
    "9ff451666897a5ffdbe5553c83ad5ba0571060981f4e9bea8d11d483be22fada")


def test_parser_round_trip_jets_are_pinned(monkeypatch):
    seen = []

    def recording(text):
        seen.append(text)
        return parse_jet(text)
    monkeypatch.setattr(verify, "parse_jet", recording)
    assert verify.check_parser_round_trip().passed
    assert len(seen) == 1000
    digest = hashlib.sha256("\n".join(seen).encode()).hexdigest()
    assert digest == ROUND_TRIP_JETS


@pytest.mark.parametrize("a, b", [(0, 0), (5, 5), (-9, 9), (1, 9), (0, 1),
                                  (-4, -1), (0, 2), (-3, 4), (0, 1000),
                                  (-(2 ** 70), 2 ** 70)])
def test_randint_draws_the_stdlib_stream(a, b):
    # The same values as random.Random.randint, and the same state after,
    # so every later draw of a seed is unchanged; width 1 uses draws too.
    for seed in (0, 1, 51, verify.ROUND_TRIP_SEED):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert ([verify._randint(ours, a, b) for _ in range(200)]
                == [theirs.randint(a, b) for _ in range(200)])
        assert ours.getstate() == theirs.getstate()


def test_randint_rejects_an_empty_range():
    for a, b in ((1, 0), (0, -5)):
        with pytest.raises(ValueError):
            verify._randint(random.Random(1), a, b)


# The four random_* helpers as they drew before verify._randint, through
# random.Random.randint and random.Random.choice.

def _reference_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _reference_xypoly(rng, max_degree=2, max_terms=3, allow_zero=True):
    terms = {}
    for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
        i = rng.randint(0, max_degree)
        j = rng.randint(0, max_degree - i)
        terms[(i, j)] = _reference_rational(rng)
    poly = XYPoly(terms)
    if not allow_zero and poly.is_zero():
        return XYPoly.one()
    return poly


def _reference_operator(rng, max_order=3, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        p = rng.randint(0, max_order)
        q = rng.randint(0, max_order - p)
        terms[(p, q)] = _reference_xypoly(rng, max_degree=2, allow_zero=False)
    return TDOperator(terms)


def _reference_jet(rng, max_order=4, max_degree=2, max_terms=4,
                   fields=FIELDS):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(sorted((rng.choice(fields),
                             rng.randint(-max_order, max_order))
                            for _ in range(rng.randint(0, max_degree))))
        terms[mono] = _reference_xypoly(rng, max_degree=2, allow_zero=False)
    return ReducedJetPoly(terms)


@pytest.mark.parametrize("seed", [verify.ROUND_TRIP_SEED, 51])
@pytest.mark.parametrize("draw, reference", [
    (verify.random_rational, _reference_rational),
    (verify.random_xypoly, _reference_xypoly),
    (lambda rng: verify.random_xypoly(rng, allow_zero=False),
     lambda rng: _reference_xypoly(rng, allow_zero=False)),
    (verify.random_operator, _reference_operator),
    (verify.random_reduced_jet, _reference_jet),
    (lambda rng: verify.random_reduced_jet(rng, fields=("u",)),
     lambda rng: _reference_jet(rng, fields=("u",))),
], ids=["rational", "xypoly", "xypoly_nonzero", "operator", "jet",
        "jet_one_field"])
def test_random_helpers_draw_the_reference_stream(seed, draw, reference):
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(300):
        value, expected = draw(ours), reference(theirs)
        assert value == expected and repr(value) == repr(expected)
    assert ours.getstate() == theirs.getstate()
