"""One-shot verification suite: every headline identity, dimension count and
conservation check, runnable from the CLI and mirrored by the test suite.

Each check is a pure function returning a CheckResult; running the whole
suite twice produces identical results.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .arith import XYPoly, grouped
from .jet import FIELDS, ReducedJetPoly, apply_operator_reduced, reduced_J
from .noether import (current_C0, current_Ctilde, current_minimal,
                      is_cl_characteristic, is_variational_linear,
                      lift_linear_characteristic, minimal_family_members,
                      symmetry_action_on_current)
from .opalg import (TDOperator, basis_op, basis_shapes, commutator,
                    kg_operator)
from .parser import parse_jet, parse_operator
from .record import Record
from .symmetry import (chain_dimensions, chain_rows, independence_rank,
                       reduced_bracket, solve_linear_determining)

ROUND_TRIP_SEED = 20260811


class CheckResult(Record):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str):
        self._init(name, passed, detail)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: {self.detail}"


def _checked(name: str, failures, summary: str) -> CheckResult:
    """The result of a check: passed when failures is empty, with the
    failures as its detail, or else the summary."""
    return CheckResult(name, not failures,
                       "; ".join(failures) if failures else summary)


def basis_words(orders, max_index=None):
    """(label, order, operator) of each basis word kind[k,l] of the orders,
    in basis_shapes order; with max_index, only those of k, l <= max_index."""
    return [(f"{kind}[{k},{l}]", t, basis_op(kind, k, l))
            for t in orders for kind, k, l in basis_shapes(t)
            if max_index is None or max(k, l) <= max_index]


def _word_images(max_order: int):
    """The reduced images of the basis words of order <= max_order; the
    (n + 1)^2 of order <= n come first."""
    return [apply_operator_reduced(op)
            for _, _, op in basis_words(range(max_order + 1))]


def check_dimension_tables(max_order: int = 5) -> CheckResult:
    """Graded dimension 2n+1 and cumulative dimension (n+1)^2, with a degree
    saturation re-check one step above the default bound, and the solved
    basis spanning what the basis words of order <= n do: the solved
    elements, the words' images and both together have rank (n+1)^2. On
    characteristics linear in u, independence_rank is the rank of their
    terms. All is read off the one solve (max_order, max_order + 3)."""
    failures = []
    rows = chain_rows(solve_linear_determining(max_order, max_order + 3))
    elements = [grouped(ReducedJetPoly, row) for _, row in rows]
    words = _word_images(max_order)
    summary = []
    for n, (graded, cumulative, saturated) in enumerate(
            chain_dimensions(rows, max_order)):
        summary.append(f"n={n}: {graded}/{cumulative}")
        size = (n + 1) ** 2
        if graded != 2 * n + 1:
            failures.append(f"graded({n})={graded}!={2 * n + 1}")
        if cumulative != size:
            failures.append(f"cumulative({n})={cumulative}!={size}")
        if saturated != cumulative:
            failures.append(f"saturation({n}): {saturated}!={cumulative}")
        solved = elements[:cumulative]
        images = words[:size]
        for label, etas in (("solved", solved), ("words", images),
                            ("union", [*solved, *images])):
            r = independence_rank(etas)
            if r != size:
                failures.append(f"{label} rank({n})={r}!={size}")
    return _checked("dimension tables", failures, ", ".join(summary))


def check_adjoint_parity() -> CheckResult:
    """adjoint(basis_op) = (-1)^(k+l) basis_op for k, l <= 4."""
    words = basis_words(range(9), max_index=4)
    failures = [label for label, t, op in words
                if op.adjoint() != op.scale((-1) ** t)]
    return _checked("adjoint parity", failures,
                    f"{len(words)} operators checked")


def check_centrality() -> CheckResult:
    """The equation operator commutes with every basis word of k + l <= 6."""
    kg = kg_operator()
    words = basis_words(range(7))
    failures = [label for label, _, op in words
                if commutator(kg, op)]
    return _checked("centrality of the equation operator", failures,
                    f"{len(words)} words checked")


def check_structure_constants() -> CheckResult:
    """Reduced brackets of the essential characteristics reproduce the
    commutation relations [e1,e2]=0, [e1,e3]=e1, [e2,e3]=-e2 with e0 central."""
    u0 = ReducedJetPoly.var("u", 0)
    e0, e1, e2 = u0, -ReducedJetPoly.var("u", 1), -ReducedJetPoly.var("u", -1)
    e3 = -reduced_J(u0)
    failures = []
    if reduced_bracket(e1, e2):
        failures.append("[e1,e2]!=0")
    if reduced_bracket(e1, e3) != e1:
        failures.append("[e1,e3]!=e1")
    if reduced_bracket(e2, e3) != -e2:
        failures.append("[e2,e3]!=-e2")
    for i, e in enumerate((e1, e2, e3), start=1):
        if reduced_bracket(e0, e):
            failures.append(f"[e0,e{i}]!=0")
    return _checked("structure constants", failures, "all relations hold")


def check_variational_parity() -> CheckResult:
    """Linear basis operators of k + l <= 7 are variational exactly when
    k + l is odd."""
    words = basis_words(range(8))
    failures = [label for label, t, op in words
                if is_variational_linear(op) != (t % 2 == 1)]
    return _checked("variational parity", failures,
                    f"{len(words)} operators checked")


def check_reduced_lift_remark() -> CheckResult:
    """The cubic dilation word versus its on-shell reduction, re-lifted.

    Asserts: J^3 satisfies the variational criterion; the operator re-lifted
    from the reduced characteristic fails it; and the difference is exactly
    3xy J (Dx Dy - 1) applied on the lift.
    """
    failures = []
    j3 = basis_op("Q", 3, 0)
    if not is_variational_linear(j3):
        failures.append("J^3 fails the variational criterion")
    u0 = ReducedJetPoly.var("u", 0)
    eta = reduced_J(reduced_J(reduced_J(u0)))
    lifted = lift_linear_characteristic(eta)
    if is_variational_linear(lifted):
        failures.append("re-lifted reduced characteristic passes the "
                        "variational criterion (expected to fail)")
    xy = TDOperator({(0, 0): XYPoly.variable("x") * XYPoly.variable("y")})
    expected_difference = xy.compose(TDOperator.j()).compose(kg_operator()).scale(3)
    if lifted - j3 != expected_difference:
        failures.append("difference is not 3xy*J*(DxDy - 1)")
    return _checked("reduced-lift counterexample", failures,
                    "all three assertions hold")


def check_conservation(*, _table=None) -> CheckResult:
    """Every constructed current has the stated order and its single-field
    characteristic passes the Euler test. ConservedCurrent itself checks the
    on-shell divergence and the components' order, so Ctilde, whose order is
    read off its components, has no order to compare here. It leaves each
    minimal current of orders 2 to 4 in run_all's table for check_counting."""
    def constructed():
        yield "C0", current_C0(), 1
        yield "C0bar", current_C0(barred=True), 1
        for label, _, op in basis_words(range(1, 6, 2)):
            yield f"Ctilde({label})", current_Ctilde(op), None
        for n in range(1, 5):
            for family, kp, lp in minimal_family_members(n):
                current = current_minimal(family, kp, lp)
                if _table is not None and n > 1:
                    _table[family, kp, lp] = current
                yield f"{family}[{kp},{lp}]", current, n

    failures = []
    count = 0
    for count, (label, current, order) in enumerate(constructed(), 1):
        if order is not None and current.order != order:
            failures.append(f"{label}: order {current.order} != {order}")
        if (current.family != "C0"
                and not is_cl_characteristic(current.characteristic)):
            failures.append(f"{label}: characteristic fails the Euler test")
    return _checked("conservation", failures, f"{count} currents verified")


def check_generating_action() -> CheckResult:
    """Acting on the generating current (-u^2, u_x^2) reproduces the uniform
    currents of the skew basis operators with k + l <= 3 and the barred
    superposition current componentwise."""
    def expected():
        for label, _, op in basis_words((1, 3)):
            yield (f"Ctilde action mismatch for {label}",
                   apply_operator_reduced(op).total_derivative("y"),
                   current_Ctilde(op))
        yield ("superposition action does not give the barred current",
               ReducedJetPoly.var("f", -1), current_C0(barred=True))

    generating = current_minimal("C2", 0, 0)
    failures = []
    for failure, eta, current in expected():
        candidate = symmetry_action_on_current(eta * Fraction(1, 2),
                                               generating)
        if not (candidate.t == current.t and candidate.x == current.x
                and candidate.is_conserved):
            failures.append(failure)
    return _checked("generating conservation law", failures,
                    "componentwise identities hold")


def check_counting(max_order: int = 5, *, _table=None) -> CheckResult:
    """For n from 2 to max(max_order, 2): 4n - 1 verified minimal currents of
    order n, with characteristics independent on the exponential family.
    Each current is taken out of run_all's table if check_conservation left
    it there, else built, so none is held longer than this check reads it."""
    shared = _table or {}
    failures = []
    counts = []
    for n in range(2, max(max_order, 2) + 1):
        characteristics = [
            (shared.pop(member) if member in shared
             else current_minimal(*member)).characteristic
            for member in minimal_family_members(n)]
        count = len(characteristics)
        counts.append(f"n={n}: {count}")
        if count != 4 * n - 1:
            failures.append(f"count({n})={count}!={4 * n - 1}")
        r = independence_rank(characteristics)
        if r != 4 * n - 1:
            failures.append(f"rank({n})={r}!={4 * n - 1}")
    return _checked("conservation-law counting", failures, ", ".join(counts))


def check_independence(max_order: int = 5) -> CheckResult:
    """The 2n+1 basis-word characteristics of each order n admit no
    nontrivial combination vanishing on the exponential solution family."""
    failures = []
    words = _word_images(max_order)
    for n in range(max_order + 1):
        r = independence_rank(words[n * n:(n + 1) ** 2])
        if r != 2 * n + 1:
            failures.append(f"rank({n})={r}!={2 * n + 1}")
    return _checked("independence on the solution family", failures,
                    f"full rank up to order {max_order}")


def _randint(rng, a, b) -> int:
    """rng.randint(a, b) from the same draws: the standard library's own
    rejection loop over getrandbits, without its checks and calls."""
    n = b - a + 1
    if n <= 0:
        raise ValueError(f"empty range [{a}, {b}]")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return a + r


def random_rational(rng) -> Fraction:
    return Fraction(_randint(rng, -9, 9), _randint(rng, 1, 9))


def random_xypoly(rng, max_degree=2, max_terms=3, allow_zero=True) -> XYPoly:
    terms = {}
    for _ in range(_randint(rng, 0 if allow_zero else 1, max_terms)):
        i = _randint(rng, 0, max_degree)
        j = _randint(rng, 0, max_degree - i)
        terms[(i, j)] = random_rational(rng)
    poly = XYPoly(terms)
    if not allow_zero and not poly:
        return XYPoly.one()
    return poly


def random_operator(rng, max_order=3, max_terms=4) -> TDOperator:
    terms = {}
    for _ in range(_randint(rng, 0, max_terms)):
        p = _randint(rng, 0, max_order)
        q = _randint(rng, 0, max_order - p)
        terms[(p, q)] = random_xypoly(rng, max_degree=2, allow_zero=False)
    return TDOperator(terms)


def random_reduced_jet(rng, max_order=4, max_degree=2, max_terms=4,
                       fields=FIELDS) -> ReducedJetPoly:
    terms = {}
    for _ in range(_randint(rng, 0, max_terms)):
        mono = tuple(sorted((fields[_randint(rng, 0, len(fields) - 1)],
                             _randint(rng, -max_order, max_order))
                            for _ in range(_randint(rng, 0, max_degree))))
        terms[mono] = random_xypoly(rng, max_degree=2, allow_zero=False)
    return ReducedJetPoly(terms)


def check_parser_round_trip() -> CheckResult:
    """print-then-parse is the identity on 1000 random operators and 1000
    random jet polynomials."""
    rng = random.Random(ROUND_TRIP_SEED)
    failures = []
    for i in range(1000):
        op = random_operator(rng)
        if parse_operator(str(op)) != op:
            failures.append(f"operator #{i}: {op}")
    for i in range(1000):
        p = random_reduced_jet(rng)
        if parse_jet(str(p)) != p:
            failures.append(f"jet #{i}: {p}")
    return _checked("parser round trip", failures[:5], "2000 round trips")


def run_all(max_order: int = 5):
    """Run the full verification suite in its fixed order. Conservation
    and counting build each of their minimal currents once, and share them
    through a table that lives for this call only."""
    table = {}
    return [
        check_dimension_tables(max_order),
        check_adjoint_parity(),
        check_centrality(),
        check_structure_constants(),
        check_variational_parity(),
        check_reduced_lift_remark(),
        check_conservation(_table=table),
        check_generating_action(),
        check_counting(max_order, _table=table),
        check_independence(max_order),
        check_parser_round_trip(),
    ]
