"""One-shot verification suite: every headline identity, dimension count and
conservation check, runnable from the CLI and mirrored by the test suite.

Each check is a pure function returning a CheckResult; running the whole
suite twice produces identical results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .arith import XYPoly
from .jet import ReducedJetPoly, apply_operator_reduced, reduced_J
from .noether import (current_C0, current_Ctilde, current_minimal,
                      is_cl_characteristic, is_variational_linear,
                      lift_linear_characteristic, onshell_divergence,
                      symmetry_action_on_current)
from .opalg import TDOperator, basis_op, commutator, kg_operator, monomial_op
from .parser import parse_jet, parse_operator
from .symmetry import (dimension_table, independence_rank, reduced_bracket,
                       solve_linear_determining)

ROUND_TRIP_SEED = 20260811


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: {self.detail}"


def _checked(name: str, failures, summary: str) -> CheckResult:
    """The result of a check: passed when failures is empty, with the
    failures as its detail, or else the summary."""
    return CheckResult(name, not failures,
                       "; ".join(failures) if failures else summary)


def _basis_shapes(max_total: int):
    """(kind, k, l) of every basis operator with k + l <= max_total, by
    total order, then k, then Q before Qbar (which needs l >= 1)."""
    for total in range(max_total + 1):
        for k in range(total + 1):
            l = total - k
            yield "Q", k, l
            if l:
                yield "Qbar", k, l


def _skew_basis_ops(max_total: int):
    """All skew-adjoint basis operators with k + l <= max_total (odd k + l)."""
    return [(kind, k, l, basis_op(kind, k, l))
            for kind, k, l in _basis_shapes(max_total) if (k + l) % 2]


def check_dimension_tables(max_order: int = 5) -> CheckResult:
    """Graded dimension 2n+1 and cumulative dimension (n+1)^2, with a degree
    saturation re-check one step above the default bound."""
    failures = []
    rows = dimension_table(max_order)
    for n, graded, cumulative in rows:
        saturated = solve_linear_determining(n, n + 3).dim
        if graded != 2 * n + 1:
            failures.append(f"graded({n})={graded}!={2 * n + 1}")
        if cumulative != (n + 1) ** 2:
            failures.append(f"cumulative({n})={cumulative}!={(n + 1) ** 2}")
        if saturated != cumulative:
            failures.append(f"saturation({n}): {saturated}!={cumulative}")
    return _checked("dimension tables", failures,
                    ", ".join(f"n={n}: {g}/{c}" for n, g, c in rows))


def check_adjoint_parity(max_index: int = 4) -> CheckResult:
    """adjoint(basis_op) = (-1)^(k+l) basis_op for k, l up to max_index."""
    failures = []
    count = 0
    for k in range(max_index + 1):
        for l in range(max_index + 1):
            for kind in ("Q", "Qbar"):
                if kind == "Qbar" and l == 0:
                    continue
                op = basis_op(kind, k, l)
                sign = -1 if (k + l) % 2 else 1
                count += 1
                if op.adjoint() != op.scale(sign):
                    failures.append(f"{kind}[{k},{l}]")
    return _checked("adjoint parity", failures, f"{count} operators checked")


def check_centrality(max_total: int = 6) -> CheckResult:
    """The equation operator commutes with every recursion-operator word."""
    kg = kg_operator()
    failures = []
    count = 0
    for total in range(max_total + 1):
        for k in range(total + 1):
            l = total - k
            for side in ("X", "Y"):
                count += 1
                if not commutator(kg, monomial_op(side, k, l)).is_zero():
                    failures.append(f"{side}[{k},{l}]")
    return _checked("centrality of the equation operator", failures,
                    f"{count} words checked")


def check_structure_constants() -> CheckResult:
    """Reduced brackets of the essential characteristics reproduce the
    commutation relations [e1,e2]=0, [e1,e3]=e1, [e2,e3]=-e2 with e0 central."""
    u0 = ReducedJetPoly.var("u", 0)
    e0, e1, e2 = u0, -ReducedJetPoly.var("u", 1), -ReducedJetPoly.var("u", -1)
    e3 = -reduced_J(u0)
    failures = []
    if not reduced_bracket(e1, e2).is_zero():
        failures.append("[e1,e2]!=0")
    if reduced_bracket(e1, e3) != e1:
        failures.append("[e1,e3]!=e1")
    if reduced_bracket(e2, e3) != -e2:
        failures.append("[e2,e3]!=-e2")
    for i, e in enumerate((e1, e2, e3), start=1):
        if not reduced_bracket(e0, e).is_zero():
            failures.append(f"[e0,e{i}]!=0")
    return _checked("structure constants", failures, "all relations hold")


def check_variational_parity(max_total: int = 7) -> CheckResult:
    """Linear basis operators are variational exactly when k + l is odd."""
    failures = []
    count = 0
    for kind, k, l in _basis_shapes(max_total):
        count += 1
        if is_variational_linear(basis_op(kind, k, l)) != ((k + l) % 2 == 1):
            failures.append(f"{kind}[{k},{l}]")
    return _checked("variational parity", failures,
                    f"{count} operators checked")


def check_reduced_lift_remark() -> CheckResult:
    """The cubic dilation word versus its on-shell reduction, re-lifted.

    Asserts: J^3 satisfies the variational criterion; the operator re-lifted
    from the reduced characteristic fails it; and the difference is exactly
    3xy J (Dx Dy - 1) applied on the lift.
    """
    failures = []
    j3 = monomial_op("X", 3, 0)
    if not is_variational_linear(j3):
        failures.append("J^3 fails the variational criterion")
    u0 = ReducedJetPoly.var("u", 0)
    eta = reduced_J(reduced_J(reduced_J(u0)))
    lifted = lift_linear_characteristic(eta)
    if is_variational_linear(lifted):
        failures.append("re-lifted reduced characteristic passes the "
                        "variational criterion (expected to fail)")
    xy = TDOperator.mul_by(XYPoly.variable("x") * XYPoly.variable("y"))
    expected_difference = xy.compose(TDOperator.j()).compose(kg_operator()).scale(3)
    if lifted - j3 != expected_difference:
        failures.append("difference is not 3xy*J*(DxDy - 1)")
    return _checked("reduced-lift counterexample", failures,
                    "all three assertions hold")


def check_conservation() -> CheckResult:
    """Every constructed current has exactly zero on-shell divergence and the
    stated order; single-field characteristics pass the Euler test."""
    failures = []
    count = 0

    def recheck(label, current, expected_order, euler=True):
        nonlocal count
        count += 1
        div = onshell_divergence(current.t, current.x)
        if div:
            failures.append(f"{label}: divergence {div}")
        if current.order != expected_order:
            failures.append(f"{label}: order {current.order} != {expected_order}")
        if euler and not is_cl_characteristic(current.characteristic):
            failures.append(f"{label}: characteristic fails the Euler test")

    recheck("C0", current_C0(), 1, euler=False)
    recheck("C0bar", current_C0(barred=True), 1, euler=False)
    for kind, k, l, op in _skew_basis_ops(5):
        current = current_Ctilde(op)
        recheck(f"Ctilde({kind}[{k},{l}])", current, current.order)
    for total in range(4):
        for kp in range(total + 1):
            lp = total - kp
            for family in ("C1", "C1bar", "C2", "C2bar"):
                if family == "C1" and lp < 1:
                    continue
                recheck(f"{family}[{kp},{lp}]",
                        current_minimal(family, kp, lp), kp + lp + 1)
    return _checked("conservation", failures, f"{count} currents verified")


def check_generating_action(max_total: int = 3) -> CheckResult:
    """Acting on the generating current (-u^2, u_x^2) reproduces the uniform
    currents and the barred superposition current componentwise."""
    failures = []
    generating = current_minimal("C2", 0, 0)
    half = Fraction(1, 2)
    for kind, k, l, op in _skew_basis_ops(max_total):
        eta = apply_operator_reduced(op).total_derivative("y") * half
        candidate = symmetry_action_on_current(eta, generating)
        expected = current_Ctilde(op)
        if not (candidate.t == expected.t and candidate.x == expected.x
                and candidate.is_conserved):
            failures.append(f"Ctilde action mismatch for {kind}[{k},{l}]")
    eta_f = ReducedJetPoly.var("f", -1) * half
    candidate = symmetry_action_on_current(eta_f, generating)
    barred = current_C0(barred=True)
    if not (candidate.t == barred.t and candidate.x == barred.x
            and candidate.is_conserved):
        failures.append("superposition action does not give the barred current")
    return _checked("generating conservation law", failures,
                    "componentwise identities hold")


def check_counting(max_order: int = 5) -> CheckResult:
    """4n - 1 verified minimal currents of each order n from 2 on."""
    from .noether import count_order_n_currents
    failures = []
    counts = []
    for n in range(2, max_order + 1):
        count = count_order_n_currents(n)
        counts.append(f"n={n}: {count}")
        if count != 4 * n - 1:
            failures.append(f"count({n})={count}!={4 * n - 1}")
    return _checked("conservation-law counting", failures, ", ".join(counts))


def check_independence(max_order: int = 5) -> CheckResult:
    """The 2n+1 recursion-word characteristics admit no nontrivial
    combination vanishing on the exponential solution family."""
    failures = []
    for n in range(max_order + 1):
        chars = [apply_operator_reduced(monomial_op("X", n, 0))]
        for k in range(n):
            chars.append(apply_operator_reduced(monomial_op("X", k, n - k)))
            chars.append(apply_operator_reduced(monomial_op("Y", k, n - k)))
        r = independence_rank(chars)
        if r != 2 * n + 1:
            failures.append(f"rank({n})={r}!={2 * n + 1}")
    return _checked("independence on the solution family", failures,
                    f"full rank up to order {max_order}")


def random_rational(rng, allow_zero=True) -> Fraction:
    value = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    if not allow_zero:
        while not value:
            value = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return value


def random_xypoly(rng, max_degree=2, max_terms=3, allow_zero=True) -> XYPoly:
    terms = {}
    for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
        i = rng.randint(0, max_degree)
        j = rng.randint(0, max_degree - i)
        terms[(i, j)] = random_rational(rng)
    poly = XYPoly(terms)
    if not allow_zero and poly.is_zero():
        return XYPoly.one()
    return poly


def random_operator(rng, max_order=3, max_terms=4) -> TDOperator:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        p = rng.randint(0, max_order)
        q = rng.randint(0, max_order - p)
        terms[(p, q)] = random_xypoly(rng, max_degree=2, allow_zero=False)
    return TDOperator(terms)


def random_reduced_jet(rng, max_order=4, max_degree=2, max_terms=4,
                       fields=("u", "f")) -> ReducedJetPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = {}
        for _ in range(rng.randint(0, max_degree)):
            var = (rng.choice(fields), rng.randint(-max_order, max_order))
            exps[var] = exps.get(var, 0) + 1
        mono = tuple(sorted(exps.items()))
        terms[mono] = random_xypoly(rng, max_degree=2, allow_zero=False)
    return ReducedJetPoly(terms)


def check_parser_round_trip(count: int = 1000) -> CheckResult:
    """print-then-parse is the identity on random operators and jet polys."""
    rng = random.Random(ROUND_TRIP_SEED)
    failures = []
    for i in range(count):
        op = random_operator(rng)
        if parse_operator(str(op)) != op:
            failures.append(f"operator #{i}: {op}")
    for i in range(count):
        p = random_reduced_jet(rng)
        if parse_jet(str(p)) != p:
            failures.append(f"jet #{i}: {p}")
    return _checked("parser round trip", failures[:5],
                    f"{2 * count} round trips")


def run_all(max_order: int = 5):
    """Run the full verification suite in its fixed order."""
    return [
        check_dimension_tables(max_order),
        check_adjoint_parity(),
        check_centrality(),
        check_structure_constants(),
        check_variational_parity(),
        check_reduced_lift_remark(),
        check_conservation(),
        check_generating_action(),
        check_counting(max_order if max_order >= 2 else 2),
        check_independence(max_order),
        check_parser_round_trip(),
    ]
