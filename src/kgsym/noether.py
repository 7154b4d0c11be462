"""Variational-symmetry testing and conserved currents.

A conserved current is a pair (T, X) of jet polynomials whose on-shell
divergence Dx T + Dy X (jet.onshell_divergence) vanishes identically;
constructors verify that, and the recorded order, before returning anything.
The Euler-operator test on the free lift (jet.lift) certifies the
characteristics of conservation laws independently of any current; every
rule on jet monomials lives in kgsym.jet.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import common_denominator
from .jet import (ReducedJetPoly, apply_operator_free, apply_operator_reduced,
                  euler_operator, lift, onshell_divergence, prolonged_action,
                  squares)
from .opalg import (TDOperator, basis_op, kg_operator, monomial_op,
                    skew_self_split)
from .record import Record

MINIMAL_FAMILIES = ("C1", "C1bar", "C2", "C2bar")
CURRENT_FAMILIES = ("C0", "Ctilde", *MINIMAL_FAMILIES)


def _integer_multiple(value):
    """value, a TDOperator or jet polynomial, times the common denominator
    of its coefficients: a nonzero multiple with integer coefficients, on
    which a test whose answer no nonzero constant factor changes runs
    without Fraction arithmetic."""
    den = common_denominator(value.terms.values())
    return value if den == 1 else value * den


def is_variational_linear(a: TDOperator) -> bool:
    """True iff adjoint(a) o L + adjoint(L) o a is the zero operator, where
    L = Dx*Dy - 1 is the equation operator; L is formally self-adjoint, so
    the second product is L o a. The answer is the same for every nonzero
    multiple of a, so the test runs on the integer one."""
    a = _integer_multiple(a)
    kg = kg_operator()
    return not (a.adjoint().compose(kg) + kg.compose(a))


def _component_order(t: ReducedJetPoly, x: ReducedJetPoly) -> int:
    """Max of the component orders (each 0 when coefficient-only)."""
    return max(t.order(), x.order())


class ConservedCurrent(Record):
    """A verified conserved current (T, X), its order and characteristic.

    T and X are the reduced (on-shell) components."""
    __slots__ = ("family", "t", "x", "order", "characteristic")

    def __init__(self, family: str, t: ReducedJetPoly, x: ReducedJetPoly,
                 order: int, characteristic: ReducedJetPoly):
        if family not in CURRENT_FAMILIES:
            raise ValueError(f"unknown current family {family!r}")
        div = onshell_divergence(t, x)
        if div:
            raise ValueError(f"current is not conserved on shell; "
                             f"divergence = {div}")
        actual = _component_order(t, x)
        if actual != order:
            raise ValueError(f"declared order {order} but components "
                             f"have order {actual}")
        self._init(family, t, x, order, characteristic)


def current_C0(barred: bool = False) -> ConservedCurrent:
    """First-order current attached to the superposition symmetry with a
    symbolic solution f: (f u_y, -f_x u), or the barred (-f_y u, f u_x)."""
    f0, u0 = ReducedJetPoly.var("f", 0), ReducedJetPoly.var("u", 0)
    if barred:
        t = -ReducedJetPoly.var("f", -1) * u0
        x = f0 * ReducedJetPoly.var("u", 1)
    else:
        t = f0 * ReducedJetPoly.var("u", -1)
        x = -ReducedJetPoly.var("f", 1) * u0
    return ConservedCurrent(family="C0", t=t, x=x, order=1, characteristic=f0)


def current_Ctilde(a: TDOperator) -> ConservedCurrent:
    """Uniform current (-u Dy Q u, u_x Q u) for a skew-adjoint operator Q;
    its characteristic is 2 Q u. Skewness, Q + adjoint(Q) = 0, is tested on
    the integer multiple of Q."""
    scaled = _integer_multiple(a)
    if scaled + scaled.adjoint():
        raise ValueError(f"operator is not skew-adjoint; self-adjoint part "
                         f"is {skew_self_split(a)[1]}")
    au = apply_operator_reduced(a)
    t = -ReducedJetPoly.var("u", 0) * au.total_derivative("y")
    x = ReducedJetPoly.var("u", 1) * au
    return ConservedCurrent(family="Ctilde", t=t, x=x,
                            order=_component_order(t, x),
                            characteristic=au * 2)


def current_minimal(family: str, kp: int, lp: int) -> ConservedCurrent:
    """Minimal-order current of the stated family with word orders kp, lp.

    The resulting order is kp + lp + 1, asserted before returning. Family C1
    needs lp >= 1. Built on the reduced jet: reduce, a ring morphism
    commuting with Dx and Dy, would give the same from the free jet. The
    characteristic is the exact cofactor of u_xy - u in Dx T + Dy X: the
    image of the family's basis word times 2(-1)^(kp+lp), negated for
    C1bar."""
    if kp < 0 or lp < 0:
        raise ValueError("orders must be nonnegative")
    half = Fraction(1, 2)
    factor = 2 * (-1) ** (kp + lp + (family == "C1bar"))
    if family in ("C1", "C1bar"):
        # C1 and C1bar share one quadratic form with opposite signs; their
        # characteristic words are Q[2kp+1, 2lp] and Qbar[2kp+1, 2lp], the
        # latter Q[2kp+1, 0] = J^(2kp+1) at lp = 0.
        if family == "C1" and lp < 1:
            raise ValueError("family C1 requires lp >= 1")
        # T = s (y (Dy base)^2 + x base^2), X = -s (x (Dx base)^2 + y base^2).
        side, s = ("X", -1) if family == "C1" else ("Y", 1)
        base = apply_operator_reduced(monomial_op(side, kp, lp))
        t = squares([(base.total_derivative("y"), 0, 1, s), (base, 1, 0, s)])
        x = squares([(base.total_derivative("x"), 1, 0, -s), (base, 0, 1, -s)])
        char_op = basis_op("Qbar" if family == "C1bar" and lp else "Q",
                           2 * kp + 1, 2 * lp)
    elif family in ("C2", "C2bar"):
        # C2bar mirrors C2 (other side and derivative, opposite shift, T and
        # X swapped); their characteristic words are Q/Qbar[2kp, 2lp+1].
        side, var, shift, kind = (("X", "x", -half, "Q") if family == "C2"
                                  else ("Y", "y", half, "Qbar"))
        base = apply_operator_reduced(monomial_op(side, kp, lp, shift))
        pair = (squares([(base, 0, 0, -1)]),
                squares([(base.total_derivative(var), 0, 0, 1)]))
        t, x = pair if family == "C2" else pair[::-1]
        char_op = basis_op(kind, 2 * kp, 2 * lp + 1)
    else:
        raise ValueError(f"unknown minimal-current family {family!r}")
    return ConservedCurrent(
        family=family, t=t, x=x, order=kp + lp + 1,
        characteristic=apply_operator_reduced(char_op) * factor)


def lift_linear_characteristic(eta: ReducedJetPoly) -> TDOperator:
    """Re-lift a characteristic linear in the jets of u to the operator whose
    coefficients of u_k become pure Dx^k (k >= 0) or Dy^(-k) powers."""
    lifted = lift(eta)
    if not eta.is_linear():
        raise ValueError("lift expects a characteristic linear in the jets")
    # Each monomial of the linear lift is one coordinate u_(a,b) = Dx^a Dy^b u.
    return TDOperator({var: c for (var,), c in lifted.terms.items()})


def is_cl_characteristic(eta: ReducedJetPoly) -> bool:
    """True iff eta times the equation expression is a total divergence,
    certified by the Euler operator annihilating the lifted product. The
    answer is the same for every nonzero multiple of eta, so the test runs
    on the integer one."""
    lifted = lift(_integer_multiple(eta))
    equation = apply_operator_free(kg_operator())
    return not euler_operator(lifted * equation)


class CurrentCandidate(Record):
    """Componentwise action of a symmetry on a current, with its divergence."""
    __slots__ = ("t", "x", "divergence")

    def __init__(self, t: ReducedJetPoly, x: ReducedJetPoly,
                 divergence: ReducedJetPoly):
        self._init(t, x, divergence)

    @property
    def is_conserved(self) -> bool:
        return not self.divergence


def symmetry_action_on_current(eta: ReducedJetPoly,
                               c: ConservedCurrent) -> CurrentCandidate:
    """Act with the evolutionary field of characteristic eta on both current
    components and report the divergence of the resulting pair."""
    t = prolonged_action(eta, c.t)
    x = prolonged_action(eta, c.x)
    return CurrentCandidate(t=t, x=x, divergence=onshell_divergence(t, x))


def minimal_family_members(n: int):
    """The (family, kp, lp) triples of order-n minimal currents, in
    (family, kp, lp) lexicographic order."""
    if n < 1:
        raise ValueError("enumeration is defined for order n >= 1")
    members = []
    for family in MINIMAL_FAMILIES:
        for kp in range(n):
            lp = n - 1 - kp
            if family == "C1" and lp < 1:
                continue
            members.append((family, kp, lp))
    return members


def count_order_n_currents(n: int) -> int:
    """Construct and verify every order-n minimal current; returns how many
    there are (the families give 4n - 1 of them)."""
    count = 0
    for family, kp, lp in minimal_family_members(n):
        current_minimal(family, kp, lp)
        count += 1
    return count

