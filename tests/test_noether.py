"""Tests for variational testing and the conserved-current constructors."""

from fractions import Fraction

import pytest

from kgsym.arith import XYPoly
from kgsym.jet import (FreeJetPoly, ReducedJetPoly, apply_operator_free,
                       apply_operator_reduced, euler_operator, reduce,
                       reduced_J)
from kgsym.noether import (ConservedCurrent, count_order_n_currents,
                           current_C0, current_Ctilde, current_minimal,
                           is_cl_characteristic, is_variational_linear,
                           lift_linear_characteristic, minimal_family_members,
                           onshell_divergence, symmetry_action_on_current)
from kgsym.opalg import TDOperator, basis_op, kg_operator, monomial_op
from kgsym.symmetry import independence_rank

X = XYPoly.variable("x")
Y = XYPoly.variable("y")


def u(k):
    return ReducedJetPoly.var("u", k)


def f(k):
    return ReducedJetPoly.var("f", k)


def skew_basis_ops(max_total):
    ops = []
    for total in range(1, max_total + 1, 2):
        for k in range(total + 1):
            l = total - k
            ops.append(basis_op("Q", k, l))
            if l >= 1:
                ops.append(basis_op("Qbar", k, l))
    return ops


def test_variational_examples():
    assert is_variational_linear(TDOperator.dx())
    assert not is_variational_linear(TDOperator.identity())
    assert is_variational_linear(basis_op("Q", 3, 0))


def test_variational_parity_theorem():
    for k in range(5):
        for l in range(5):
            expected = (k + l) % 2 == 1
            assert is_variational_linear(basis_op("Q", k, l)) == expected
            if l >= 1:
                assert is_variational_linear(basis_op("Qbar", k, l)) == expected


def test_reduced_lift_of_cubic_dilation():
    # The re-lift of the reduced characteristic differs from the dilation
    # cube by exactly 3xy*J*(DxDy - 1).
    eta = reduced_J(reduced_J(reduced_J(u(0))))
    lifted = lift_linear_characteristic(eta)
    j3 = monomial_op("X", 3, 0)
    difference = TDOperator.mul_by(X * Y).compose(
        TDOperator.j()).compose(kg_operator()).scale(3)
    assert lifted - j3 == difference
    assert lifted != j3
    # Exact evaluation of the criterion: the remainder operator 3xy*J o L
    # satisfies Q+L + LQ = 0, so the re-lift passes the criterion as well.
    # (The on-shell-zero characteristic it adds is itself a total-divergence
    # multiplier of the equation expression.)
    assert is_variational_linear(difference)
    assert is_variational_linear(lifted)
    # Independent certificate through the Euler operator on the free jet.
    assert is_cl_characteristic(eta)
    # The re-lift is neither skew-adjoint nor commuting with the equation
    # operator, unlike every basis operator.
    assert lifted.adjoint() != -lifted
    assert not (kg_operator().compose(lifted)
                - lifted.compose(kg_operator())).is_zero()


def test_reduced_lift_divergence_witness():
    # The README's second route to the criterion_06 discrepancy: the
    # on-shell-zero characteristic 3xy J F times the equation expression F
    # is the exact divergence Dx(3/2 x^2 y F^2) - Dy(3/2 x y^2 F^2).
    F = FreeJetPoly.var(1, 1) - FreeJetPoly.var(0, 0)
    JF = F.total_derivative("x") * X - F.total_derivative("y") * Y
    product = JF * F * (3 * X * Y)
    half3 = Fraction(3, 2)
    divergence = ((F * F * (half3 * X * X * Y)).total_derivative("x")
                  - (F * F * (half3 * X * Y * Y)).total_derivative("y"))
    assert product == divergence
    assert euler_operator(product).is_zero()



def test_lift_rejects_nonlinear_input():
    with pytest.raises(ValueError):
        lift_linear_characteristic(u(0) * u(0))
    with pytest.raises(ValueError):
        lift_linear_characteristic(f(0))


def test_current_C0():
    c = current_C0()
    assert c.t == f(0) * u(-1)
    assert c.x == -f(1) * u(0)
    assert c.order == 1
    assert onshell_divergence(c.t, c.x).is_zero()


def test_current_C0_barred():
    c = current_C0(barred=True)
    assert c.t == -f(-1) * u(0)
    assert c.x == f(0) * u(1)
    assert onshell_divergence(c.t, c.x).is_zero()


def test_current_Ctilde_translation():
    c = current_Ctilde(TDOperator.dx())
    assert c.t == -u(0) * u(0)
    assert c.x == u(1) * u(1)
    assert c.order == 1
    assert c.characteristic == u(1) * 2


def test_current_Ctilde_dilation_order():
    c = current_Ctilde(TDOperator.j())
    assert c.order == 2
    assert onshell_divergence(c.t, c.x).is_zero()


def test_current_Ctilde_rejects_self_adjoint():
    with pytest.raises(ValueError) as excinfo:
        current_Ctilde(TDOperator.identity())
    assert "self-adjoint part" in str(excinfo.value)


def test_current_minimal_examples():
    c = current_minimal("C2", 0, 0)
    assert (c.t, c.x) == (-u(0) * u(0), u(1) * u(1))
    assert c.order == 1
    c = current_minimal("C2bar", 0, 0)
    assert (c.t, c.x) == (u(-1) * u(-1), -u(0) * u(0))
    c = current_minimal("C1bar", 0, 0)
    assert c.t == u(-1) * u(-1) * Y + u(0) * u(0) * X
    assert c.x == -u(1) * u(1) * X - u(0) * u(0) * Y
    assert c.order == 1


def test_current_minimal_rejects_C1_without_derivative():
    with pytest.raises(ValueError):
        current_minimal("C1", 1, 0)


def test_current_minimal_orders():
    for total in range(4):
        for kp in range(total + 1):
            lp = total - kp
            for family in ("C1", "C1bar", "C2", "C2bar"):
                if family == "C1" and lp < 1:
                    continue
                c = current_minimal(family, kp, lp)
                assert c.order == kp + lp + 1, (family, kp, lp)


def test_ctilde_order_never_below_minimal():
    # the uniform current sits at or above the minimal order (k + l + 1) / 2,
    # strictly above it for operators of order >= 2.
    assert current_Ctilde(TDOperator.dx()).order == 1
    for total in (1, 3, 5):
        minimal = (total + 1) // 2
        for k in range(total + 1):
            l = total - k
            ops = [basis_op("Q", k, l)]
            if l >= 1:
                ops.append(basis_op("Qbar", k, l))
            for op in ops:
                order = current_Ctilde(op).order
                assert order >= minimal, (k, l)
                if total >= 2:
                    assert order > minimal, (k, l)


def test_is_cl_characteristic_examples():
    assert is_cl_characteristic(u(1) * 2)
    assert not is_cl_characteristic(u(0))


def test_skew_characteristics_pass_euler_test():
    for op in skew_basis_ops(5):
        assert is_cl_characteristic(apply_operator_reduced(op) * 2)


def test_conserved_current_constructor_rejects_bad_pairs():
    with pytest.raises(ValueError):
        ConservedCurrent(family="GEN", t=u(0), x=u(0), order=0)
    with pytest.raises(ValueError):
        ConservedCurrent(family="C2", t=-u(0) * u(0), x=u(1) * u(1), order=2)
    with pytest.raises(ValueError):
        ConservedCurrent(family="bogus", t=-u(0) * u(0), x=u(1) * u(1), order=1)


def test_symmetry_action_reproduces_uniform_currents():
    generating = current_minimal("C2", 0, 0)
    half = Fraction(1, 2)
    for op in skew_basis_ops(3):
        eta = apply_operator_reduced(op).total_derivative("y") * half
        candidate = symmetry_action_on_current(eta, generating)
        expected = current_Ctilde(op)
        assert candidate.t == expected.t
        assert candidate.x == expected.x
        assert candidate.is_conserved


def test_symmetry_action_reproduces_barred_superposition_current():
    generating = current_minimal("C2", 0, 0)
    eta = f(-1) * Fraction(1, 2)
    candidate = symmetry_action_on_current(eta, generating)
    barred = current_C0(barred=True)
    assert candidate.t == barred.t
    assert candidate.x == barred.x
    assert candidate.is_conserved


def test_symmetry_action_of_zero():
    generating = current_minimal("C2", 0, 0)
    candidate = symmetry_action_on_current(ReducedJetPoly.zero(), generating)
    assert candidate.t.is_zero() and candidate.x.is_zero()
    assert candidate.is_conserved


def test_family_enumeration():
    assert minimal_family_members(2) == [
        ("C1", 0, 1), ("C1bar", 0, 1), ("C1bar", 1, 0),
        ("C2", 0, 1), ("C2", 1, 0), ("C2bar", 0, 1), ("C2bar", 1, 0)]
    assert minimal_family_members(1) == [
        ("C1bar", 0, 0), ("C2", 0, 0), ("C2bar", 0, 0)]
    with pytest.raises(ValueError):
        minimal_family_members(0)


@pytest.mark.parametrize("n", range(2, 6))
def test_count_order_n_currents(n):
    assert count_order_n_currents(n) == 4 * n - 1


def test_first_order_span_independent():
    chars = [current_minimal(family, 0, 0).characteristic
             for family in ("C1bar", "C2", "C2bar")]
    assert independence_rank(chars) == 3
    twice = current_minimal("C2", 0, 0).characteristic
    assert independence_rank([twice, twice]) == 1


def _free_route_minimal(family, kp, lp):
    """(T, X, characteristic) of a minimal current built on the free jet
    and reduced at the end."""
    if family in ("C1", "C1bar"):
        side, sign = ("X", -1) if family == "C1" else ("Y", 1)
        base = apply_operator_free(monomial_op(side, kp, lp))
        dx = base.total_derivative("x")
        dy = base.total_derivative("y")
        square = base * base
        t = ((dy * dy) * Y + square * X) * sign
        x = ((dx * dx) * X + square * Y) * -sign
        char_op = monomial_op(side, 2 * kp + 1, 2 * lp, -sign * lp)
    else:
        side, var, shift, kind = (("X", "x", -Fraction(1, 2), "Q")
                                  if family == "C2" else
                                  ("Y", "y", Fraction(1, 2), "Qbar"))
        base = apply_operator_free(monomial_op(side, kp, lp, shift))
        d = base.total_derivative(var)
        t, x = -(base * base), d * d
        if family == "C2bar":
            t, x = x, t
        char_op = basis_op(kind, 2 * kp, 2 * lp + 1)
    return reduce(t), reduce(x), apply_operator_reduced(char_op)


def test_minimal_currents_match_free_route():
    for n in range(1, 6):
        for family, kp, lp in minimal_family_members(n):
            c = current_minimal(family, kp, lp)
            assert (c.t, c.x, c.characteristic) == _free_route_minimal(
                family, kp, lp), (family, kp, lp)


def test_ctilde_currents_match_free_route():
    for op in skew_basis_ops(5):
        au = apply_operator_free(op)
        c = current_Ctilde(op)
        assert c.t == reduce(-FreeJetPoly.var(0, 0) * au.total_derivative("y"))
        assert c.x == reduce(FreeJetPoly.var(1, 0) * au)
        assert c.characteristic == apply_operator_reduced(op) * 2
