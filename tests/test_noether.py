"""Tests for variational testing and the conserved-current constructors."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from kgsym import noether
from kgsym.arith import XYPoly
from kgsym.jet import (FreeJetPoly, ReducedJetPoly, apply_operator_free,
                       apply_operator_reduced, euler_operator, reduce,
                       reduced_J)
from kgsym.noether import (ConservedCurrent, CurrentCandidate,
                           count_order_n_currents,
                           current_C0, current_Ctilde, current_minimal,
                           is_cl_characteristic, is_variational_linear,
                           lift_linear_characteristic, minimal_family_members,
                           onshell_divergence, symmetry_action_on_current)
from kgsym.opalg import (TDOperator, basis_op, basis_shapes, kg_operator,
                         monomial_op)
from kgsym.symmetry import independence_rank
from kgsym.verify import random_reduced_jet

X = XYPoly.variable("x")
Y = XYPoly.variable("y")


def u(k):
    return ReducedJetPoly.var("u", k)


def f(k):
    return ReducedJetPoly.var("f", k)


def skew_basis_ops(max_total):
    return [basis_op(*shape) for total in range(1, max_total + 1, 2)
            for shape in basis_shapes(total)]


def basis_words(max_total):
    """Every basis word Q[k,l] and Qbar[k,l] with k + l <= max_total, both
    parities, with whether it is skew-adjoint (k + l odd)."""
    return [(basis_op(*shape), total % 2 == 1)
            for total in range(max_total + 1) for shape in basis_shapes(total)]


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
    # Dx(-u^2) + Dy(u_x^2) = 2 u_x (u_xy - u): the same law as
    # current_Ctilde(Dx), with the same characteristic.
    assert c.characteristic == u(1) * 2
    c = current_minimal("C2bar", 0, 0)
    assert (c.t, c.x) == (u(-1) * u(-1), -u(0) * u(0))
    c = current_minimal("C1bar", 0, 0)
    assert c.t == u(-1) * u(-1) * Y + u(0) * u(0) * X
    assert c.x == -u(1) * u(1) * X - u(0) * u(0) * Y
    assert c.order == 1


def test_current_minimal_rejects_C1_without_derivative():
    with pytest.raises(ValueError):
        current_minimal("C1", 1, 0)


@pytest.mark.parametrize("family, kp, lp, message", [
    ("C2", -1, 0, "orders must be nonnegative"),
    ("C9", 0, 0, "unknown minimal-current family 'C9'"),
])
def test_current_minimal_argument_errors(family, kp, lp, message):
    with pytest.raises(ValueError) as excinfo:
        current_minimal(family, kp, lp)
    assert str(excinfo.value) == message


def test_current_minimal_orders():
    for total in range(4):
        for kp in range(total + 1):
            lp = total - kp
            for family in ("C1", "C1bar", "C2", "C2bar"):
                if family == "C1" and lp < 1:
                    continue
                c = current_minimal(family, kp, lp)
                assert c.order == kp + lp + 1, (family, kp, lp)


@pytest.mark.parametrize("family, kp, lp", [
    ("C1", 0, 1), ("C1", 2, 1), ("C1bar", 0, 0), ("C1bar", 1, 2),
    ("C2", 0, 0), ("C2", 2, 1), ("C2bar", 0, 0), ("C2bar", 1, 2)])
def test_current_minimal_makes_no_jet_product(monkeypatch, family, kp, lp):
    # T and X are sums of squares built on the integer multiple by
    # jet.squares, so the construction multiplies no jet by a jet; the
    # ConservedCurrent check still takes the divergence of the result.
    products, checked = [], []
    times = ReducedJetPoly.__mul__

    def counting(self, other):
        if isinstance(other, (ReducedJetPoly, FreeJetPoly)):
            products.append((self, other))
        return times(self, other)

    def divergence(t, x):
        checked.append((t, x))
        return onshell_divergence(t, x)
    monkeypatch.setattr(ReducedJetPoly, "__mul__", counting)
    monkeypatch.setattr(ReducedJetPoly, "__rmul__", counting)
    monkeypatch.setattr(noether, "onshell_divergence", divergence)
    c = current_minimal(family, kp, lp)
    assert products == []
    assert checked == [(c.t, c.x)]


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
    with pytest.raises(ValueError, match="not conserved"):
        ConservedCurrent(family="C0", t=u(0), x=u(0), order=0)
    with pytest.raises(ValueError):
        ConservedCurrent(family="C2", t=-u(0) * u(0), x=u(1) * u(1), order=2)
    with pytest.raises(ValueError):
        ConservedCurrent(family="bogus", t=-u(0) * u(0), x=u(1) * u(1), order=1)
    # the same checks run when the fields are given by position
    with pytest.raises(ValueError, match="not conserved"):
        ConservedCurrent("C0", u(0), u(0), 0)
    with pytest.raises(ValueError, match="declared order 2"):
        ConservedCurrent("C2", -u(0) * u(0), u(1) * u(1), 2)
    with pytest.raises(ValueError, match="unknown current family"):
        ConservedCurrent("bogus", -u(0) * u(0), u(1) * u(1), 1)


def test_onshell_divergence_is_the_sum_of_total_derivatives():
    # The divergence is made in one pass on an integer multiple; it must
    # be Dx T + Dy X exactly, down to the type of every coefficient.
    rng = random.Random(24)
    nonzero = 0
    for _ in range(2000):
        t, x = random_reduced_jet(rng), random_reduced_jet(rng)
        got = onshell_divergence(t, x)
        want = t.total_derivative("x") + x.total_derivative("y")
        assert got == want, (t, x)
        assert ({mono: repr(c) for mono, c in got.terms.items()}
                == {mono: repr(c) for mono, c in want.terms.items()})
        nonzero += bool(got)
    assert nonzero > 1800


def test_onshell_divergence_of_fields_with_integral_coefficients():
    assert onshell_divergence(f(0) * u(-1) * 3, -f(1) * u(0) * 3) == 0
    div = onshell_divergence(u(0) * X * Y, f(1) * Y * Y)
    assert str(div) == "2*y*f[1] + y^2*f[0] + x*y*u[1] + y*u[0]"
    assert onshell_divergence(ReducedJetPoly.zero(),
                              ReducedJetPoly.zero()).is_zero()


def test_not_conserved_rejection_text():
    with pytest.raises(ValueError) as excinfo:
        ConservedCurrent("C0", u(0) ** 2 * Fraction(1, 3), u(1), 1)
    assert str(excinfo.value) == ("current is not conserved on shell; "
                                  "divergence = 2/3*u[1]*u[0] + u[0]")


def test_divergence_of_non_conserved_action():
    eta = u(0) * X * Fraction(1, 3) + u(1) * u(0) * Y
    candidate = symmetry_action_on_current(eta, current_minimal("C2", 0, 0))
    assert not candidate.is_conserved
    assert str(candidate.divergence) == (
        "2*u[2]*u[1]*u[0] + 2*y*u[2]*u[1]*u[-1] + 4*y*u[1]^2*u[0] "
        "+ 2*u[1]^3 + 2/3*u[1]*u[-1]")


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


@pytest.mark.parametrize("n", range(1, 7))
def test_skew_words_match_minimal_currents(n):
    # the 4n-1 conservation laws of order n have the skew words of order
    # 2n-1 as characteristics
    assert (len(basis_shapes(2 * n - 1)) == len(minimal_family_members(n))
            == 4 * n - 1)


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
    """(T, X) of a minimal current built on the free jet and reduced at the
    end."""
    if family in ("C1", "C1bar"):
        side, sign = ("X", -1) if family == "C1" else ("Y", 1)
        base = apply_operator_free(monomial_op(side, kp, lp))
        dx = base.total_derivative("x")
        dy = base.total_derivative("y")
        square = base * base
        t = ((dy * dy) * Y + square * X) * sign
        x = ((dx * dx) * X + square * Y) * -sign
    else:
        side, var, shift = (("X", "x", -Fraction(1, 2)) if family == "C2"
                            else ("Y", "y", Fraction(1, 2)))
        base = apply_operator_free(monomial_op(side, kp, lp, shift))
        d = base.total_derivative(var)
        t, x = -(base * base), d * d
        if family == "C2bar":
            t, x = x, t
    return reduce(t), reduce(x)


def test_minimal_currents_match_free_route():
    for n in range(1, 6):
        for family, kp, lp in minimal_family_members(n):
            c = current_minimal(family, kp, lp)
            assert (c.t, c.x) == _free_route_minimal(family, kp, lp), (
                family, kp, lp)
            assert c.characteristic == extracted_characteristic(c), (
                family, kp, lp)


def _pure(v):
    """The free coordinate of the reduced u_k: u_(k,0), or u_(0,-k)."""
    return (v[1], 0) if v[1] >= 0 else (0, -v[1])


def extracted_characteristic(c):
    """The characteristic of a current of u alone, read off its off-shell
    divergence. T and X lift to pure coordinates u_(k,0), u_(0,k), so each
    term of Dx T + Dy X has at most one mixed u_(a,b), a, b >= 1; with
    m = min(a, b) and F = u_xy - u, F_(p,q) = Dx^p Dy^q F, it is rewritten as
    sum_{s=1..m} F_(a-s,b-s) + u_(a-m,b-m). The F-free rest must cancel,
    and the characteristic is reduce(sum (-Dx)^p (-Dy)^q P_(p,q)) over the
    cofactors P_(p,q) of F_(p,q)."""
    def lift(p):
        return FreeJetPoly({tuple(map(_pure, mono)): coeff
                            for mono, coeff in p.terms.items()})

    div = lift(c.t).total_derivative("x") + lift(c.x).total_derivative("y")
    rest, cofactors = FreeJetPoly.zero(), {}
    for mono, coeff in div.terms.items():
        mixed = [i for i, (a, b) in enumerate(mono) if a and b]
        if not mixed:
            rest = rest + FreeJetPoly({mono: coeff})
            continue
        i, = mixed
        (a, b), others = mono[i], FreeJetPoly({mono[:i] + mono[i + 1:]: coeff})
        m = min(a, b)
        for s in range(1, m + 1):
            key = (a - s, b - s)
            cofactors[key] = cofactors.get(key, FreeJetPoly.zero()) + others
        rest = rest + others * FreeJetPoly.var(a - m, b - m)
    assert rest.is_zero()
    total = FreeJetPoly.zero()
    for (p, q), cofactor in cofactors.items():
        for var, times in (("x", p), ("y", q)):
            for _ in range(times):
                cofactor = -cofactor.total_derivative(var)
        total = total + cofactor
    return reduce(total)


def test_ctilde_currents_match_free_route():
    for op in skew_basis_ops(5):
        au = apply_operator_free(op)
        c = current_Ctilde(op)
        assert c.t == reduce(-FreeJetPoly.var(0, 0) * au.total_derivative("y"))
        assert c.x == reduce(FreeJetPoly.var(1, 0) * au)
        assert c.characteristic == apply_operator_reduced(op) * 2
        assert c.characteristic == extracted_characteristic(c)


SCALES = (-1, Fraction(5, 2), Fraction(-3, 7), Fraction(1, 9))


@pytest.mark.parametrize("c", SCALES)
def test_variational_test_is_scale_invariant(c):
    # The test runs on the integer multiple of its input; every nonzero
    # multiple must get the unscaled answer.
    for op, skew in basis_words(7):
        assert is_variational_linear(op) == skew
        assert is_variational_linear(op.scale(c)) == skew, (op, c)


@pytest.mark.parametrize("c", SCALES)
def test_cl_characteristic_test_is_scale_invariant(c):
    answers = set()
    for op, skew in basis_words(5):
        eta = apply_operator_reduced(op)
        answer = is_cl_characteristic(eta)
        assert is_cl_characteristic(eta * c) == answer, (op, c)
        answers.add((skew, answer))
    # Skew words give characteristics, the self-adjoint ones here do not.
    assert answers == {(True, True), (False, False)}


@pytest.mark.parametrize("c", SCALES)
def test_ctilde_of_scaled_skew_words(c):
    for op in skew_basis_ops(5):
        base = current_Ctilde(op)
        scaled = current_Ctilde(op.scale(c))
        # The current of the operator itself, not of its integer multiple.
        for got, want in ((scaled.t, base.t * c), (scaled.x, base.x * c),
                          (scaled.characteristic, base.characteristic * c)):
            assert got == want
            assert str(got) == str(want)
        assert scaled.order == base.order


def mixed_operator():
    """A skew word plus the non-skew x*Dx/3."""
    return basis_op("Qbar", 1, 2) + TDOperator.mul_by(X).compose(
        TDOperator.dx()).scale(Fraction(1, 3))


@pytest.mark.parametrize("c", SCALES)
def test_ctilde_rejects_scaled_non_skew_operator(c):
    for op in (basis_op("Q", 1, 1), mixed_operator(), TDOperator.identity()):
        scaled = op.scale(c)
        with pytest.raises(ValueError) as excinfo:
            current_Ctilde(scaled)
        residue = (scaled + scaled.adjoint()).scale(Fraction(1, 2))
        assert str(excinfo.value) == (
            f"operator is not skew-adjoint; self-adjoint part is {residue}")


def test_ctilde_rejection_text():
    # The residue is printed from the operator as given, not from the
    # integer multiple the test runs on.
    scaled = basis_op("Q", 1, 1).scale(Fraction(5, 2))
    with pytest.raises(ValueError) as excinfo:
        current_Ctilde(scaled)
    assert str(excinfo.value) == (
        "operator is not skew-adjoint; self-adjoint part is "
        "(5/2*x)*Dx^2 + (-5/2*y)*Dx*Dy + 5/4*Dx")
    with pytest.raises(ValueError) as excinfo:
        current_Ctilde(mixed_operator().scale(Fraction(-3, 7)))
    assert str(excinfo.value) == (
        "operator is not skew-adjoint; self-adjoint part is 1/14")


# Record contracts: ConservedCurrent and CurrentCandidate are immutable
# values, built by keyword or position, compared and hashed by their fields
# and printed as Name(field=value, ...).

C0_REPR = ("ConservedCurrent(family='C0', t=ReducedJetPoly(f[0]*u[-1]), "
           "x=ReducedJetPoly(-f[1]*u[0]), order=1, "
           "characteristic=ReducedJetPoly(f[0]))")


def test_conserved_current_record_contract():
    c = current_C0()
    t, x = f(0) * u(-1), -f(1) * u(0)
    by_position = ConservedCurrent("C0", t, x, 1, f(0))
    assert by_position == c
    assert hash(by_position) == hash(c)
    assert repr(c) == C0_REPR
    assert ConservedCurrent("C0", t, x, 1).characteristic is None
    assert c != current_C0(barred=True)
    assert c != (c.family, c.t, c.x, c.order, c.characteristic)
    for name in ("family", "t", "order", "characteristic", "other"):
        with pytest.raises(AttributeError):
            setattr(c, name, None)
    assert repr(c) == C0_REPR


def test_current_candidate_record_contract():
    zero = ReducedJetPoly.zero()
    candidate = CurrentCandidate(t=u(1), x=u(0), divergence=zero)
    assert candidate == CurrentCandidate(u(1), u(0), zero)
    assert hash(candidate) == hash(CurrentCandidate(u(1), u(0), zero))
    assert candidate != CurrentCandidate(u(1), u(0), u(0))
    assert repr(candidate) == ("CurrentCandidate(t=ReducedJetPoly(u[1]), "
                               "x=ReducedJetPoly(u[0]), "
                               "divergence=ReducedJetPoly(0))")
    for name in ("t", "x", "divergence"):
        with pytest.raises(AttributeError):
            setattr(candidate, name, u(2))
    assert candidate.t == u(1)


def test_conserved_current_copies_are_rebuilt_and_checked():
    c = current_minimal("C2", 0, 0)
    assert copy.copy(c) == c
    assert pickle.loads(pickle.dumps(c)) == c
    # a copy is a call of the class on the fields, so its checks run again
    assert c.__reduce__() == (ConservedCurrent, (c.family, c.t, c.x,
                                                 c.order, c.characteristic))
