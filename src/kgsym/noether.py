"""Variational-symmetry testing and conserved currents.

A conserved current is a pair (T, X) of jet polynomials whose on-shell
divergence Dx T + Dy X vanishes identically; constructors verify that, and
the recorded order, before returning anything. The Euler-operator test
certifies conservation-law characteristics independently of any current.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import RationalMatrix, XYPoly, accumulate, rank
from .jet import (FieldId, F, FreeJetPoly, ReducedJetPoly, U,
                  apply_operator_free, apply_operator_reduced, euler_operator,
                  iterated_derivative, reduce)
from .opalg import TDOperator, basis_op, kg_operator

_X = XYPoly.variable("x")
_Y = XYPoly.variable("y")

CURRENT_FAMILIES = ("C0", "Ctilde", "C1", "C1bar", "C2", "C2bar", "GEN")


def is_variational_linear(a: TDOperator) -> bool:
    """True iff adjoint(a) o L + adjoint(L) o a is the zero operator, where
    L = Dx*Dy - 1 is the (formally self-adjoint) equation operator."""
    kg = kg_operator()
    return (a.adjoint().compose(kg) + kg.adjoint().compose(a)).is_zero()


def onshell_divergence(t: ReducedJetPoly, x: ReducedJetPoly) -> ReducedJetPoly:
    """Dx T + Dy X on the reduced jet; zero exactly when (T, X) is conserved."""
    return t.total_derivative("x") + x.total_derivative("y")


@dataclass(frozen=True)
class ConservedCurrent:
    """A verified conserved current (T, X) with its recorded order.

    T and X are the reduced (on-shell) components; for currents constructed
    off shell the free-jet originals are retained as well."""
    family: str
    t: ReducedJetPoly
    x: ReducedJetPoly
    order: int
    t_free: FreeJetPoly | None = None
    x_free: FreeJetPoly | None = None
    characteristic: ReducedJetPoly | None = None

    def __post_init__(self):
        if self.family not in CURRENT_FAMILIES:
            raise ValueError(f"unknown current family {self.family!r}")
        div = onshell_divergence(self.t, self.x)
        if div:
            raise ValueError(f"current is not conserved on shell; "
                             f"divergence = {div}")
        orders = [o for o in (self.t.order(), self.x.order()) if o is not None]
        actual = max(orders) if orders else 0
        if actual != self.order:
            raise ValueError(f"declared order {self.order} but components "
                             f"have order {actual}")


def current_C0(f: FieldId = F, barred: bool = False) -> ConservedCurrent:
    """First-order current attached to the superposition symmetry with a
    symbolic solution f: (f u_y, -f_x u), or the barred (-f_y u, f u_x)."""
    name = f.name if isinstance(f, FieldId) else str(f)
    if name == "u":
        raise ValueError("the parameter field must be distinct from u")
    f0 = ReducedJetPoly.var(name, 0)
    if barred:
        t = -ReducedJetPoly.var(name, -1) * ReducedJetPoly.var(U, 0)
        x = f0 * ReducedJetPoly.var(U, 1)
    else:
        t = f0 * ReducedJetPoly.var(U, -1)
        x = -ReducedJetPoly.var(name, 1) * ReducedJetPoly.var(U, 0)
    return ConservedCurrent(family="C0", t=t, x=x, order=1,
                            characteristic=ReducedJetPoly.var(name, 0))


def current_Ctilde(a: TDOperator) -> ConservedCurrent:
    """Uniform current (-u Dy Q u, u_x Q u) for a skew-adjoint operator Q;
    its characteristic is 2 Q u."""
    residue = (a + a.adjoint()).scale(Fraction(1, 2))
    if not residue.is_zero():
        raise ValueError(f"operator is not skew-adjoint; self-adjoint part "
                         f"is {residue}")
    au = apply_operator_free(a)
    t_free = -FreeJetPoly.var(0, 0) * au.total_derivative("y")
    x_free = FreeJetPoly.var(1, 0) * au
    t = reduce(t_free)
    x = reduce(x_free)
    orders = [o for o in (t.order(), x.order()) if o is not None]
    return ConservedCurrent(family="Ctilde", t=t, x=x,
                            order=max(orders) if orders else 0,
                            t_free=t_free, x_free=x_free,
                            characteristic=apply_operator_reduced(a, U) * 2)


def _minimal_word(head: str, side: str, kp: int, lp: int) -> TDOperator:
    """The operator word head^kp o D^lp with head J, J - 1/2 or J + 1/2 and
    D the x- or y-derivative."""
    j = TDOperator.j()
    if head == "J-":
        j = j - TDOperator.mul_by(Fraction(1, 2))
    elif head == "J+":
        j = j + TDOperator.mul_by(Fraction(1, 2))
    key = (lp, 0) if side == "x" else (0, lp)
    return (j ** kp).compose(TDOperator({key: XYPoly.one()}))


def current_minimal(family: str, kp: int, lp: int) -> ConservedCurrent:
    """Minimal-order current of the stated family with word orders kp, lp.

    The resulting order is kp + lp + 1, asserted before returning. Family C1
    needs lp >= 1."""
    if kp < 0 or lp < 0:
        raise ValueError("orders must be nonnegative")
    if family == "C1":
        if lp < 1:
            raise ValueError("family C1 requires lp >= 1")
        base = apply_operator_free(_minimal_word("J", "x", kp, lp))
        dx = base.total_derivative("x")
        dy = base.total_derivative("y")
        t_free = -(dy * dy) * _Y - (base * base) * _X
        x_free = (dx * dx) * _X + (base * base) * _Y
        char_op = basis_op("Q", 2 * kp + 1, 2 * lp)
    elif family == "C1bar":
        base = apply_operator_free(_minimal_word("J", "y", kp, lp))
        dx = base.total_derivative("x")
        dy = base.total_derivative("y")
        t_free = (dy * dy) * _Y + (base * base) * _X
        x_free = -(dx * dx) * _X - (base * base) * _Y
        char_op = (basis_op("Qbar", 2 * kp + 1, 2 * lp) if lp
                   else basis_op("Q", 2 * kp + 1, 0))
    elif family == "C2":
        base = apply_operator_free(_minimal_word("J-", "x", kp, lp))
        dx = base.total_derivative("x")
        t_free = -(base * base)
        x_free = dx * dx
        char_op = basis_op("Q", 2 * kp, 2 * lp + 1)
    elif family == "C2bar":
        base = apply_operator_free(_minimal_word("J+", "y", kp, lp))
        dy = base.total_derivative("y")
        t_free = dy * dy
        x_free = -(base * base)
        char_op = basis_op("Qbar", 2 * kp, 2 * lp + 1)
    else:
        raise ValueError(f"unknown minimal-current family {family!r}")
    return ConservedCurrent(family=family, t=reduce(t_free), x=reduce(x_free),
                            order=kp + lp + 1,
                            t_free=t_free, x_free=x_free,
                            characteristic=apply_operator_reduced(char_op, U))


def lift_linear_characteristic(eta: ReducedJetPoly) -> TDOperator:
    """Re-lift a characteristic linear in the jets of u to the operator whose
    coefficients of u_k become pure Dx^k (k >= 0) or Dy^(-k) powers."""
    extra = eta.fields() - {"u"}
    if extra:
        raise ValueError(f"lift expects only the field u, found {sorted(extra)}")
    if not eta.is_linear():
        raise ValueError("lift expects a characteristic linear in the jets")
    # Each monomial of the linear lift is one coordinate u_(a,b) = Dx^a Dy^b u.
    return TDOperator({mono[0][0]: coeff
                       for mono, coeff in _lift_free(eta).terms.items()})


def _lift_free(eta: ReducedJetPoly) -> FreeJetPoly:
    """Lift u_k to the pure derivative u_(k,0) or u_(0,-k)."""
    extra = eta.fields() - {"u"}
    if extra:
        raise ValueError(f"lift expects only the field u, found {sorted(extra)}")
    return FreeJetPoly(accumulate({}, ((_lifted_mono(mono), coeff)
                                       for mono, coeff in eta.terms.items())))


def _lifted_mono(mono):
    exps = {}
    for (_, k), e in mono:
        var = (k, 0) if k >= 0 else (0, -k)
        exps[var] = exps.get(var, 0) + e
    return tuple(sorted(exps.items()))


def is_cl_characteristic(eta: ReducedJetPoly) -> bool:
    """True iff eta times the equation expression is a total divergence,
    certified by the Euler operator annihilating the lifted product."""
    lifted = _lift_free(eta)
    equation = FreeJetPoly.var(1, 1) - FreeJetPoly.var(0, 0)
    return euler_operator(lifted * equation).is_zero()


@dataclass(frozen=True)
class CurrentCandidate:
    """Componentwise action of a symmetry on a current, with its divergence."""
    t: ReducedJetPoly
    x: ReducedJetPoly
    divergence: ReducedJetPoly

    @property
    def is_conserved(self) -> bool:
        return self.divergence.is_zero()


def _prolonged_action(eta: ReducedJetPoly, p: ReducedJetPoly) -> ReducedJetPoly:
    """Evolutionary action on a component: sum over k of dp/du_k times the
    k-fold reduced derivative of eta (x-derivatives for k >= 0, else y)."""
    result = ReducedJetPoly.zero()
    for (name, k) in sorted(p.jet_variables()):
        if name != "u":
            continue
        dp = p.partial("u", k)
        if dp:
            result = result + dp * iterated_derivative(eta, k)
    return result


def symmetry_action_on_current(eta: ReducedJetPoly,
                               c: ConservedCurrent) -> CurrentCandidate:
    """Act with the evolutionary field of characteristic eta on both current
    components and report the divergence of the resulting pair."""
    t = _prolonged_action(eta, c.t)
    x = _prolonged_action(eta, c.x)
    return CurrentCandidate(t=t, x=x, divergence=onshell_divergence(t, x))


def minimal_family_members(n: int):
    """The (family, kp, lp) triples of order-n minimal currents, in
    (family, kp, lp) lexicographic order."""
    if n < 2:
        raise ValueError("enumeration is defined for order n >= 2")
    members = []
    for family in ("C1", "C1bar", "C2", "C2bar"):
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


def currents_independent(currents) -> bool:
    """Exact linear independence of (T, X) pairs as jet polynomials."""
    keys = set()
    for c in currents:
        for mono, coeff in c.t.terms.items():
            keys.update(("T", mono, xy) for xy in coeff.terms)
        for mono, coeff in c.x.terms.items():
            keys.update(("X", mono, xy) for xy in coeff.terms)
    keys = sorted(keys, key=repr)
    rows = []
    for c in currents:
        row = []
        for side, mono, xy in keys:
            comp = c.t if side == "T" else c.x
            row.append(comp.terms.get(mono, XYPoly.zero()).terms.get(xy, 0))
        rows.append(row)
    if not rows:
        return True
    return rank(RationalMatrix.from_rows(rows)) == len(rows)
