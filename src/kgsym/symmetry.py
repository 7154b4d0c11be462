"""Generalized-symmetry machinery: the on-shell symmetry criterion, the
brute-force determining-equation solver for linear characteristics, the
reduced Lie bracket, and the exponential-family independence test."""

from __future__ import annotations

from bisect import bisect_right

from .arith import echelon, flat, grouped, sparse_kernel, terms_rank
from .jet import (ReducedJetPoly, eval_exp_family, prolonged_action,
                  require_field_u)
from .record import Record


def is_generalized_symmetry(eta: ReducedJetPoly) -> bool:
    """True iff the reduced total derivative in x then y returns eta exactly,
    i.e. eta solves the linearized equation on shell."""
    require_field_u(eta, "characteristic must involve only the field u")
    return eta.total_derivative("x").total_derivative("y") == eta


class SymmetryBasis(Record):
    """A verified basis of linear symmetry characteristics of bounded order."""
    __slots__ = ("order", "degree", "elements")

    def __init__(self, order: int, degree: int, elements: tuple = ()):
        for eta in elements:
            if not is_generalized_symmetry(eta):
                raise ValueError(f"basis element fails the symmetry "
                                 f"criterion: {eta}")
        self._init(order, degree, elements)

    @property
    def dim(self) -> int:
        return len(self.elements)


class DeterminingSystem(Record):
    """The linear system on the coefficient functions of a characteristic
    sum_k eta^k(x, y) u_k with |k| <= order and deg eta^k <= degree.

    Its equations (k, a, b) are the coefficients of x^a y^b in
    eta^k_xy + eta^(k-1)_y + eta^(k+1)_x = 0 for k from -order-1 to order+1,
    out-of-range eta's zero. images[c] is the term map {equation: value} of
    unknowns[c] = (k, i, j), the coefficient of x^i y^j u_k."""
    __slots__ = ("order", "degree", "unknowns", "images")

    def __init__(self, order: int, degree: int, unknowns: list,
                 images: list):
        self._init(order, degree, unknowns, images)

    @classmethod
    def assemble(cls, order: int, degree: int) -> "DeterminingSystem":
        if order < 0 or degree < 0:
            raise ValueError("order and degree must be nonnegative")
        n, d = order, degree
        unknowns = [(k, i, j) for k in range(-n, n + 1)
                    for i in range(d + 1) for j in range(d + 1 - i)]
        # eta^k_xy in Delta_k, eta^k_y in Delta_(k+1), eta^k_x in Delta_(k-1);
        # a value is zero exactly when that derivative of x^i y^j vanishes.
        images = [{key: v for key, v in (((k, i - 1, j - 1), i * j),
                                         ((k + 1, i, j - 1), j),
                                         ((k - 1, i - 1, j), i)) if v}
                  for k, i, j in unknowns]
        return cls(order=n, degree=d, unknowns=unknowns, images=images)

    def solve(self) -> SymmetryBasis:
        """The reduced-echelon kernel basis, read as characteristics: the
        unknown (k, i, j) is the flat jet key of x^i y^j u_k."""
        keys = [((("u", k),), i, j) for k, i, j in self.unknowns]
        elements = tuple(
            grouped(ReducedJetPoly, {keys[col]: v for col, v in vec.items()})
            for vec in sparse_kernel(self.images))
        return SymmetryBasis(order=self.order, degree=self.degree,
                             elements=elements)


def solve_linear_determining(n: int, d: int) -> SymmetryBasis:
    """Solve the determining system for characteristics linear in the jets,
    with polynomial coefficients of total degree at most d; every element
    of the basis is checked against the symmetry criterion."""
    if d < n:
        raise ValueError("degree bound below the order cannot represent "
                         "the known solutions; need d >= n")
    return DeterminingSystem.assemble(n, d).solve()


def _chain_index(unknown) -> int:
    """The first m for which the chain set C(2m) = (m, m + 2), C(2m + 1) =
    (m, m + 3) of (order, degree) bounds holds the unknown with flat key
    (((u, k),), i, j)."""
    k, s = abs(unknown[0][0][1]), unknown[1] + unknown[2]
    return min(2 * max(k, s - 2, 0), 2 * max(k, s - 3, 0) + 1)


def chain_rows(basis):
    """(chain index of the pivot, row) of the echelon rows of the flat kernel
    vectors of basis, one solve, in ascending index. The one elimination
    takes the unknowns of the last sets of the chain C first, so a row lies
    in the set of its pivot: the rows of index at most m are a basis of the
    kernel vectors inside C(m). An equation (k, a, b) touches only the
    unknowns (k, a+1, b+1), (k-1, a, b+1) and (k+1, a+1, b), so the kernel
    vectors inside the (n, d) bounds are the (n, d) solutions."""
    flats = [flat(eta) for eta in basis.elements]
    columns = sorted({u for vec in flats for u in vec},
                     key=lambda u: (-_chain_index(u), u))
    rows = [(_chain_index(p), r) for p, r in echelon(flats, columns).items()]
    return sorted(rows, key=lambda pair: pair[0])


def graded_dimension(n: int, d: int) -> int:
    """Dimension of the order-exactly-n layer, needs d >= n: by rank-nullity
    the rank of the |k| = n parts of the (n, d) solutions, since those with
    no u_(+-n) term are the (n - 1, d) solutions."""
    return terms_rank([{u: c for u, c in flat(eta).items()
                        if abs(u[0][0][1]) == n}
                       for eta in solve_linear_determining(n, d).elements])


def dimension_table(max_order: int):
    """(n, graded dimension, cumulative dimension) for n = 0..max_order, each
    at the degree bound d = n + 2, all read off the one solve
    (max_order, max_order + 2) = C(2 max_order): the cumulative dimension
    of order n is that of C(2n) = (n, n + 2), the graded one that less the
    dimension of C(2n - 1) = (n - 1, n + 2)."""
    index = [m for m, _ in chain_rows(
        solve_linear_determining(max_order, max_order + 2))]
    return [(n, bisect_right(index, 2 * n) - bisect_right(index, 2 * n - 1),
             bisect_right(index, 2 * n)) for n in range(max_order + 1)]


def reduced_bracket(eta1: ReducedJetPoly, eta2: ReducedJetPoly) -> ReducedJetPoly:
    """Reduced Lie bracket of evolutionary fields with characteristics eta1,
    eta2: the prolongation of each applied to the other, antisymmetrized."""
    for eta in (eta1, eta2):
        require_field_u(eta, "bracket argument must involve only the field u")
    return prolonged_action(eta1, eta2) - prolonged_action(eta2, eta1)


def independence_rank(basis) -> int:
    """Rank of the evaluations on the exponential solution family, expanded
    over monomials in x, y and the spectral parameter. Rank equal to the
    list length certifies that no nonzero combination is a trivial symmetry."""
    evals = []
    for eta in basis:
        if not eta.is_linear():
            raise ValueError("independence test expects characteristics "
                             "linear in the jets")
        evals.append(eval_exp_family(eta))
    return terms_rank(evals)
