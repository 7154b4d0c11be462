"""Generalized-symmetry machinery: the on-shell symmetry criterion, the
brute-force determining-equation solver for linear characteristics, the
reduced Lie bracket, and the exponential-family independence test."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .arith import RationalMatrix, XYPoly, nullspace, terms_rank
from .jet import (ReducedJetPoly, eval_exp_family, prolonged_action,
                  require_field_u)


def is_generalized_symmetry(eta: ReducedJetPoly) -> bool:
    """True iff the reduced total derivative in x then y returns eta exactly,
    i.e. eta solves the linearized equation on shell."""
    require_field_u(eta, "characteristic must involve only the field u")
    return eta.total_derivative("x").total_derivative("y") == eta


@dataclass
class SymmetryBasis:
    """A verified basis of linear symmetry characteristics of bounded order."""
    order: int
    degree: int
    elements: list = field(default_factory=list)

    def __post_init__(self):
        for eta in self.elements:
            if not is_generalized_symmetry(eta):
                raise ValueError(f"basis element fails the symmetry "
                                 f"criterion: {eta}")

    @property
    def dim(self) -> int:
        return len(self.elements)


@dataclass
class DeterminingSystem:
    """The linear system on the coefficient functions of a characteristic
    sum_k eta^k(x, y) u_k with |k| <= order and deg eta^k <= degree.

    Rows expand, monomial by monomial, the conditions
    eta^k_xy + eta^(k-1)_y + eta^(k+1)_x = 0 for k from -order-1 to order+1
    with all out-of-range eta's zero."""
    order: int
    degree: int
    unknowns: list
    matrix: RationalMatrix

    @classmethod
    def assemble(cls, order: int, degree: int) -> "DeterminingSystem":
        if order < 0 or degree < 0:
            raise ValueError("order and degree must be nonnegative")
        n, d = order, degree
        unknowns = [(k, i, j) for k in range(-n, n + 1)
                    for i in range(d + 1) for j in range(d + 1 - i)]
        column = {u: idx for idx, u in enumerate(unknowns)}
        rows = {}

        def put(eq_key, col, value):
            row = rows.setdefault(eq_key, {})
            row[col] = row.get(col, 0) + value

        for (k, i, j), col in column.items():
            if i >= 1 and j >= 1:
                put((k, i - 1, j - 1), col, i * j)      # eta^k_xy in Delta_k
            if j >= 1:
                put((k + 1, i, j - 1), col, j)          # eta^k_y in Delta_(k+1)
            if i >= 1:
                put((k - 1, i - 1, j), col, i)          # eta^k_x in Delta_(k-1)

        entries = []
        width = len(unknowns)
        for eq_key in sorted(rows):
            row = rows[eq_key]
            entries.append([row.get(c, 0) for c in range(width)])
        return cls(order=n, degree=d, unknowns=unknowns,
                   matrix=RationalMatrix.from_rows(entries) if entries
                   else RationalMatrix(0, width, []))

    def solve(self) -> SymmetryBasis:
        kernel = nullspace(self.matrix)
        elements = []
        for vec in kernel:
            coeffs = {}
            for col, (k, i, j) in enumerate(self.unknowns):
                v = vec[col]
                if v:
                    coeffs.setdefault(k, {})[(i, j)] = v
            eta = ReducedJetPoly({((("u", k), 1),): XYPoly(poly)
                                  for k, poly in coeffs.items()})
            elements.append(eta)
        return SymmetryBasis(order=self.order, degree=self.degree,
                             elements=elements)


@lru_cache(maxsize=None)
def _solve_cached(order: int, degree: int):
    basis = DeterminingSystem.assemble(order, degree).solve()
    return tuple(basis.elements)


def solve_linear_determining(n: int, d: int) -> SymmetryBasis:
    """Solve the determining system for characteristics linear in the jets,
    with polynomial coefficients of total degree at most d."""
    if d < n:
        raise ValueError("degree bound below the order cannot represent "
                         "the known solutions; need d >= n")
    return SymmetryBasis(order=n, degree=d,
                         elements=list(_solve_cached(n, d)))


def graded_dimension(n: int, d: int) -> int:
    """Dimension of the order-exactly-n layer: solutions of order <= n
    minus solutions of order <= n-1 (empty below order zero)."""
    if d < n:
        raise ValueError("need d >= n")
    total = len(_solve_cached(n, d))
    below = len(_solve_cached(n - 1, d)) if n >= 1 else 0
    return total - below


def dimension_table(max_order: int):
    """(n, graded dimension, cumulative dimension) for n = 0..max_order, each
    at the degree bound d = n + 2."""
    return [(n, graded_dimension(n, n + 2),
             solve_linear_determining(n, n + 2).dim)
            for n in range(max_order + 1)]


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
        evals.append(eval_exp_family(eta).terms)
    return terms_rank(evals)
