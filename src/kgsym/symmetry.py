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
    with all out-of-range eta's zero.

    The scaling x -> lambda x, y -> y / lambda grades the system: each of
    the three terms maps the unknown (k, i, j), the coefficient of
    x^i y^j u_k, into an equation of the same weight i - j - k. So the
    system is block diagonal. blocks holds, in ascending weight, one
    (columns, matrix) pair per weight: the ascending indices into unknowns
    of that weight and the matrix of its equations over those columns."""
    order: int
    degree: int
    unknowns: list
    blocks: list

    @classmethod
    def assemble(cls, order: int, degree: int) -> "DeterminingSystem":
        if order < 0 or degree < 0:
            raise ValueError("order and degree must be nonnegative")
        n, d = order, degree
        unknowns = [(k, i, j) for k in range(-n, n + 1)
                    for i in range(d + 1) for j in range(d + 1 - i)]
        columns = {}    # weight -> its columns, ascending
        rows = {}       # weight -> equation key -> {local column: value}

        for col, (k, i, j) in enumerate(unknowns):
            weight = i - j - k
            block_cols = columns.setdefault(weight, [])
            local = len(block_cols)
            block_cols.append(col)
            equations = rows.setdefault(weight, {})
            if i >= 1 and j >= 1:                # eta^k_xy in Delta_k
                equations.setdefault((k, i - 1, j - 1), {})[local] = i * j
            if j >= 1:                           # eta^k_y in Delta_(k+1)
                equations.setdefault((k + 1, i, j - 1), {})[local] = j
            if i >= 1:                           # eta^k_x in Delta_(k-1)
                equations.setdefault((k - 1, i - 1, j), {})[local] = i

        blocks = []
        for weight in sorted(columns):
            width = len(columns[weight])
            equations = rows[weight]
            entries = [[row.get(c, 0) for c in range(width)]
                       for row in (equations[key] for key in sorted(equations))]
            blocks.append((columns[weight],
                           RationalMatrix(len(entries), width, entries)))
        return cls(order=n, degree=d, unknowns=unknowns, blocks=blocks)

    def solve(self) -> SymmetryBasis:
        """The kernel of every block, embedded into the global columns and
        ordered by global free column: the reduced-echelon kernel basis of
        the whole system, since a block-diagonal matrix has the pivots of
        its blocks. A block vector's free column is its last nonzero entry."""
        kernel = [[(cols[c], v) for c, v in enumerate(vec) if v]
                  for cols, matrix in self.blocks for vec in nullspace(matrix)]
        kernel.sort(key=lambda support: support[-1][0])
        elements = []
        for support in kernel:
            coeffs = {}
            for col, v in support:
                k, i, j = self.unknowns[col]
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
