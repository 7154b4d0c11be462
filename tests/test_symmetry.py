"""Tests for the symmetry criterion, the determining solver and the bracket."""

import random

import pytest

from kgsym.arith import RationalMatrix, XYPoly, nullspace
from kgsym.jet import ReducedJetPoly, apply_operator_reduced, reduced_J
from kgsym.opalg import monomial_op
from kgsym.symmetry import (DeterminingSystem, graded_dimension,
                            independence_rank, is_generalized_symmetry,
                            reduced_bracket, solve_linear_determining)

X = XYPoly.variable("x")
Y = XYPoly.variable("y")


def u(k):
    return ReducedJetPoly.var("u", k)


def test_symmetry_criterion_examples():
    assert is_generalized_symmetry(u(1))
    assert is_generalized_symmetry(u(1) * X - u(-1) * Y)
    assert not is_generalized_symmetry(u(0) * X)


def test_symmetry_criterion_rejects_other_fields():
    with pytest.raises(ValueError):
        is_generalized_symmetry(ReducedJetPoly.var("f", 0))


def test_solver_dimensions():
    basis = solve_linear_determining(0, 2)
    assert basis.dim == 1
    # the order-zero space is spanned by the scaling characteristic c*u
    eta = basis.elements[0]
    assert eta.jet_variables() == {("u", 0)}
    assert eta.coefficient((( ("u", 0), 1),)).is_constant()
    assert solve_linear_determining(1, 3).dim == 4
    assert solve_linear_determining(3, 5).dim == 16


def test_solver_degree_precondition():
    with pytest.raises(ValueError):
        solve_linear_determining(3, 2)


def test_determining_system_shape():
    system = DeterminingSystem.assemble(1, 3)
    # 3 coefficient functions with 10 monomials each
    assert len(system.unknowns) == 30
    assert sum(matrix.cols for _, matrix in system.blocks) == 30


def _dense_rows(n, d):
    """The determining equations expanded directly: one {unknown: value}
    row per equation, from the coefficient of x^a y^b in
    eta^k_xy + eta^(k-1)_y + eta^(k+1)_x."""
    unknowns = {(k, i, j) for k in range(-n, n + 1)
                for i in range(d + 1) for j in range(d + 1 - i)}
    rows = []
    for k in range(-n - 1, n + 2):
        for a in range(d + 1):
            for b in range(d + 1 - a):
                row = {}
                for unknown, value in (((k, a + 1, b + 1), (a + 1) * (b + 1)),
                                       ((k - 1, a, b + 1), b + 1),
                                       ((k + 1, a + 1, b), a + 1)):
                    if unknown in unknowns:
                        row[unknown] = value
                if row:
                    rows.append(row)
    return rows


def _weight(unknown):
    k, i, j = unknown
    return i - j - k


def _global_rows(system):
    """Every block row as {unknown: value} over the global unknowns."""
    return [{system.unknowns[cols[c]]: v for c, v in enumerate(row) if v}
            for cols, matrix in system.blocks for row in matrix.entries]


@pytest.mark.parametrize("n", range(5))
def test_determining_rows_have_one_weight(n):
    for d in range(n + 3):
        system = DeterminingSystem.assemble(n, d)
        for cols, _ in system.blocks:
            assert len({_weight(system.unknowns[c]) for c in cols}) == 1
        dense = _dense_rows(n, d)
        for row in dense:
            assert len({_weight(unknown) for unknown in row}) == 1
        key = lambda row: sorted(row.items())
        assert sorted(map(key, _global_rows(system))) == sorted(map(key, dense))


@pytest.mark.parametrize("n", range(5))
def test_determining_blocks_partition_columns(n):
    for d in range(n + 3):
        system = DeterminingSystem.assemble(n, d)
        cols = [c for block_cols, _ in system.blocks for c in block_cols]
        assert sorted(cols) == list(range(len(system.unknowns)))
        for block_cols, matrix in system.blocks:
            assert block_cols == sorted(block_cols)
            assert matrix.cols == len(block_cols)


@pytest.mark.parametrize("n, d", [(1, 3), (2, 4), (3, 5), (0, 8)])
def test_blocked_solve_equals_dense_kernel(n, d):
    system = DeterminingSystem.assemble(n, d)
    width = len(system.unknowns)
    entries = []
    for cols, matrix in system.blocks:
        for row in matrix.entries:
            full = [0] * width
            for c, v in enumerate(row):
                full[cols[c]] = v
            entries.append(full)
    expected = []
    for vec in nullspace(RationalMatrix(len(entries), width, entries)):
        eta = ReducedJetPoly.zero()
        for col, (k, i, j) in enumerate(system.unknowns):
            eta = eta + u(k) * XYPoly({(i, j): vec[col]})
        expected.append(eta)
    assert system.solve().elements == expected


@pytest.mark.parametrize("n", range(6))
def test_dimension_saturates_in_degree(n):
    dims = {solve_linear_determining(n, d).dim for d in (n, n + 1, n + 2)}
    assert dims == {(n + 1) ** 2}


@pytest.mark.parametrize("n", range(6))
def test_graded_dimension(n):
    assert graded_dimension(n, n + 2) == 2 * n + 1


def test_solver_output_passes_criterion():
    for n, d in ((1, 3), (2, 4)):
        for eta in solve_linear_determining(n, d).elements:
            assert is_generalized_symmetry(eta)


def test_solver_basis_is_independent():
    basis = solve_linear_determining(2, 4)
    assert independence_rank(basis.elements) == basis.dim


def test_bracket_examples():
    assert reduced_bracket(u(1), u(-1)).is_zero()
    e1 = -u(1)
    e3 = -reduced_J(u(0))
    assert reduced_bracket(e1, e3) == e1
    rng = random.Random(41)
    for _ in range(20):
        eta = ReducedJetPoly({((("u", rng.randint(-3, 3)), 1),): XYPoly.one()})
        assert reduced_bracket(u(0), eta).is_zero()


def test_bracket_antisymmetric_and_bilinear():
    rng = random.Random(42)
    for _ in range(20):
        a = _random_linear(rng)
        b = _random_linear(rng)
        c = _random_linear(rng)
        assert reduced_bracket(a, b) == -reduced_bracket(b, a)
        assert reduced_bracket(a + c, b) == (reduced_bracket(a, b)
                                             + reduced_bracket(c, b))


def _random_linear(rng):
    from kgsym.verify import random_xypoly
    terms = {((("u", rng.randint(-2, 2)), 1),): random_xypoly(rng, allow_zero=False)
             for _ in range(rng.randint(1, 3))}
    return ReducedJetPoly(terms)


def test_jacobi_on_essential_characteristics():
    e0 = u(0)
    e1 = -u(1)
    e2 = -u(-1)
    e3 = -reduced_J(u(0))
    chars = (e0, e1, e2, e3)
    for a in chars:
        for b in chars:
            for c in chars:
                lhs = (reduced_bracket(a, reduced_bracket(b, c))
                       + reduced_bracket(b, reduced_bracket(c, a))
                       + reduced_bracket(c, reduced_bracket(a, b)))
                assert lhs.is_zero()


def test_recursion_closure():
    for total in range(7):
        for k in range(total + 1):
            l = total - k
            for side in ("X", "Y"):
                eta = apply_operator_reduced(monomial_op(side, k, l))
                assert is_generalized_symmetry(eta)


def test_independence_rank_examples():
    assert independence_rank([u(0)]) == 1
    chars = [reduced_J(u(0)), u(1), u(-1)]
    assert independence_rank(chars) == 3


def test_independence_rank_monomial_characteristics():
    n = 2
    chars = [apply_operator_reduced(monomial_op("X", n, 0))]
    for k in range(n):
        chars.append(apply_operator_reduced(monomial_op("X", k, n - k)))
        chars.append(apply_operator_reduced(monomial_op("Y", k, n - k)))
    assert independence_rank(chars) == 2 * n + 1


def test_independence_rank_detects_dependence():
    chars = [u(1), u(1) * 2]
    assert independence_rank(chars) == 1
