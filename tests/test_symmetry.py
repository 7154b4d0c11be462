"""Tests for the symmetry criterion, the determining solver and the bracket."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from kgsym import symmetry
from kgsym.arith import XYPoly, rank, sparse_kernel
from kgsym.jet import ReducedJetPoly, apply_operator_reduced, reduced_J
from kgsym.opalg import monomial_op
from kgsym.symmetry import (DeterminingSystem, SymmetryBasis,
                            chain_dimensions, chain_rows, dimension_table,
                            graded_dimension, independence_rank,
                            is_generalized_symmetry, reduced_bracket,
                            solve_linear_determining)

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
    assert eta.coefficient((("u", 0),))
    assert eta.coefficient((("u", 0),)).is_constant()
    assert solve_linear_determining(1, 3).dim == 4
    assert solve_linear_determining(3, 5).dim == 16


def test_solver_degree_precondition():
    with pytest.raises(ValueError):
        solve_linear_determining(3, 2)


def test_determining_system_shape():
    system = DeterminingSystem.assemble(1, 3)
    # 3 coefficient functions with 10 monomials each
    assert len(system.unknowns) == 30
    assert len(system.images) == 30


def _dense_rows(n, d):
    """The determining equations expanded directly: {(k, a, b): row}, one
    {unknown: value} row per equation, from the coefficient of x^a y^b in
    eta^k_xy + eta^(k-1)_y + eta^(k+1)_x."""
    unknowns = {(k, i, j) for k in range(-n, n + 1)
                for i in range(d + 1) for j in range(d + 1 - i)}
    rows = {}
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
                    rows[(k, a, b)] = row
    return rows


def _weight(unknown):
    k, i, j = unknown
    return i - j - k


@pytest.mark.parametrize("n", range(5))
def test_determining_rows_have_one_weight(n):
    """The images, read by equation, are the determining equations, and
    each equation is reached from unknowns of one weight i - j - k only:
    the dilation x -> lambda x, y -> y / lambda grades the system."""
    for d in range(n + 3):
        system = DeterminingSystem.assemble(n, d)
        rows = {}
        for unknown, image in zip(system.unknowns, system.images):
            for key, value in image.items():
                rows.setdefault(key, {})[unknown] = value
        assert rows == _dense_rows(n, d)
        for row in rows.values():
            assert len({_weight(unknown) for unknown in row}) == 1


def _sympy_matrix(images):
    """The whole matrix built from the images, one row per key, in sympy:
    its nullspace and rank are a reference independent of kgsym.arith."""
    sympy = pytest.importorskip("sympy")
    keys = sorted({key for image in images for key in image})
    return sympy.Matrix([[sympy.Rational(image.get(key, 0))
                          for image in images] for key in keys])


def _dense_kernel(matrix):
    """sympy's nullspace of matrix as sparse {column: value} vectors."""
    return [{c: Fraction(int(v.p), int(v.q)) for c, v in enumerate(vec) if v}
            for vec in matrix.nullspace()]


@pytest.mark.parametrize("n, d", [(1, 3), (2, 4), (3, 5), (0, 8)])
def test_blocked_solve_equals_dense_kernel(n, d):
    system = DeterminingSystem.assemble(n, d)
    kernel = sparse_kernel(system.images)
    matrix = _sympy_matrix(system.images)
    assert kernel == _dense_kernel(matrix)
    assert rank(system.images) == matrix.rank()
    expected = []
    for vec in kernel:
        eta = ReducedJetPoly.zero()
        for col, value in vec.items():
            k, i, j = system.unknowns[col]
            eta = eta + u(k) * XYPoly({(i, j): value})
        expected.append(eta)
    assert list(system.solve().elements) == expected


def _random_map(seed, dense=False):
    """images of a seeded random map: empty images and duplicate columns
    mixed in, unless dense, where each of 9 unknowns reaches all 6 keys."""
    rng = random.Random(seed)
    width, keys = (9, 6) if dense else (rng.randint(1, 25), rng.randint(1, 30))
    images = []
    for _ in range(width):
        roll = rng.random()
        if images and roll < 0.15:
            images.append(dict(rng.choice(images)))
        elif roll < 0.3 and not dense:
            images.append({})
        else:
            size = keys if dense else rng.randint(1, min(2, keys))
            support = rng.sample(range(keys), size)
            images.append({key: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                                         rng.randint(1, 4))
                           for key in support})
    return images


SPARSE_MAPS = {
    # unknown c reaches keys c and c + 1: one block chained through all keys
    "chain": [{c: 1, c + 1: -1} for c in range(8)] + [{0: 1, 8: -1}],
    "empty": [{}, {}, {3: 2}, {}],
    "duplicates": [{5: 1, 0: 2}, {2: 1}, {5: 1, 0: 2}, {2: 1}, {5: 1, 0: 2}],
    "dense": _random_map(7, dense=True),
    # explicit zeros: key 2 holds no equation and links no unknowns
    "explicit_zero": [{0: 1, 2: 0}, {1: Fraction(1, 2), 2: 0}, {0: 3, 1: 0}],
    **{f"random{seed}": _random_map(seed) for seed in range(12)},
}


@pytest.mark.parametrize("name", SPARSE_MAPS)
def test_sparse_kernel_equals_dense_kernel(name):
    images = SPARSE_MAPS[name]
    kernel = sparse_kernel(images)
    matrix = _sympy_matrix(images)
    assert kernel == _dense_kernel(matrix)
    assert rank(images) == matrix.rank()
    for vec in kernel:
        assert list(vec) == sorted(vec)


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
        eta = ReducedJetPoly({(("u", rng.randint(-3, 3)),): XYPoly.one()})
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
    terms = {(("u", rng.randint(-2, 2)),): random_xypoly(rng, allow_zero=False)
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


# Record contracts: SymmetryBasis is an immutable value that checks its
# elements however it is built; DeterminingSystem is built by keyword or
# position and keeps its fields.

def test_symmetry_basis_record_contract():
    basis = SymmetryBasis(order=1, degree=2, elements=(u(1),))
    assert basis == SymmetryBasis(1, 2, (u(1),))
    assert hash(basis) == hash(SymmetryBasis(1, 2, (u(1),)))
    assert basis != SymmetryBasis(1, 3, (u(1),))
    assert repr(basis) == ("SymmetryBasis(order=1, degree=2, "
                           "elements=(ReducedJetPoly(u[1]),))")
    empty = SymmetryBasis(0, 0)
    assert empty.elements == () and empty.dim == 0
    assert repr(empty) == "SymmetryBasis(order=0, degree=0, elements=())"
    for name in ("order", "degree", "elements", "dim"):
        with pytest.raises(AttributeError):
            setattr(basis, name, 0)
    assert basis.order == 1 and basis.elements == (u(1),)


def test_symmetry_basis_rejects_non_symmetry():
    message = "basis element fails the symmetry criterion"
    with pytest.raises(ValueError, match=message):
        SymmetryBasis(order=0, degree=1, elements=(u(0) * X,))
    with pytest.raises(ValueError, match=message):
        SymmetryBasis(0, 1, (u(1), u(0) * X))


def test_determining_system_rejects_negative_bounds():
    with pytest.raises(ValueError) as excinfo:
        DeterminingSystem.assemble(-1, 0)
    assert str(excinfo.value) == "order and degree must be nonnegative"


def test_independence_rank_rejects_nonlinear_characteristics():
    with pytest.raises(ValueError) as excinfo:
        independence_rank([u(0) * u(1)])
    assert str(excinfo.value) == ("independence test expects characteristics "
                                  "linear in the jets")


def test_determining_system_construction():
    assembled = DeterminingSystem.assemble(0, 1)
    system = DeterminingSystem(0, 1, assembled.unknowns, assembled.images)
    by_keyword = DeterminingSystem(order=0, degree=1,
                                   unknowns=assembled.unknowns,
                                   images=assembled.images)
    for s in (assembled, system, by_keyword):
        assert (s.order, s.degree) == (0, 1)
        assert s.unknowns == [(0, 0, 0), (0, 0, 1), (0, 1, 0)]
        assert s.images == [{}, {(1, 0, 0): 1}, {(-1, 0, 0): 1}]
        assert s.solve() == solve_linear_determining(0, 1)
    # DeterminingSystem is a Record: a frozen value, equal by fields,
    # rebuilt through __init__ by copy and pickle; its list fields make it
    # unhashable.
    assert assembled == system == by_keyword
    assert assembled != DeterminingSystem.assemble(0, 2)
    assert repr(assembled) == (
        "DeterminingSystem(order=0, degree=1, "
        "unknowns=[(0, 0, 0), (0, 0, 1), (0, 1, 0)], "
        "images=[{}, {(1, 0, 0): 1}, {(-1, 0, 0): 1}])")
    for name in ("order", "degree", "unknowns", "images"):
        with pytest.raises(AttributeError):
            setattr(assembled, name, 0)
        with pytest.raises(AttributeError):
            delattr(assembled, name)
    for clone in (copy.copy(assembled), copy.deepcopy(assembled),
                  pickle.loads(pickle.dumps(assembled))):
        assert clone == assembled
    with pytest.raises(TypeError):
        hash(assembled)


@pytest.mark.parametrize("max_order", range(9))
def test_dimension_table_matches_separate_solves(max_order):
    # The independent route: each row from its own two solves, the graded
    # dimension as the difference of the orders n and n - 1 at d = n + 2.
    rows = []
    for n in range(max_order + 1):
        cumulative = solve_linear_determining(n, n + 2).dim
        below = solve_linear_determining(n - 1, n + 2).dim if n else 0
        rows.append((n, cumulative - below, cumulative))
    assert dimension_table(max_order) == rows


def test_chain_counts_match_separate_solves():
    # One elimination of the (8, 11) kernel along the chain C(2m) =
    # (m, m + 2), C(2m + 1) = (m, m + 3): each row lies in the set of its
    # pivot, and the rows inside C(2n) and C(2n + 1) count the (n, n + 2)
    # and (n, n + 3) solutions.
    basis = solve_linear_determining(8, 11)
    rows = chain_rows(basis)
    assert len(rows) == basis.dim
    for m, row in rows:
        assert max(map(symmetry._chain_index, row)) == m
    for n in range(9):
        for m, d in ((2 * n, n + 2), (2 * n + 1, n + 3)):
            assert sum(1 for i, _ in rows if i <= m) == (
                solve_linear_determining(n, d).dim)


@pytest.mark.parametrize("max_order", range(6))
def test_chain_dimensions_match_independent_routes(max_order):
    # Every triple read off the one (N, N + 3) elimination against its own
    # routes: the graded rank of graded_dimension and two separate solves.
    rows = chain_rows(solve_linear_determining(max_order, max_order + 3))
    assert chain_dimensions(rows, max_order) == [
        (graded_dimension(n, n + 2), solve_linear_determining(n, n + 2).dim,
         solve_linear_determining(n, n + 3).dim)
        for n in range(max_order + 1)]


@pytest.mark.parametrize("n", range(7))
def test_graded_dimension_matches_separate_solves(n):
    for d in range(n, n + 5):
        below = solve_linear_determining(n - 1, d).dim if n else 0
        assert graded_dimension(n, d) == (
            solve_linear_determining(n, d).dim - below)


def test_dimension_table_solves_once(monkeypatch):
    calls = {"assemble": [], "graded": 0}
    assemble = DeterminingSystem.assemble

    def counted_assemble(order, degree):
        calls["assemble"].append((order, degree))
        return assemble(order, degree)

    def counted_graded(n, d):
        calls["graded"] += 1
        return graded_dimension(n, d)

    monkeypatch.setattr(DeterminingSystem, "assemble",
                        staticmethod(counted_assemble))
    monkeypatch.setattr(symmetry, "graded_dimension", counted_graded)
    assert dimension_table(5) == [(n, 2 * n + 1, (n + 1) ** 2)
                                  for n in range(6)]
    assert calls == {"assemble": [(5, 7)], "graded": 0}
