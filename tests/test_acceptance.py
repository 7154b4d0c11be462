"""Acceptance suite: one test per headline criterion.

Every check is exact (tolerance zero); each test prints one PASS/FAIL line.
The same checks back the `kgsym verify-all` command.
"""

from kgsym import verify


def _report(result):
    print(result.line())
    assert result.passed, f"{result.name}: {result.detail}"


def test_criterion_01_dimension_tables():
    # graded dimension 2n+1 and cumulative (n+1)^2 for n = 0..5, with the
    # degree bound n+2 and a saturation re-check at n+3
    _report(verify.check_dimension_tables(max_order=5))


def test_criterion_02_adjoint_parity():
    # adjoint(basis_op) = (-1)^(k+l) basis_op for k, l <= 4, both families
    _report(verify.check_adjoint_parity())


def test_criterion_03_centrality():
    # the equation operator commutes with every basis word of k+l <= 6
    _report(verify.check_centrality())


def test_criterion_04_structure_constants():
    # [e1,e2]=0, [e1,e3]=e1, [e2,e3]=-e2, e0 central, via the reduced bracket
    _report(verify.check_structure_constants())


def test_criterion_05_variational_parity():
    # variational exactly when k+l is odd, for k+l <= 7
    _report(verify.check_variational_parity())


def test_criterion_06_reduced_lift_counterexample():
    # the cubic dilation word passes the variational criterion, its on-shell
    # re-lift is expected to fail it, and the difference must equal
    # 3xy*J*(DxDy - 1)
    _report(verify.check_reduced_lift_remark())


def test_criterion_07_conservation():
    # every constructed current conserves exactly at its stated order, and
    # single-field characteristics pass the Euler test
    _report(verify.check_conservation())


def test_criterion_08_generating_action():
    # symmetry actions on (-u^2, u_x^2) reproduce the uniform and barred
    # currents componentwise for all skew basis operators with k+l <= 3
    _report(verify.check_generating_action())


def test_criterion_09_counting():
    # 4n-1 verified minimal currents of each order n = 2..5
    _report(verify.check_counting(max_order=5))


def test_criterion_10_independence():
    # the 2n+1 basis-word characteristics have full rank on the
    # exponential solution family for n <= 5
    _report(verify.check_independence(max_order=5))


def test_criterion_11_parser_round_trip():
    # 1000 randomized round trips each for operators and jet polynomials
    _report(verify.check_parser_round_trip())
