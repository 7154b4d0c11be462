"""Element-for-element identity of the determining solver's bases.

The sha256 of the lines f"{n} {d} {eta}", over every element of
solve_linear_determining(n, d) for 34 (n, d) pairs (735 elements), pins
the solver's output in text and order. A refactor of the solver must leave
the digest unchanged; a change of the printed form of characteristics
changes it too, and then the digest is recorded again on purpose.
"""

import hashlib

from kgsym.symmetry import solve_linear_determining

PAIRS = ([(n, d) for n in range(7) for d in range(n, n + 4)]
         + [(0, 22), (1, 14), (2, 11), (3, 9), (7, 9), (8, 10)])

DIGEST = "40cceda50487a61d09d14694fabb52a7664a52690fb68659b4f0467737c76bfd"


def test_solver_output_digest():
    lines = [f"{n} {d} {eta}" for n, d in PAIRS
             for eta in solve_linear_determining(n, d).elements]
    assert len(PAIRS) == 34
    assert len(lines) == 735
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGEST
