"""Term-level identity of operator composition and the formal adjoint.

The sha256 of the sorted terms ((p, q), (i, j), repr(c)) of each result, with
the repr of every rational coefficient (so an int and an equal Fraction
differ), followed by the printed operator, pins compose, adjoint and
commutator on two sets of inputs:
- 300 seeded pairs random_operator(rng, max_order=6, max_terms=5);
- the grid Dx^p Dy^(5-p) o 3 x^i y^(5-i) for p, i <= 5, and the adjoint of
  its reverse 3 x^i y^(5-i) Dx^p Dy^(5-p).
A change of how the Leibniz rule is computed must leave it unchanged.
"""

import hashlib
import random

from kgsym.arith import XYPoly
from kgsym.opalg import TDOperator, commutator
from kgsym.verify import random_operator

DIGEST = "3082fd577ed812b1a1a031272ae82466d6e7b4ffc7098bb2816bc49034c910e3"


def _line(label, op):
    terms = [(pq, ij, repr(c)) for pq, poly in op.terms.items()
             for ij, c in poly.terms.items()]
    return f"{label}: {sorted(terms)} | {op}"


def _operator_lines():
    for seed in range(300):
        rng = random.Random(seed)
        a = random_operator(rng, max_order=6, max_terms=5)
        b = random_operator(rng, max_order=6, max_terms=5)
        yield _line(f"compose {seed}", a.compose(b))
        yield _line(f"adjoint {seed}", a.adjoint())
        yield _line(f"commutator {seed}", commutator(a, b))
    for p in range(6):
        for i in range(6):
            coefficient = XYPoly({(i, 5 - i): 3})
            derivative = TDOperator({(p, 5 - p): 1})
            yield _line(f"grid {p} {i}", derivative.compose(
                TDOperator({(0, 0): coefficient})))
            yield _line(f"grid adjoint {p} {i}",
                        TDOperator({(p, 5 - p): coefficient}).adjoint())


def test_operator_digest():
    text = "\n".join(_operator_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST
