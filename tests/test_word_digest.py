"""Term-level identity of the operator words (J + s)^k o D^l.

The sha256 of the sorted terms of monomial_op(side, k, l, shift), with the
repr of every rational coefficient (so an int and an equal Fraction differ),
followed by the printed word, pins the words behind every basis operator
and minimal current. Grid: both sides, k <= 12, l <= 6 and the shifts
0, +-l/2, +-l and -3/7. A change of how the words are built must leave it
unchanged.
"""

import hashlib
from fractions import Fraction

from kgsym.opalg import monomial_op

DIGEST = "267dc825e274948376ac879c80f1e8b2547d6312f5d42f7d54f6f8b9e1d07912"


def _shifts(l):
    half = Fraction(l, 2)
    return sorted({0, half, -half, l, -l, Fraction(-3, 7)})


def _word_lines():
    for side in ("X", "Y"):
        for k in range(13):
            for l in range(7):
                for shift in _shifts(l):
                    op = monomial_op(side, k, l, shift)
                    terms = [(pq, ij, repr(c))
                             for pq, poly in op.terms.items()
                             for ij, c in poly.terms.items()]
                    yield f"{side} {k} {l} {shift!r}: {sorted(terms)} | {op}"


def test_word_digest():
    text = "\n".join(_word_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST
