"""Coefficient identity of the minimal conserved currents.

The sha256 of the repr of every coefficient of T, X and the characteristic
of every minimal current of order n <= 8, in all four families, pins how
current_minimal builds them: 3 and Fraction(3) are equal but print
differently, so a construction that returns equal currents with other
coefficient types changes the digest. tests/test_jet_digest.py pins the
printed form of the currents with kp, lp <= 3.
"""

import hashlib

from kgsym.noether import current_minimal, minimal_family_members

DIGEST = "bc8ef4979fd3afcd155795e3895d2c5d7851f68795d26c2440353f80d84fe786"


def _reprs(p):
    return sorted((mono, key, repr(c)) for mono, poly in p.terms.items()
                  for key, c in poly.terms.items())


def test_minimal_current_digest():
    lines = []
    for n in range(1, 9):
        for family, kp, lp in minimal_family_members(n):
            c = current_minimal(family, kp, lp)
            lines.append(f"{family} {kp} {lp} {c.order}: T {_reprs(c.t)} | "
                         f"X {_reprs(c.x)} | char {_reprs(c.characteristic)}")
    assert len(lines) == 136
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == DIGEST
