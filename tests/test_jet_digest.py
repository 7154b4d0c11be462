"""Printed-text identity of the jet layer.

The sha256 of the printed results of seeded reduced and free jet
polynomials through *, partial, total_derivative, reduce, euler_operator
and prolonged_action, and of the T, X and characteristic of every minimal
current with kp, lp <= 3, pins the jet layer's output in text and order.
The CLI never prints a free jet, so the golden files do not cover
FreeJetPoly.__str__; this digest does. A change of how jet monomials are
stored must leave it unchanged; a change of the printed form changes it
too, and then the digest is recorded again on purpose.
"""

import hashlib
import random

from kgsym.jet import FreeJetPoly, euler_operator, prolonged_action, reduce
from kgsym.noether import MINIMAL_FAMILIES, current_minimal
from kgsym.verify import random_reduced_jet, random_xypoly

SEED = 20261018

DIGEST = "0f292d9fa378403c99db80a023bf18c1619a7ca187672df12b3c1c083cd3df89"


def _random_free_jet(rng):
    """Up to four terms of jet degree 0 to 3 in u_(a,b), a + b <= 3, built
    with the ring operations."""
    p = FreeJetPoly.zero()
    for _ in range(rng.randint(0, 4)):
        term = FreeJetPoly({(): random_xypoly(rng, allow_zero=False)})
        for _ in range(rng.randint(0, 3)):
            a = rng.randint(0, 3)
            term = term * FreeJetPoly.var(a, rng.randint(0, 3 - a))
        p = p + term
    return p


def _jet_lines():
    rng = random.Random(SEED)
    for i in range(40):
        p = random_reduced_jet(rng, max_order=3, max_degree=3)
        q = random_reduced_jet(rng, max_order=2, max_degree=2)
        yield f"reduced {i}: {p} | {q} | {p * q}"
        for name, k in sorted(p.jet_variables()):
            yield f"  d/d{name}[{k}]: {p.partial(name, k)}"
        yield f"  Dx: {p.total_derivative('x')}"
        yield f"  Dy: {p.total_derivative('y')}"
        yield f"  action: {prolonged_action(q, p)}"
    for i in range(40):
        p = _random_free_jet(rng)
        q = _random_free_jet(rng)
        yield f"free {i}: {p} | {q} | {p * q}"
        for a, b in sorted(p.jet_variables()):
            yield f"  d/du({a},{b}): {p.partial(a, b)}"
        yield f"  Dx: {p.total_derivative('x')}"
        yield f"  Dy: {p.total_derivative('y')}"
        yield f"  reduce: {reduce(p)}"
        yield f"  euler: {euler_operator(p)}"
    for family in MINIMAL_FAMILIES:
        for kp in range(4):
            for lp in range(1 if family == "C1" else 0, 4):
                c = current_minimal(family, kp, lp)
                yield (f"{family} {kp} {lp}: T {c.t} | X {c.x} "
                       f"| char {c.characteristic}")


def test_jet_output_digest():
    text = "\n".join(_jet_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST
