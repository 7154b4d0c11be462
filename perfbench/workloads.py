"""Workload inputs and one benchmark pass.

`run.py` imports this module only for `make_inputs`, which needs no kgsym
import. Run as a script, this module is one pass in a fresh interpreter:

    PYTHONPATH=src python3 perfbench/workloads.py WORKLOAD SEED MODE

MODE is `setup` (import kgsym, report ready, time the reference loop),
`plain` (one untraced pass, then the reference loop) or `traced` (one pass
under the outside-in tracer). The script writes `ready` once kgsym is
imported, then one JSON line with the pass's wall time, peak RSS, outputs,
the reference loop's time and, when traced, the tracer's report.
"""

from __future__ import annotations

import random

WORKLOADS = ("verify_all", "determining", "conservation")

# verify_all: the headline command, with its own fixed inputs.
VERIFY_MAX_ORDER = 5

# determining: the dims table, then distinct tall (rows > cols) basis
# requests. The pool holds pairs whose solve costs about the same, so the
# seed changes which systems are solved but not the size of the pass; none
# of them is a pair the dims table already solves.
DIMS_MAX_ORDER = 5
BASIS_POOL = ((0, 22), (1, 14), (2, 11), (3, 9))
BASIS_REQUESTS = 2

# conservation: every skew basis shape (k, l) with odd k + l <= MAX_TOTAL,
# REPEATS times, shuffled into combinations of GROUP operators. The multiset
# of shapes is fixed, so the seed moves kinds, coefficients and grouping but
# not the amount of work.
CONSERVATION_MAX_TOTAL = 9
CONSERVATION_REPEATS = 2
CONSERVATION_GROUP = 3
COUNT_ORDERS = tuple(range(2, 9))

# Reference loop: fixed pure-Python work of kgsym's two kinds that calls no
# kgsym code. A sparse rational matrix is built as dense rows of Fractions and
# each row is scaled to integers, the work that dominates the determining
# solver at these sizes (RationalMatrix construction and the integer rows of
# nullspace). Then Fractions are summed into a dict keyed by exponent tuples,
# the work of the polynomial kernel. Its time measures the host's speed at
# the moment, so the end-to-end times can be scaled to one host speed (see
# run.py). It takes about 0.4 s on a 2-core Xeon at 2.0 GHz with Python
# 3.11.7.
CALIBRATION_MATRIX = (240, 260)
CALIBRATION_TERMS = 15000


def make_inputs(workload: str, seed: int) -> dict:
    """The inputs of one pass; the same seed gives the same inputs."""
    rng = random.Random(seed)
    if workload == "verify_all":
        return {"max_order": VERIFY_MAX_ORDER}
    if workload == "determining":
        pairs = rng.sample(BASIS_POOL, BASIS_REQUESTS)
        return {"dims_max_order": DIMS_MAX_ORDER,
                "basis": [list(pair) for pair in pairs]}
    if workload == "conservation":
        shapes = [(k, total - k)
                  for total in range(1, CONSERVATION_MAX_TOTAL + 1, 2)
                  for k in range(total + 1)] * CONSERVATION_REPEATS
        rng.shuffle(shapes)
        terms = []
        for k, l in shapes:
            kind = "Q" if l == 0 else rng.choice(("Q", "Qbar"))
            num = rng.choice([v for v in range(-9, 10) if v])
            terms.append([kind, k, l, f"{num}/{rng.randint(1, 9)}"])
        return {"combinations": [terms[i:i + CONSERVATION_GROUP]
                                 for i in range(0, len(terms),
                                                CONSERVATION_GROUP)],
                "count_orders": list(COUNT_ORDERS)}
    raise ValueError(f"unknown workload {workload!r}")


def calibrate() -> float:
    """Seconds the reference loop takes now.

    The cyclic garbage collector is off while it runs, so its time does not
    depend on how many objects the pass before it left alive."""
    import gc
    import time
    from fractions import Fraction
    from math import gcd

    n, m = CALIBRATION_MATRIX
    gc.disable()
    try:
        start = time.perf_counter()
        state, scaled = 12345, []
        for _ in range(n):
            row = []
            for _ in range(m):
                state = (state * 1103515245 + 12345) % 2**31
                row.append(Fraction(state % 7 - 3, state % 5 + 1)
                           if state % 97 < 3 else Fraction(0))
            den = 1
            for v in row:
                if v:
                    den = den * v.denominator // gcd(den, v.denominator)
            scaled.append([int(v * den) for v in row])
        acc = {}
        for i in range(CALIBRATION_TERMS):
            key = (i % 37, i % 11)
            acc[key] = (acc.get(key, Fraction(0))
                        + Fraction(i % 13 + 1, i % 7 + 1)
                        * Fraction(3, i % 5 + 2))
        return time.perf_counter() - start
    finally:
        gc.enable()


def _cli(argv):
    """Run the CLI in-process; returns its exit code and parsed JSON report."""
    import contextlib
    import io
    import json

    from kgsym import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(["--format", "json", *argv])
    text = buffer.getvalue()
    return {"exit_code": code, "report": json.loads(text) if text else None}


def _guarded(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # an item that raises is a failed item
        return {"error": f"{type(exc).__name__}: {exc}"}


def _conservation_item(terms, generating):
    from fractions import Fraction

    from kgsym import jet, noether, opalg

    op = opalg.TDOperator.zero()
    for kind, k, l, coeff in terms:
        op = op + opalg.basis_op(kind, k, l).scale(Fraction(coeff))
    current = noether.current_Ctilde(op)
    eta = jet.apply_operator_reduced(op).total_derivative("y") * Fraction(1, 2)
    action = noether.symmetry_action_on_current(eta, generating)
    return {"variational": noether.is_variational_linear(op),
            "cl_characteristic":
                noether.is_cl_characteristic(current.characteristic),
            "action_conserved": action.is_conserved,
            "action_matches": action.t == current.t and action.x == current.x}


def run_pass(workload: str, inputs: dict):
    """Every request of one pass, in order; returns the outputs to check.

    kgsym is reached through module attributes at call time, so that a
    tracer installed before the pass sees every call."""
    if workload == "verify_all":
        return _guarded(_cli, ["verify-all", "--max-order",
                               str(inputs["max_order"])])
    if workload == "determining":
        return {"dims": _guarded(_cli, ["dims", "--max-order",
                                        str(inputs["dims_max_order"])]),
                "basis": [_guarded(_cli, ["basis", "--order", str(n),
                                          "--degree", str(d)])
                          for n, d in inputs["basis"]]}
    from kgsym import noether

    generating = noether.current_minimal("C2", 0, 0)
    return {"combinations": [_guarded(_conservation_item, terms, generating)
                             for terms in inputs["combinations"]],
            "counts": [_guarded(noether.count_order_n_currents, n)
                       for n in inputs["count_orders"]]}


def _main(argv) -> int:
    import json
    import resource
    import sys
    import time

    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    import kgsym.cli  # noqa: F401  (set-up ends once kgsym is imported)

    channel = sys.stdout
    channel.write("ready\n")
    channel.flush()
    if mode == "setup":
        channel.write(json.dumps({"calib_s": calibrate()}) + "\n")
        channel.flush()
        return 0
    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    inputs = make_inputs(workload, seed)
    start = time.perf_counter()
    outputs = run_pass(workload, inputs)
    wall_s = time.perf_counter() - start
    record = {"wall_s": wall_s,
              "peak_rss_mib":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "outputs": outputs}
    if tracer is not None:
        record["trace"] = tracer.report()
    else:   # after the pass, so it changes nothing the pass measures
        record["calib_s"] = calibrate()
    channel.write(json.dumps(record) + "\n")
    channel.flush()
    return 0


if __name__ == "__main__":
    import sys
    sys.exit(_main(sys.argv[1:]))
