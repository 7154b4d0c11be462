"""Correctness oracle behind `failed` and `fail_rate`.

It compares report fields, never bytes, so fields added to a report later
(for example a per-check `metrics` dict) do not break it. An item fails when
it raised, when its pass produced no outputs, or when a field differs from
the value the paper states.
"""

from __future__ import annotations

# verify-all check names, in report order, and whether each must pass.
# `reduced-lift counterexample` fails by design (see the README of kgsym).
VERIFY_EXPECTED = (
    ("dimension tables", True),
    ("adjoint parity", True),
    ("centrality of the equation operator", True),
    ("structure constants", True),
    ("variational parity", True),
    ("reduced-lift counterexample", False),
    ("conservation", True),
    ("generating conservation law", True),
    ("conservation-law counting", True),
    ("independence on the solution family", True),
    ("parser round trip", True),
)
CONSERVATION_FLAGS = ("variational", "cl_characteristic", "action_conserved",
                      "action_matches")


def _report(output, command, kind, exit_code):
    """The report of one CLI call, or None when it is not the expected one."""
    if not isinstance(output, dict) or output.get("exit_code") != exit_code:
        return None
    report = output.get("report")
    if not isinstance(report, dict) or report.get("command") != command:
        return None
    result = report.get("result")
    if not isinstance(result, dict) or result.get("kind") != kind:
        return None
    return report


def _verify_all(inputs, outputs):
    problems = []
    report = _report(outputs, "verify-all", "verification", 1)
    checks = report["result"].get("checks", []) if report else []
    for index, (name, passes) in enumerate(VERIFY_EXPECTED):
        check = checks[index] if index < len(checks) else {}
        if check.get("name") != name or check.get("passed") is not passes:
            problems.append(f"check {name!r}: got {check!r}")
    if (report is None or len(checks) != len(VERIFY_EXPECTED)
            or report["result"].get("all_passed") is not False
            or report.get("verified", {}).get("all_passed") is not False):
        problems.append(f"verify-all exit code or all_passed: "
                        f"{outputs!r:.300}")
    return len(VERIFY_EXPECTED) + 1, problems


def _determining(inputs, outputs):
    problems = []
    max_order = inputs["dims_max_order"]
    report = _report(outputs.get("dims"), "dims", "table", 0)
    rows = report["result"].get("rows", []) if report else []
    for n in range(max_order + 1):
        expected = [str(n), str(2 * n + 1), str((n + 1) ** 2)]
        got = rows[n] if n < len(rows) else None
        if got != expected:
            problems.append(f"dims row {n}: {got!r} != {expected!r}")
    if len(rows) > max_order + 1:
        problems.append(f"dims has {len(rows)} rows")
    for (n, d), output in zip(inputs["basis"], outputs.get("basis", [])):
        report = _report(output, "basis", "basis", 0) or {}
        result = report.get("result", {})
        verified = report.get("verified", {})
        dim = (n + 1) ** 2      # saturated: d >= n + 2 adds no solutions
        if (result.get("order") != str(n) or result.get("degree") != str(d)
                or result.get("dim") != str(dim)
                or len(result.get("elements", ())) != dim
                or verified.get("all_pass_symmetry_criterion") is not True):
            problems.append(f"basis ({n}, {d}): {output!r:.200}")
    missing = len(inputs["basis"]) - len(outputs.get("basis", []))
    problems.extend(["basis output missing"] * missing)
    return max_order + 1 + len(inputs["basis"]), problems


def _conservation(inputs, outputs):
    problems = []
    combos = outputs.get("combinations", [])
    for index in range(len(inputs["combinations"])):
        item = combos[index] if index < len(combos) else {}
        if not all(item.get(flag) is True for flag in CONSERVATION_FLAGS):
            problems.append(f"combination {index}: {item!r}")
    counts = outputs.get("counts", [])
    for index, n in enumerate(inputs["count_orders"]):
        got = counts[index] if index < len(counts) else None
        if got != 4 * n - 1:
            problems.append(f"count_order_n_currents({n}) = {got!r}")
    return len(inputs["combinations"]) + len(inputs["count_orders"]), problems


_CHECKS = {"verify_all": _verify_all, "determining": _determining,
           "conservation": _conservation}


def check(workload: str, inputs: dict, outputs) -> tuple[int, list]:
    """(items attempted, one problem string per failed item).

    `outputs` is None when the pass produced none; every item then fails."""
    attempted, problems = _CHECKS[workload](inputs, outputs or {})
    if outputs is None:
        problems = ["pass produced no outputs"] * attempted
    return attempted, problems[:attempted]
