"""kgsym benchmark: run one workload for a fixed time and print its metrics.

python3 perfbench/run.py --workload verify_all --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; kgsym is imported from `src/`, so
nothing is built. Every pass runs in a fresh interpreter, one at a time, so
the package's in-process caches start cold as they do for a CLI user. With
`--trace 0` the run times untraced passes and reports the end-to-end metrics
of BENCHMARK.json, scaled to one host speed by a reference loop timed between
the passes; with `--trace 1` it alternates untraced and traced passes and
reports the per-layer metrics. The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`; a results
file with run metadata and every sample goes to `perfbench/results/`.
See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracle
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

HARD_LIMIT_S = 165          # no pass starts or runs past this; exit < 180 s
MIN_CYCLES = 3
# An untraced cycle is an import-only interpreter, one pass and another
# import-only interpreter. So set-up samples are spread over the whole run,
# and every pass lies between two samples of the reference loop.
UNTRACED_CYCLE = ("setup", "plain", "setup")
# Host speed at which the end-to-end times are reported: the speed at which
# workloads.calibrate() takes CALIBRATION_REF_S. Each untraced pass and each
# import-only interpreter times the reference loop once, so its samples are
# spread over the whole run like the times they scale.
CALIBRATION_REF_S = 0.4

# Layers each workload is meant to load; each must record calls > 0.
EXPECTED_LAYERS = {
    "verify_all": tracer.LAYERS,
    "determining": ("arith", "jet", "symmetry", "cli"),
    "conservation": ("arith", "opalg", "jet", "noether"),
}


class SetupError(RuntimeError):
    """A pass process did not reach the point where kgsym is imported."""


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one pass process; killed at `deadline` (a perf_counter time)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), workload,
           str(seed), mode]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest, err = proc.communicate()
    finally:
        watchdog.cancel()
        watchdog.join()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    elapsed_s = time.perf_counter() - start
    if ready != "ready\n":
        raise SetupError(f"{mode} pass of {workload} did not import kgsym "
                         f"(exit {proc.returncode}): {err.strip()[-2000:]}")
    record = None
    lines = rest.splitlines()
    if proc.returncode == 0 and lines:
        try:
            record = json.loads(lines[-1])
        except ValueError:
            record = None
    return {"mode": mode, "setup_s": setup_s, "elapsed_s": elapsed_s,
            "record": record, "stderr": err.strip()[-2000:]}


def run_passes(workload, seed, modes, seconds, start):
    """Repeat the cycle of `modes` until `seconds` are used, with at least
    MIN_CYCLES cycles, never past HARD_LIMIT_S. The cycle is reversed every
    other time, so no mode always runs first."""
    deadline, hard = start + seconds, start + HARD_LIMIT_S
    passes, cycle_times = [], []
    while True:
        cycle_start = time.perf_counter()
        order = modes if len(cycle_times) % 2 == 0 else modes[::-1]
        passes.extend(spawn(workload, seed, mode, hard) for mode in order)
        now = time.perf_counter()
        cycle_times.append(now - cycle_start)
        estimate = statistics.median(cycle_times)
        if now + estimate > hard:
            break
        if len(cycle_times) >= MIN_CYCLES and now + estimate > deadline:
            break
    return passes


def summary(values):
    values = list(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def canonical(outputs) -> str:
    return json.dumps(outputs, sort_keys=True)


def trace_checks(workload, plain_records, traced_records):
    """Tracer coverage, cold-cache and output-equality checks."""
    problems, info = [], {}
    reference = canonical(plain_records[0]["outputs"])
    first = traced_records[0]["trace"]
    for record in traced_records:
        trace = record["trace"]
        if trace["missing"]:
            problems.append(f"tracer targets missing: {trace['missing']}")
        if trace["unwrapped"]:
            problems.append(f"unwrapped references: {trace['unwrapped']}")
        if canonical(record["outputs"]) != reference:
            problems.append("traced outputs differ from untraced outputs")
        calls = {g: s["calls"] for g, s in trace["groups"].items()}
        if (calls != {g: s["calls"] for g, s in first["groups"].items()}
                or trace["counters"] != first["counters"]):
            problems.append("span counts differ between traced passes")
        assembles = calls.get("symmetry.assemble", 0)
        pairs = len(trace["requested_pairs"])
        if assembles != pairs:
            problems.append(f"cold-cache guard: {assembles} assemblies for "
                            f"{pairs} distinct (order, degree) requests")
    layer_calls = {layer: sum(s["calls"] for g, s in first["groups"].items()
                              if g.startswith(layer + "."))
                   for layer in tracer.LAYERS}
    for layer in EXPECTED_LAYERS[workload]:
        if not layer_calls[layer]:
            problems.append(f"layer {layer} recorded no calls")
    info["layer_calls"] = layer_calls
    info["rebound_sites"] = len(first["rebound"])
    info["requested_pairs"] = first["requested_pairs"]
    return problems, info


def layer_metric(name, plain_records, traced_records):
    """Value of one per-layer metric, by name. Times are medians over the
    traced passes; counts repeat exactly, so the first pass gives them."""
    traces = [r["trace"] for r in traced_records]
    first = traces[0]

    def median_of(per_trace):
        return statistics.median(per_trace(t) for t in traces)

    if name == "trace.overhead_s":
        return (statistics.median(r["wall_s"] for r in traced_records)
                - statistics.median(r["wall_s"] for r in plain_records))
    if name in tracer.COUNTERS:
        return first["counters"].get(name, 0)
    if name == "symmetry.requested_pairs":
        return len(first["requested_pairs"])
    prefix, _, field = name.rpartition(".")
    if field == "calls":
        return first["groups"].get(prefix, {}).get("calls", 0)
    if field == "self_s" and prefix in tracer.LAYERS:
        return median_of(lambda t: sum(
            s["self_s"] for g, s in t["groups"].items()
            if g.startswith(prefix + ".")))
    if field == "self_s":
        return median_of(
            lambda t: t["groups"].get(prefix, {}).get("self_s", 0.0))
    if prefix == "verify" and field.endswith("_s"):
        return median_of(
            lambda t: t["groups"].get(name[:-2], {}).get("total_s", 0.0))
    raise KeyError(f"no rule computes per-layer metric {name!r}")


def git_rev() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def work_counters(workload, inputs):
    """Exact input sizes of one pass."""
    if workload == "verify_all":
        return {"max_order": inputs["max_order"],
                "checks": len(oracle.VERIFY_EXPECTED)}
    if workload == "determining":
        return {"dims_max_order": inputs["dims_max_order"],
                "basis_requests": inputs["basis"],
                "basis_unknowns": [(2 * n + 1) * (d + 1) * (d + 2) // 2
                                   for n, d in inputs["basis"]]}
    return {"combinations": len(inputs["combinations"]),
            "basis_operators": sum(map(len, inputs["combinations"])),
            "count_orders": inputs["count_orders"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kgsym" / "__init__.py").is_file():
        print(f"error: no kgsym sources under {ROOT / 'src'}; run from the "
              f"root of a kgsym checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]

    start = time.perf_counter()
    load_start = os.getloadavg()
    inputs = workloads.make_inputs(args.workload, args.seed)
    try:
        # Warm-up: fills the bytecode cache, which users do not pay per run.
        spawn(args.workload, args.seed, "setup", start + HARD_LIMIT_S)
        modes = ("plain", "traced") if args.trace else UNTRACED_CYCLE
        spawned = run_passes(args.workload, args.seed, modes, args.seconds,
                             start)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setup_samples = [p["setup_s"] for p in spawned]
    passes = [p for p in spawned if p["mode"] != "setup"]
    attempted, problems, crashes = 0, [], []
    for p in passes:
        outputs = p["record"]["outputs"] if p["record"] else None
        n, found = oracle.check(args.workload, inputs, outputs)
        attempted += n
        problems.extend(found)
        if outputs is None:
            crashes.append(f"{p['mode']} pass failed: {p['stderr']}")
    failed = len(problems)
    plain = [p["record"] for p in passes
             if p["record"] and p["mode"] == "plain"]
    traced = [p["record"] for p in passes
              if p["record"] and p["mode"] == "traced"]
    if not plain or (args.trace and not traced):
        print("error: no pass completed; " + "; ".join(crashes[:3]),
              file=sys.stderr)
        return 1
    checks = []
    if len({canonical(r["outputs"]) for r in plain}) > 1:
        checks.append("outputs differ between untraced passes")
    # The host's speed drifts by up to 1.8x over minutes and flips between a
    # fast and a slow state within seconds; it slows the passes and the
    # reference loop about alike. Means of interleaved samples integrate over
    # the same stretch of host time, so their ratio cancels the drift, where
    # a median would jump between the two states. Every plain record has a
    # sample, so there is at least one.
    calib_samples = [p["record"]["calib_s"] for p in spawned
                     if p["record"] and "calib_s" in p["record"]]
    mean_wall = statistics.fmean(r["wall_s"] for r in plain)
    speed = CALIBRATION_REF_S / statistics.fmean(calib_samples)
    trace_info = {}
    if args.trace:
        found, trace_info = trace_checks(args.workload, plain, traced)
        checks.extend(dict.fromkeys(found))     # once per distinct problem

    if args.trace:
        values = {m["name"]: layer_metric(m["name"], plain, traced)
                  for m in metric_specs}
    else:
        values = {"wall_s": mean_wall * speed,
                  "setup_s": statistics.fmean(setup_samples) * speed,
                  "peak_rss_mib":
                      statistics.median(r["peak_rss_mib"] for r in plain)}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metric_specs}
    fail_rate = failed / attempted
    correct = failed == 0 and not checks

    samples = {"wall_s": [r["wall_s"] for r in plain],
               "setup_s": setup_samples,
               "peak_rss_mib": [r["peak_rss_mib"] for r in plain],
               "calib_s": calib_samples}
    if traced:
        samples["traced_wall_s"] = [r["wall_s"] for r in traced]
    results = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "metadata": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": (len(os.sched_getaffinity(0))
                      if hasattr(os, "sched_getaffinity") else os.cpu_count()),
            "git_rev": git_rev(),
            "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
            "run_s": time.perf_counter() - start,
        },
        "inputs": inputs,
        "work": work_counters(args.workload, inputs),
        "correct": correct, "attempted": attempted, "failed": failed,
        "fail_rate": fail_rate,
        "problems": (crashes + checks + problems)[:20],
        "metrics": metrics,
        "unscaled": {"mean_wall_s": mean_wall,
                     "median_wall_s":
                         statistics.median(r["wall_s"] for r in plain),
                     "mean_setup_s": statistics.fmean(setup_samples),
                     "median_setup_s": statistics.median(setup_samples),
                     "speed_factor": speed},
        "samples": samples,
        "summary": {name: summary(v) for name, v in samples.items() if v},
    }
    if traced:
        results["trace"] = dict(trace_info, **{
            "counters": traced[0]["trace"]["counters"],
            "groups": traced[0]["trace"]["groups"],
            "edges": traced[0]["trace"]["edges"]})
    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    out_path = (out_dir /
                f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out_path.write_text(json.dumps(results, indent=2) + "\n")

    better = {m["name"]: m["better"] for m in metric_specs}
    print(f"kgsym benchmark  workload={args.workload}  seed={args.seed}  "
          f"trace={args.trace}  passes={len(plain)}+{len(traced)} traced  "
          f"setups={len(setup_samples)}")
    for name, metric in metrics.items():
        print(f"  {name:38s} {metric['value']:>14.6g} {metric['unit']:6s} "
              f"({better[name]} is better)")
    if not args.trace:
        print(f"  {'unscaled mean wall_s':38s} {mean_wall:>14.6g} {'s':6s} "
              f"(host speed factor {speed:.4g})")
    print(f"  {'fail_rate':38s} {fail_rate:>14.6g} {'1':6s} "
          f"(lower is better; {failed} of {attempted} items failed)")
    for problem in (crashes + checks + problems)[:5]:
        print(f"  problem: {problem}")
    print(f"  results: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
