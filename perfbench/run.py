"""stbclab benchmark: Monte Carlo link sweeps and rank verification.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run runs one gate pass at the reference seed (its outcome must equal
perfbench/reference.json), then repeats fixed passes at the workload seed
for S seconds, timing the workload's set-up in fresh processes between
them.  End-to-end times are normalized to nominal machine speed by a
reference kernel (perfbench/calibrate.py) timed around each pass, and
between the operations of a verify pass.  With
--trace 1 it alternates untraced and traced passes, and the traced ones
report the per-layer split.  A human-readable report goes to standard
output and the last line is one JSON object with keys correct, attempted,
failed and metrics.  Full results, the environment and the trace spans are
written under .perfbench_out/.  See perfbench/README.md for every metric.
"""

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import time
from typing import NamedTuple

from source import SourceMissing, load_package, pin_blas

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 20  # a set-up normally takes under one second
PROBE_KEYS = {"setup_s", "reference_s", "span_seconds"}
MIN_PASSES = 5
PASS_SPAN = "perfbench.pass"


class Timed(NamedTuple):
    """A pass and its times normalized to nominal machine speed."""

    result: object  # workloads.PassResult
    seconds: float
    op_seconds: float


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(root, blas_pin, seed, reference_seed):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                 if blas.get(k) is not None},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_thread_pin": blas_pin,
        "git_commit": _git_commit(root),
        "workload_seed": seed,
        "reference_seed": reference_seed,
    }


def _git_commit(root):
    """HEAD of the checkout, or 'unknown' outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def setup_probe(root, workload, trace):
    """Run the set-up probe in a fresh process.

    Returns (report, None), or (None, why the probe failed).
    """
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
             str(trace)],
            cwd=root, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"set-up probe timed out after {PROBE_TIMEOUT_S} s"
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or [f"exit code {proc.returncode}"]
        return None, lines[-1]
    try:
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        doc = None
    if not isinstance(doc, dict) or not PROBE_KEYS <= doc.keys():
        return None, f"set-up probe printed no valid result: {proc.stdout[-200:]!r}"
    return doc, None


def same_outcome(a, b):
    """Exact equality, except that floats need only agree to 1e-9 relative.

    BLAS picks its kernels by CPU, so float results may differ in the last
    bits from one machine to another; counts and decisions may not.
    """
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and not isinstance(a, bool) and not isinstance(b, bool)
                and math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same_outcome(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_outcome(a[k], b[k]) for k in a)
    return type(a) is type(b) and a == b


def failed_ops(result, op_names, expected=None):
    """Operations of a pass that raised, broke a check or differ from `expected`."""
    failed = dict(result.errors)
    for name in op_names:
        if name in failed:
            continue
        if name not in result.record:
            failed[name] = "missing from the pass result"
        elif expected is not None and not same_outcome(result.record[name],
                                                       expected.get(name)):
            failed[name] = (f"got {result.record[name]}, "
                            f"expected {expected.get(name)}")
    return failed


def run(args, root, blas_pin):
    import workloads
    from calibrate import NOMINAL_S, reference_seconds
    from report import (PASS_SPANS, SETUP_SPANS, layer_metrics, metric_spans,
                        summary, unrecorded_spans)
    from spantrace import Tracer

    workload = workloads.WORKLOADS[args.workload]
    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)[workload.name]
    env = environment(root, blas_pin, args.seed, workloads.REFERENCE_SEED)
    names = workload.op_names

    # Gate: the reference-seed pass must reproduce the stored outcomes.
    gate = workload.run_pass(workloads.REFERENCE_SEED)
    failures = [("gate", failed_ops(gate, names, reference))]
    attempted = len(names)

    last_reference = reference_seconds()

    def timed_pass(run_pass):
        """A pass, with its times normalized to nominal machine speed.

        The reference kernel runs between the pass's timed segments, and
        each segment is scaled by nominal over the mean kernel time on
        either side of it.
        """
        nonlocal last_reference
        kernels = [last_reference]
        result = run_pass(args.seed, lambda: kernels.append(reference_seconds()))
        kernels.append(reference_seconds())
        last_reference = kernels[-1]
        scaled = [(s * 2 * NOMINAL_S / (before + after), timed_op)
                  for (s, timed_op), before, after
                  in zip(result.segments, kernels, kernels[1:])]
        return Timed(result, sum(s for s, _ in scaled),
                     sum(s for s, timed_op in scaled if timed_op))

    probes, probe_errors = [], {}

    def run_probe():
        doc, error = setup_probe(root, workload.name, args.trace)
        if error:
            probe_errors[f"setup-probe-{len(probes) + len(probe_errors)}"] = error
        else:
            probes.append(doc)

    tracer = Tracer()
    untraced, traced, missing = [], [], []
    start = time.perf_counter()
    deadline = start + args.seconds
    while time.perf_counter() < deadline or len(untraced) < MIN_PASSES:
        timed = timed_pass(workload.run_pass)
        first = untraced[0].result.record if untraced else None
        failures.append(("untraced", failed_ops(timed.result, names, first)))
        untraced.append(timed)
        attempted += len(names)
        if args.trace:
            with tracer.installed(workloads.TARGETS) as missing:
                timed = timed_pass(lambda seed, between: tracer.call(
                    PASS_SPAN, workload.run_pass, seed, between))
            # tracing must not change any outcome
            failures.append(("traced", failed_ops(timed.result, names,
                                                  untraced[0].result.record)))
            traced.append(timed)
            attempted += len(names)
        # Spread the set-up probes over the window, so that their median
        # samples the same machine states as the passes; probe time does not
        # count against the window.
        elapsed = (time.perf_counter() - start) / args.seconds
        if len(probes) + len(probe_errors) < min(SETUP_PROBES, SETUP_PROBES * elapsed):
            probe_start = time.perf_counter()
            run_probe()
            last_reference = reference_seconds()
            probe_s = time.perf_counter() - probe_start
            start += probe_s
            deadline += probe_s
    while len(probes) + len(probe_errors) < SETUP_PROBES:
        run_probe()
    failures.append(("setup", probe_errors))
    attempted += SETUP_PROBES
    layers, unrecorded = {}, []
    if args.trace:
        # A target that is gone, or a layer the workload calls that recorded
        # no span, could not be measured: that fails the run, and the layer's
        # metrics are left out rather than read as 0.
        unrecorded = unrecorded_spans(workload.kind, tracer.spans, probes)
        failures.append(("trace", {
            **{f"target {t}": "not found, so not wrapped" for t in missing},
            **{f"span {n}": "the workload calls it, but no span was recorded"
               for n in unrecorded}}))
        attempted += len(workloads.TARGETS) + len(PASS_SPANS[workload.kind]) + len(
            SETUP_SPANS)
        layers = {name: v for name, v in layer_metrics(
            workload.kind, tracer.spans, PASS_SPAN, traced, untraced, probes).items()
            if not set(metric_spans(name)) & set(unrecorded)}
    failed = sum(len(f) for _, f in failures)

    timed = [t for t in untraced if t.result.ops]
    e2e = {
        "ops_per_s": ("1/s", summary([t.result.ops / t.op_seconds for t in timed])),
        "pass_s": ("s", summary([t.seconds for t in timed])),
        "setup_s": ("s", summary([p["setup_s"] * NOMINAL_S / p["reference_s"]
                                  for p in probes])),
        "peak_rss_mb": ("MB", summary(
            [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024])),
    }
    wall = {
        "ops_per_s": ("1/s", summary([t.result.ops / t.result.op_seconds
                                      for t in timed])),
        "pass_s": ("s", summary([t.result.seconds for t in timed])),
        "setup_s": ("s", summary([p["setup_s"] for p in probes])),
    }

    doc = {
        "workload": workload.name,
        "environment": env,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": [{"pass": kind, "op": op, "why": why}
                     for kind, f in failures for op, why in f.items()],
        "end_to_end": {k: {"unit": u, **s} for k, (u, s) in e2e.items()},
        "wall": {k: {"unit": u, **s} for k, (u, s) in wall.items()},
        "per_layer": {k: {"unit": u, **(v if isinstance(v, dict) else {"value": v})}
                      for k, (u, v) in layers.items()},
        "trace_targets_missing": missing,
        "trace_spans_unrecorded": unrecorded,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "reference_outcomes": gate.record,
        "seed_outcomes": untraced[0].result.record,
    }
    print_report(doc, workload, untraced[0].result)
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    stem = os.path.join(root, OUT_DIR,
                        f"{workload.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    if args.trace:
        tracer.write(stem + "-spans.json")

    def value(unit_and_stats):
        unit, stats = unit_and_stats
        return {"value": stats["median"] if isinstance(stats, dict) else stats,
                "unit": unit}

    metrics = layers if args.trace else e2e
    return {"correct": failed == 0 and bool(timed) and bool(probes),
            "attempted": attempted,
            "failed": failed, "metrics": {k: value(v) for k, v in metrics.items()}}


def print_report(doc, workload, sample):
    """Human-readable lines, including the issue-named aliases of each metric."""
    env = doc["environment"]
    print(f"workload {doc['workload']}  seed {env['workload_seed']}  "
          f"commit {env['git_commit']}")
    print(f"env python {env['python']} numpy {env['numpy']} "
          f"blas {env['blas'].get('name')} {env['blas'].get('version')} "
          f"nproc {env['nproc']} pin {env['blas_thread_pin']}")
    e2e = doc["end_to_end"]
    aliases = {"sim": {"ops_per_s": "frames_per_s"},
               "verify": {"ops_per_s": "rank_checks_per_s", "pass_s": "verify_s"}}
    print("  end-to-end times are normalized to nominal machine speed; "
          "raw wall medians follow")
    for name, s in e2e.items():
        alias = aliases[workload.kind].get(name)
        label = f"{name} ({alias})" if alias else name
        wall = doc["wall"].get(name)
        wall_text = f"  wall {wall['median']:.6g}" if wall else ""
        print(f"  {label:34s} {s['median']:.6g} {s['unit']}  "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} n {s['n']}{wall_text}")
    frames = sum(v[0] for v in sample.record.values()) if workload.kind == "sim" else 0
    if frames:
        evals = sum(v[4] for v in sample.record.values())
        print(f"  {'evals_per_frame':34s} {evals / frames:.6g} count (exact)")
    print(f"  {'failed_frac':34s} {doc['failed_frac']:.6g} "
          f"({doc['failed']} of {doc['attempted']} operations)")
    for name, s in doc["per_layer"].items():
        if "value" in s:
            print(f"  {name:34s} {s['value']:.6g} {s['unit']}")
        else:
            tail = s["tail"]
            tail_text = f"p{tail['pct']} {tail['value']:.6g}" if tail else "p- (n<20)"
            print(f"  {name:34s} {s['median']:.6g} {s['unit']}  {tail_text} n {s['n']}")
    for f in doc["failures"]:
        print(f"  FAILED {f['pass']} {f['op']}: {f['why']}")
    if doc["trace_targets_missing"]:
        print(f"  trace targets not found: {', '.join(doc['trace_targets_missing'])}")
    if doc["trace_spans_unrecorded"]:
        print(f"  layers not measured, no spans: "
              f"{', '.join(doc['trace_spans_unrecorded'])}")


def main(argv=None):
    args = parse_args(argv)
    blas_pin = pin_blas()
    root = os.getcwd()
    try:
        load_package(root)
    except SourceMissing as exc:
        print(f"perfbench: {exc}; run from the repository root", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    result = run(args, root, blas_pin)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
