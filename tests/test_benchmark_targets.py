"""The benchmark's tracer still finds and counts the package functions it wraps.

perfbench/workloads.py names each traced function by module and attribute
path, and perfbench/spantrace.py wraps it by replacing that attribute.  A
renamed or removed function is otherwise noticed only by a traced
benchmark run, which reports it missing.  A count hook that no longer fits
its function's arguments raises inside the traced pass alone.  These tests
import the benchmark read-only and check every target against the package
on the path, run each workload's pass with and without the tracer, and
check the untraced pass at the reference seed against the outcomes the
benchmark's gate holds it to (perfbench/reference.json).
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from stbclab.channel import pam_for_qam
from stbclab.constructions import build_alamouti_block_code
from stbclab.decoders import DecodeProblem, picsic_decode

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ["sim-sec4-picsic", "sim-sec3-pic-qam64", "sim-sec4-overloaded", "verify-falsify"]


@pytest.fixture(scope="module")
def bench():
    """perfbench's report, run, spantrace and workloads modules, from its directory."""
    sys.path.insert(0, str(BENCH))
    try:
        import report
        import run
        import spantrace
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return SimpleNamespace(report=report, run=run, spantrace=spantrace,
                           workloads=workloads)


def test_every_trace_target_resolves(bench):
    workloads, spantrace = bench.workloads, bench.spantrace
    with spantrace.Tracer().installed(workloads.TARGETS) as missing:
        pass
    assert missing == []


def test_group_search_spans_count_every_search(bench):
    # The search target wraps the module global that pic_decode and
    # picsic_decode call, and its count hook reads the search's arguments
    # and result: pg from args[1], the evaluation count from result[2].
    workloads, spantrace = bench.workloads, bench.spantrace
    search = [t for t in workloads.TARGETS if t.attr == "group_joint_decode"]
    assert len(search) == 1
    design, scheme, _ = build_alamouti_block_code(4, 2)
    rng = np.random.default_rng(3)
    g = rng.standard_normal((2 * 2 * design.delay, design.num_real_symbols))
    problem = DecodeProblem(rng.standard_normal(len(g)), g, scheme, pam_for_qam(4), 10.0)
    tracer = spantrace.Tracer()
    with tracer.installed(search) as missing:
        result = picsic_decode(problem, "conditioned")
    assert missing == []
    counts = [s.count for s in tracer.spans if s.name == search[0].name]
    assert [evals for evals, _ in counts] == list(result.per_group_counts)
    assert all(isinstance(macs, int) and macs > 0 for _, macs in counts)


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_pass_reproduces_the_untraced_pass(bench, name):
    # A count hook that raises fails the traced pass; one that records no
    # count leaves its span's count at None, which the report cannot sum.
    workloads, spantrace, report, run = (bench.workloads, bench.spantrace,
                                         bench.report, bench.run)
    workload = workloads.WORKLOADS[name]
    untraced = workload.run_pass(workloads.REFERENCE_SEED)
    tracer = spantrace.Tracer()
    with tracer.installed(workloads.TARGETS) as missing:
        traced = tracer.call(run.PASS_SPAN, workload.run_pass,
                             workloads.REFERENCE_SEED, lambda: None)
    assert missing == []
    assert untraced.errors == {} and traced.errors == {}
    assert traced.record == untraced.record
    recorded = {s.name for s in tracer.spans}
    assert set(report.PASS_SPANS[workload.kind]) <= recorded
    traced, untraced = ([run.Timed(p, p.seconds, p.op_seconds)]
                        for p in (traced, untraced))
    report.layer_metrics(workload.kind, tracer.spans, run.PASS_SPAN, traced,
                         untraced, [])


@pytest.mark.parametrize("name", WORKLOADS)
def test_reference_seed_pass_passes_the_gate(bench, name):
    # The benchmark's gate: every operation of the pass at the reference
    # seed reproduces its stored outcome, counts and decisions included.
    workload = bench.workloads.WORKLOADS[name]
    reference = json.loads((BENCH / "reference.json").read_text())[name]
    result = workload.run_pass(bench.workloads.REFERENCE_SEED)
    assert bench.run.failed_ops(result, workload.op_names, reference) == {}


def test_sim_pass_searches_every_group_of_every_frame(bench):
    # Frames are decoded as a stack per range, outside the frame spans, but
    # every group of every frame still has its own search span: sec4(4,2)
    # has 8 groups of n = 2 symbols, each searched on an n x n block, so
    # each span's multiply-adds are evals * n * (n + 1).
    workloads, spantrace, run = bench.workloads, bench.spantrace, bench.run
    workload = workloads.WORKLOADS["sim-sec4-picsic"]
    tracer = spantrace.Tracer()
    with tracer.installed(workloads.TARGETS) as missing:
        result = tracer.call(run.PASS_SPAN, workload.run_pass,
                             workloads.REFERENCE_SEED, lambda: None)
    assert missing == [] and result.errors == {}
    frames = sum(record[0] for record in result.record.values())
    assert frames == result.ops == len(
        [s for s in tracer.spans if s.name == "simharness.frame"])
    searches = [s.count for s in tracer.spans if s.name == "decoders.group_search"]
    assert len(searches) == frames * 8
    assert all(macs == evals * 2 * 3 for evals, macs in searches)
