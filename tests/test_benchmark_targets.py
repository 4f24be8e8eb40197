"""The benchmark's tracer still finds and counts the package functions it wraps.

perfbench/workloads.py names each traced function by module and attribute
path, and perfbench/spantrace.py wraps it by replacing that attribute.  A
renamed or removed function is otherwise noticed only by a traced
benchmark run, which reports it missing.  These tests import the benchmark
read-only and check every target against the package on the path.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from stbclab.channel import pam_for_qam
from stbclab.constructions import build_alamouti_block_code
from stbclab.decoders import DecodeProblem, picsic_decode

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """perfbench's (workloads, spantrace) modules, imported from its directory."""
    sys.path.insert(0, str(BENCH))
    try:
        import spantrace
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads, spantrace


def test_every_trace_target_resolves(bench):
    workloads, spantrace = bench
    with spantrace.Tracer().installed(workloads.TARGETS) as missing:
        pass
    assert missing == []


def test_group_search_spans_count_every_search(bench):
    # The search target wraps the module global that pic_decode and
    # picsic_decode call, and its count hook reads the search's arguments
    # and result: pg from args[1], the evaluation count from result[2].
    workloads, spantrace = bench
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
