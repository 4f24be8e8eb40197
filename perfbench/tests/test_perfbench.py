"""Tests of the benchmark's own logic.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from source import load_package, pin_blas  # noqa: E402

pin_blas()
load_package(ROOT)

import report  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spantrace import Target, Tracer  # noqa: E402
from stbclab import constructions, diversity, simharness  # noqa: E402


def _tiny_config():
    return simharness.SimConfig(
        family="sec4", antennas=4, layers=2, receive_antennas=2, qam=4,
        decoder="picsic", search_mode="conditioned", snr_grid_db=(6.0, 12.0),
        min_frame_errors=7, max_frames=6, master_seed=11)


def _originals():
    return {(t.module, t.attr): _lookup(t) for t in workloads.TARGETS}


def _lookup(target):
    owner = sys.modules[target.module]
    *path, leaf = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return vars(owner)[leaf]


def test_wrappers_leave_simulation_results_unchanged_and_are_restored():
    before = _originals()
    plain = simharness.run_simulation(_tiny_config())
    tracer = Tracer()
    with tracer.installed(workloads.TARGETS) as missing:
        traced = simharness.run_simulation(_tiny_config())
    assert missing == []
    assert traced.points == plain.points
    names = {s.name for s in tracer.spans}
    assert {"simharness.frame", "decoders.decode", "decoders.group_search",
            "channel.sample_link", "lindesign.equivalent_channel"} <= names
    frames = [s for s in tracer.spans if s.name == "simharness.frame"]
    assert len(frames) == 12 and len({s.frame for s in frames}) == 12
    for s in tracer.spans:
        if s.name == "decoders.group_search":
            parent = tracer.spans[s.parent]
            assert parent.name == "decoders.decode" and parent.frame == s.frame
    assert _originals() == before


def test_wrappers_are_restored_when_the_wrapped_code_raises():
    before = _originals()
    with pytest.raises(ValueError):
        with Tracer().installed(workloads.TARGETS):
            simharness.run_simulation(
                simharness.SimConfig(family="sec5", antennas=4, layers=2,
                                     snr_grid_db=(1.0,)))
    assert _originals() == before


def test_missing_targets_are_reported_not_wrapped():
    with Tracer().installed([Target("stbclab.simharness", "no_such_function", "x"),
                             Target("stbclab.no_such_module", "f", "y")]) as missing:
        pass
    assert missing == ["stbclab.simharness:no_such_function",
                       "stbclab.no_such_module:f"]


def test_a_layer_that_records_no_span_is_reported_unmeasured():
    targets = [t for t in workloads.TARGETS if t.name != "decoders.group_search"]
    tracer = Tracer()
    with tracer.installed(targets):
        simharness.run_simulation(_tiny_config())
    probe = {"span_seconds": {n: 1e-3 for n in report.SETUP_SPANS}}
    assert report.unrecorded_spans("sim", tracer.spans, [probe]) == [
        "decoders.group_search"]
    assert report.unrecorded_spans("sim", tracer.spans, []) == [
        "decoders.group_search", *report.SETUP_SPANS]
    with open(ROOT / "BENCHMARK.json") as f:
        metrics = [m["name"] for m in json.load(f)["per_layer"]]
    required = {n for spans in report.PASS_SPANS.values() for n in spans}
    assert all(set(report.metric_spans(m)) <= required | set(report.SETUP_SPANS)
               for m in metrics)
    unmeasured = {m for m in metrics
                  if "decoders.group_search" in report.metric_spans(m)}
    assert unmeasured == {"decoders.group_search_us", "decoders.projection_us",
                          "decoders.search_gflops",
                          "decoders.group_searches_per_frame",
                          "decoders.evals_per_group_search"}


def test_a_failed_setup_probe_is_an_error_not_a_crash(monkeypatch):
    def timeout(*args, **kwargs):
        raise subprocess.TimeoutExpired(args[0], run.PROBE_TIMEOUT_S)

    monkeypatch.setattr(run.subprocess, "run", timeout)
    doc, error = run.setup_probe(str(ROOT), "sim-sec4-picsic", 0)
    assert doc is None and "timed out" in error

    for stdout in ("", "not json\n", '{"setup_s": 0.2}\n'):
        monkeypatch.setattr(run.subprocess, "run", lambda *a, out=stdout, **k:
                            subprocess.CompletedProcess(a[0], 0, out, ""))
        doc, error = run.setup_probe(str(ROOT), "sim-sec4-picsic", 0)
        assert doc is None and "no valid result" in error


def test_rank_check_formula_matches_hand_counts():
    # identity-rotation sec3(2,2,1), PIC, 2-PAM: differences are ordered
    # (2,2), (2,0), ...; the witness (2,0) in group 1 stops the search after
    # two difference batches of 1 + 2*2 + 100 probes each.
    _, scheme, _ = constructions.build_diagonal_code(2, 2, 1, rotation=np.eye(2),
                                                     normalize=False)
    witness = {"group": 1, "difference": [2, 0]}
    assert workloads.rank_checks(scheme, 2, 100, scheme.complement, witness) == 210

    # sec4(4,2), PIC-SIC, 4-PAM, 10 trials: 8 groups of 7^2 - 1 = 48
    # differences; later-group interference of 14, 12, ..., 2, 0 symbols gives
    # 39 + 35 + 31 + 27 + 23 + 19 + 15 + 1 = 190 probes per difference.
    _, scheme4, _ = constructions.build_alamouti_block_code(4, 2)
    assert workloads.rank_checks(scheme4, 4, 10, scheme4.later) == 48 * 190
    # sec3(3,2,4), PIC: every group sees 14 interfering symbols, 39 probes.
    _, scheme3, _ = constructions.build_diagonal_code(3, 2, 4)
    assert workloads.rank_checks(scheme3, 4, 10, scheme3.complement) == 8 * 48 * 39


def test_rank_check_formula_matches_the_falsifier_batches(monkeypatch):
    """Each eigvalsh batch the falsifier runs is one difference x its probes."""
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        seen.append(a.shape[0])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    design, scheme, _ = constructions.build_alamouti_block_code(4, 2)
    assert diversity.falsify_picsic(design, scheme, 4, 10, rng_seed=3) is None
    assert sum(seen) == workloads.rank_checks(scheme, 4, 10, scheme.later)


def test_gate_trips_on_a_perturbed_reference():
    with open(BENCH / "reference.json") as f:
        reference = json.load(f)
    workload = workloads.WORKLOADS["sim-sec4-picsic"]
    result = workload.run_pass(workloads.REFERENCE_SEED)
    expected = reference[workload.name]
    assert run.failed_ops(result, workload.op_names, expected) == {}

    perturbed = json.loads(json.dumps(expected))
    perturbed["snr=8.0"][1] += 1  # one more bit error
    failed = run.failed_ops(result, workload.op_names, perturbed)
    assert list(failed) == ["snr=8.0"]


def test_verify_expectations_hold_and_trip():
    ok_witness = {"group": 1, "difference": [2, 0], "interference": [0.0, 0.0],
                  "rank": 1}
    assert workloads.expectation_problem("falsify_pic:identity-sec3(2,2,1)",
                                         ok_witness) == ""
    assert workloads.expectation_problem("falsify_pic:identity-sec3(2,2,1)", None)
    assert workloads.expectation_problem("falsify_picsic:sec4(4,2)", ok_witness)
    assert workloads.expectation_problem("certify_rotation:dim3", [False, 0.0])
    assert workloads.expectation_problem("certify_diagonal:sec3(3,2,4)", False)


def test_run_fails_without_printing_a_result_when_the_source_is_absent(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-sec4-picsic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_outcome_comparison_tolerates_only_last_bits_of_floats():
    assert run.same_outcome([True, 0.1], [True, 0.1 * (1 + 1e-12)])
    assert not run.same_outcome([True, 0.1], [True, 0.1 * (1 + 1e-6)])
    assert not run.same_outcome([100, 3], [100, 4])
    assert not run.same_outcome(1, True)
    assert run.same_outcome(None, None) and not run.same_outcome(None, {})
