"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines.  Monte Carlo criteria use fixed master seeds, so every
number asserted here is exactly reproducible.
"""

import functools
import json
import time
from fractions import Fraction

import numpy as np

from stbclab import cli
from stbclab.channel import modulate, pam_for_qam, sample_link, transmit
from stbclab.constructions import (
    CodeSpec, Family, build_alamouti_block_code, build_diagonal_code,
    tabulate_tradeoff,
)
from stbclab import decoders
from stbclab.decoders import DecodeProblem, pic_decode, picsic_decode, zf_decode
from stbclab.diversity import (
    certify_alamouti_block, certify_diagonal, falsify_pic, falsify_picsic,
    numerical_rank,
)
from stbclab.lindesign import (
    GroupingScheme, assemble_codeword, design_from_json, equivalent_channel,
    grouping_from_json, vec_complex,
)
from stbclab.rotations import build_rotation, certify_rotation
from stbclab.simharness import SimConfig, run_simulation
from tests.oracles import complement_projector, ml_oracle, zf_oracle
from tests.test_constructions import LAYOUT_N3, LAYOUT_N4, layout_matrix


def report(criterion, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"\n[criterion {criterion:02d}] {tag} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def make_problem(design, grouping, alpha, rng, receive_antennas, snr_db):
    k = design.num_real_symbols
    bits = rng.integers(0, 2, k * alpha.bit_width)
    x = modulate(bits, alpha)
    link = sample_link(design.antennas, receive_antennas, design.delay, snr_db, rng)
    y = vec_complex(transmit(assemble_codeword(design, x), link))
    g = equivalent_channel(design, link.h)
    return DecodeProblem(y, g, grouping, alpha, link.snr), bits


def test_criterion_01_construction_fidelity_diagonal(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "c.json"
    rc = cli.main(["build", "--family", "sec3", "--antennas", "3", "--lambda", "2",
                   "--layers", "4", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    design = design_from_json(json.loads(out.read_text()))
    grouping = grouping_from_json(json.loads((tmp_path / "c.grouping.json").read_text()))
    spec = CodeSpec(Family.DIAGONAL, 3, 2, 4)
    rot = build_rotation(2)
    x = (np.arange(1, 17, dtype=float).reshape(-1, 2) @ rot.entries).ravel()
    got = assemble_codeword(design.with_power_scale(1.0), x)
    layout_ok = np.allclose(got, layout_matrix(LAYOUT_N3, (6, 3)), atol=1e-10)
    ok = (rc == 0 and design.num_real_symbols == 16 and design.delay == 6
          and grouping.num_groups == 8 and spec.rate == Fraction(4, 3)
          and layout_ok and elapsed < 1.0)
    report(1, ok, f"K=16 T=6 g=8 rate=4/3 layout entry-exact, {elapsed:.2f}s")


def test_criterion_02_construction_fidelity_alamouti_block():
    t0 = time.perf_counter()
    design, grouping, spec = build_alamouti_block_code(4, 2)
    rot = build_rotation(2)
    x = (np.arange(1, 17, dtype=float).reshape(-1, 2) @ rot.entries).ravel()
    got = assemble_codeword(design.with_power_scale(1.0), x)
    elapsed = time.perf_counter() - t0
    ok = (design.num_real_symbols == 16 and grouping.num_groups == 8
          and spec.rate == Fraction(4, 3)
          and spec.worst_case_exponent == Fraction(1, 2)
          and np.allclose(got, layout_matrix(LAYOUT_N4, (6, 4)), atol=1e-10)
          and elapsed < 1.0)
    report(2, ok, f"K=16 g=8 rate=4/3 exponent=1/2 block layout exact, {elapsed:.2f}s")


def test_criterion_03_tradeoff_table_regeneration():
    t0 = time.perf_counter()
    checked = 0
    for nt in (2, 4, 6, 8):
        for t in range(nt, 17):
            rows = {(r.family, r.symbols_per_group): r
                    for r in tabulate_tradeoff(nt, t)}
            base3 = Fraction(t - nt + 1, t)
            assert rows[("toeplitz", 1)].rate == base3
            assert rows[("toeplitz", 1)].exponent == 0
            for lam in range(1, nt + 1):
                r = rows[("diagonal", lam)]
                assert r.rate == lam * base3
                assert r.exponent == Fraction(lam - 1, 2)
            r19 = rows[("diagonal_coarse", 2 * nt)]
            assert r19.rate == nt * base3 and r19.exponent == nt
            if t % 2 == 0:
                base4 = Fraction(t - nt + 2, t)
                r = rows[("alamouti_block", nt // 2)]
                assert r.rate == Fraction(nt, 2) * base4
                assert r.exponent == Fraction(nt - 2, 4)
                rc = rows[("alamouti_block_coarse", nt)]
                assert rc.rate == r.rate and rc.exponent == Fraction(nt, 2)
            checked += 1
    # spot values: the N=8, T=12 figure and the published single-code rows
    rows = {(r.family, r.symbols_per_group): r for r in tabulate_tradeoff(8, 12)}
    assert rows[("diagonal", 4)].rate == Fraction(5, 3)
    assert rows[("diagonal", 4)].exponent == Fraction(3, 2)
    assert rows[("alamouti_block", 4)].rate == 2
    assert rows[("alamouti_block", 4)].exponent == Fraction(3, 2)
    assert rows[("alamouti_block_coarse", 8)].exponent == 4
    assert rows[("diagonal_coarse", 16)].rate == Fraction(10, 3)
    assert rows[("diagonal_coarse", 16)].exponent == 8
    c1 = CodeSpec.from_delay("sec3", 2, 3, group_size=2)
    c2 = CodeSpec.from_delay("sec4", 4, 6)
    assert c1.rate == c2.rate == Fraction(4, 3)
    assert c1.worst_case_exponent == c2.worst_case_exponent == Fraction(1, 2)
    e2 = CodeSpec.from_delay("sec3", 4, 6, group_size=4)
    e3 = CodeSpec.from_delay("sec3", 4, 9, group_size=3)
    assert e2.rate == 2 and e2.worst_case_exponent == Fraction(3, 2)
    assert e3.rate == 2 and e3.worst_case_exponent == 1
    elapsed = time.perf_counter() - t0
    report(3, elapsed < 1.0,
           f"all family formulas exact over {checked} (N,T) grids, {elapsed:.2f}s")


def test_criterion_04_single_group_decoders_match_ml():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    alpha = pam_for_qam(4)
    mismatches = 0
    for builder, args in ((build_alamouti_block_code, (2, 1)),
                          (build_diagonal_code, (2, 2, 1))):
        design, _, _ = builder(*args)
        single = GroupingScheme((tuple(range(design.num_real_symbols)),),
                                design.num_real_symbols)
        for _ in range(200):
            problem, _ = make_problem(design, single, alpha, rng, 1, 8.0)
            ml = ml_oracle(problem).decided
            for name in ("ml", "pic", "picsic"):
                got = decoders.decode(problem, name, "exhaustive").decided
                mismatches += not np.array_equal(got, ml)
    elapsed = time.perf_counter() - t0
    report(4, mismatches == 0 and elapsed < 30.0,
           f"ML and PIC/PIC-SIC with one group = brute-force ML on 2x200 links, "
           f"{mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_05_conditioned_equals_exhaustive():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    mismatches = total = 0
    for m in (4, 16):
        alpha = pam_for_qam(m)
        for builder, args in ((build_diagonal_code, (3, 2, 4)),
                              (build_alamouti_block_code, (4, 2))):
            design, grouping, _ = builder(*args)
            for _ in range(1000):
                problem, _ = make_problem(design, grouping, alpha, rng, 2, 10.0)
                a = picsic_decode(problem, "conditioned").decided
                b = picsic_decode(problem, "exhaustive").decided
                mismatches += not np.array_equal(a, b)
                total += 1
    elapsed = time.perf_counter() - t0
    report(5, mismatches == 0 and elapsed < 60.0,
           f"identical decisions on {total} noisy instances, both families, "
           f"M in (4,16), {elapsed:.1f}s")


def test_criterion_06_toeplitz_pic_equals_zf():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    alpha = pam_for_qam(4)
    design, grouping, _ = build_diagonal_code(3, 1, 3)
    mismatches = 0
    for _ in range(200):
        problem, _ = make_problem(design, grouping, alpha, rng, 1, 8.0)
        zf = zf_oracle(problem).decided
        for got in (pic_decode(problem, "conditioned"), zf_decode(problem)):
            mismatches += not np.array_equal(got.decided, zf)
    elapsed = time.perf_counter() - t0
    report(6, mismatches == 0 and elapsed < 10.0,
           f"single-symbol PIC and ZF = least-squares ZF on 200 links, "
           f"{mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_07_rank_falsification_and_certificates():
    t0 = time.perf_counter()
    broken_design, broken_grouping, _ = build_diagonal_code(
        2, 2, 1, rotation=np.eye(2), normalize=False)
    w_pic = falsify_pic(broken_design, broken_grouping, pam_levels=2,
                        trials_per_group=100, rng_seed=7)
    w_sic = falsify_picsic(broken_design, broken_grouping, pam_levels=2,
                           trials_per_group=100, rng_seed=7)
    part_a = (w_pic is not None and w_pic.group_index == 0
              and np.array_equal(w_pic.difference, [2, 0])
              and not w_pic.interference.any()
              and w_sic is not None
              and np.array_equal(w_sic.difference, [2, 0]))

    d3, g3, s3 = build_diagonal_code(3, 2, 4)
    d4, g4, s4 = build_alamouti_block_code(4, 2)
    rot = build_rotation(2)
    no_witness_3 = falsify_picsic(d3, g3, pam_levels=4, trials_per_group=10_000,
                                  rng_seed=7) is None
    no_witness_4 = falsify_picsic(d4, g4, pam_levels=4, trials_per_group=10_000,
                                  rng_seed=7) is None
    certs = certify_diagonal(s3, rot) and certify_alamouti_block(s4, rot)
    elapsed = time.perf_counter() - t0
    ok = part_a and no_witness_3 and no_witness_4 and certs and elapsed < 300.0
    report(7, ok,
           f"broken code: witness a=(2,0), u=0; certified codes: no witness over "
           f"exhaustive a x 10^4 u per group, certificates pass, {elapsed:.0f}s")


def test_criterion_08_complexity_counters():
    rng = np.random.default_rng(808)
    alpha = pam_for_qam(4)
    design, grouping, _ = build_alamouti_block_code(4, 2)
    problem, _ = make_problem(design, grouping, alpha, rng, 2, 10.0)
    res4 = picsic_decode(problem, "conditioned")
    design2, grouping2, _ = build_diagonal_code(4, 4, 3)
    problem2, _ = make_problem(design2, grouping2, alpha, rng, 2, 10.0)
    res2 = picsic_decode(problem2, "conditioned")
    ok = (res4.candidate_evaluations == 16 and res4.per_group_counts == (2,) * 8
          and res2.per_group_counts == (8,) * 6
          and res2.candidate_evaluations == 48)
    report(8, ok, "evaluations: 8*2=16 (four-antenna block code, M=4) and "
                  "6*8=48 (four-antenna full-group code)")


# SNR grid of the criterion-9 slope fits.  It ends at 16 dB because from 20 dB
# up the certified code at N_r = 2 gets fewer than the fit's 50 bit errors in
# 100 000 frames, so those points cannot enter the fit (notes/decisions.md).
SLOPE_GRID_DB = (8.0, 12.0, 14.0, 16.0)


def _slope_config(receive_antennas, rotation):
    return SimConfig(
        family="sec4", antennas=4, layers=2,
        receive_antennas=receive_antennas, qam=4, decoder="picsic",
        search_mode="conditioned", snr_grid_db=SLOPE_GRID_DB,
        min_frame_errors=200, max_frames=100_000, master_seed=2026,
        rotation=rotation,
    )


@functools.lru_cache(maxsize=None)
def _slope_pair(receive_antennas):
    """(certified, identity) sweeps of the criterion-9 code, run once per session.

    Two workers: the result does not depend on the worker count (criterion 12).
    """
    return tuple(run_simulation(_slope_config(receive_antennas, rotation), workers=2)
                 for rotation in ("certified", "identity"))


def _fit(order):
    return "None" if order is None else f"{order:.2f}"


def _slope_verdict(cert, broke):
    """Criterion-9 thresholds and time bound, from the sweeps' own wall times."""
    elapsed = cert.wall_time_s + broke.wall_time_s
    ok = (cert.diversity_order is not None and cert.diversity_order >= 3.0
          and broke.diversity_order is not None and broke.diversity_order <= 2.5
          and elapsed < 900.0)
    return ok, (f"certified fit {_fit(cert.diversity_order)} (need >= 3.0), broken fit "
                f"{_fit(broke.diversity_order)} (need <= 2.5), {elapsed:.0f}s")


def test_criterion_09_empirical_diversity_order():
    """Two-layer rate-4/3 code under PIC-SIC, on the link its guarantee covers.

    The PIC-SIC full-diversity theorem (Guo and Xia, IEEE Trans. IT 2009)
    presupposes an equivalent channel that keeps the groups linearly
    independent, which needs 2*N_r*T >= K real observations.  N_r is the
    smallest receive-antenna count meeting that for the built design (2 here;
    at N_r = 1 the link is overloaded, 12 < 16, and the first four groups are
    seen through one real dimension, see
    test_criterion_09_projected_group_ranks).  There the certified rotation
    must fit a slope >= 3.0 and the identity ablation <= 2.5.  See
    notes/decisions.md for the measurements behind the link and the grid.
    """
    design, _, _ = build_alamouti_block_code(4, 2)
    k, t = design.num_real_symbols, design.delay
    n_r = -(-k // (2 * t))
    assert 2 * n_r * t >= k, f"overloaded link: 2*{n_r}*{t} < {k}"
    ok, detail = _slope_verdict(*_slope_pair(n_r))
    report(9, ok, f"N_r={n_r} (2*N_r*T={2 * n_r * t} >= K={k}), {detail}")


def test_criterion_09_projected_group_ranks():
    """Why criterion 9 needs N_r = 2: the ranks PIC-SIC's projections leave.

    Projecting each group of the two-layer rate-4/3 code onto the complement
    of its later groups' channel columns leaves the first four groups rank 1
    at N_r = 1 and every group rank 2 at N_r = 2, on every seeded draw.  The
    decoder's thresholded QR keeps the same number of rows per group.
    """
    t0 = time.perf_counter()
    design, scheme, _ = build_alamouti_block_code(4, 2)
    order = decoders._cancellation_orders(scheme)[0]
    rng = np.random.default_rng(909)
    seen, kept = {}, {}
    for n_r in (1, 2):
        for _ in range(4):
            g = equivalent_channel(design, sample_link(4, n_r, design.delay, 10.0, rng).h)
            ranks = tuple(
                numerical_rank(complement_projector(g[:, list(scheme.later(i))])
                               @ g[:, list(group)])
                for i, group in enumerate(scheme.groups))
            seen.setdefault(n_r, set()).add(ranks)
            # the groups sit in reverse decode order; a kept row has a nonzero pivot
            pivots = np.diagonal(decoders._ordered_qr(g, np.zeros(len(g)), order)[0])
            ends = np.cumsum([0] + [len(group) for group in reversed(scheme.groups)])
            rows = tuple(int(np.count_nonzero(pivots[s:e]))
                         for s, e in zip(ends, ends[1:]))
            kept.setdefault(n_r, set()).add(rows[::-1])
    elapsed = time.perf_counter() - t0
    expected = {1: {(1,) * 4 + (2,) * 4}, 2: {(2,) * 8}}
    ok = seen == expected and kept == expected and elapsed < 1.0
    report(9, ok, f"(9 cause) projected group ranks by N_r "
                  f"{ {n: sorted(r) for n, r in seen.items()} }, QR rows kept "
                  f"{ {n: sorted(r) for n, r in kept.items()} }, {elapsed:.2f}s")


def test_criterion_09b_diversity_order_well_posed():
    """The same code and thresholds at N_r = 2, where 2*N_r*T = 24 >= K = 16.

    With the observation space covering the symbols, the certified code's
    fitted slope clears 3.0 and the identity-rotation ablation stays below
    2.5, separating full diversity from the broken construction empirically.
    It reads the sweeps criterion 9 runs; see notes/decisions.md.
    """
    ok, detail = _slope_verdict(*_slope_pair(2))
    report(9, ok, f"(9b) {detail}")


def test_criterion_10_power_constraint():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    alpha = pam_for_qam(4)
    corpus = [
        build_diagonal_code(3, 2, 4)[0],
        build_diagonal_code(2, 2, 1)[0],
        build_diagonal_code(4, 1, 3)[0],
        build_alamouti_block_code(2, 1)[0],
        build_alamouti_block_code(4, 2)[0],
    ]
    worst = 0.0
    for design in corpus:
        k, t = design.num_real_symbols, design.delay
        symbols = alpha.levels[rng.integers(0, alpha.size, size=(10_000, k))]
        total = sum(np.sum(np.abs(assemble_codeword(design, row)) ** 2) / t
                    for row in symbols)
        mean = total / len(symbols)
        worst = max(worst, abs(mean - 1.0))
        assert 0.99 <= mean <= 1.01
    elapsed = time.perf_counter() - t0
    report(10, elapsed < 10.0,
           f"E||X||^2/T within [0.99, 1.01] for 5 normalized designs "
           f"(worst offset {worst:.4f}), {elapsed:.1f}s")


def test_criterion_11_rotation_certificates():
    t0 = time.perf_counter()
    deltas = {}
    for dim in (1, 2, 3, 4, 6, 8):
        rot = build_rotation(dim)
        ok, delta = certify_rotation(rot.entries, 3)
        assert ok and delta > 1e-9
        deltas[dim] = delta
    ok_id, delta_id = certify_rotation(np.eye(2), 3)
    elapsed = time.perf_counter() - t0
    ok = not ok_id and delta_id == 0.0 and elapsed < 30.0
    report(11, ok,
           f"certificates pass for dims 1,2,3,4,6,8 (min delta {min(deltas.values()):.2e}); "
           f"identity fails, {elapsed:.1f}s")


def test_criterion_12_reproducibility(tmp_path):
    t0 = time.perf_counter()
    cfg = {
        "family": "sec4", "antennas": 4, "layers": 2, "receive_antennas": 2,
        "qam": 4, "decoder": "picsic", "search_mode": "conditioned",
        "snr_grid_db": [4.0, 8.0], "min_frame_errors": 50, "max_frames": 2048,
        "master_seed": 1212,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for run, workers in (("a", 1), ("b", 8), ("c", 1)):
        path = tmp_path / f"{run}.csv"
        rc = cli.main(["simulate", "--config", str(cfg_path), "--csv", str(path),
                       "--workers", str(workers)])
        assert rc == 0
        outputs.append(path.read_bytes())
    elapsed = time.perf_counter() - t0
    ok = outputs[0] == outputs[1] == outputs[2]
    report(12, ok, f"byte-identical CSV for workers 1 and 8 and repeat runs, "
                   f"{elapsed:.0f}s")
