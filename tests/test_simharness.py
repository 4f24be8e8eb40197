import json
import os
import re
import subprocess
import sys

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import stbclab
from stbclab.channel import sample_link
from stbclab.lindesign import equivalent_channel
from stbclab.simharness import (
    CSV_HEADER, FIT_MIN_BIT_ERRORS, FRAME_BATCH, SimConfig, SimResult, SnrPointResult,
    _FrameSeed, _SimContext, _frame_seeds, _raw_bits, fit_diversity, render_ber_curves,
    render_scatter, render_tradeoff, run_simulation,
)
from tests.oracles import frame_oracle


def tiny_config(**overrides):
    base = dict(
        family="sec4", antennas=2, layers=1, receive_antennas=1, qam=4,
        decoder="picsic", search_mode="conditioned", snr_grid_db=(6.0, 10.0),
        min_frame_errors=20, max_frames=600, master_seed=77,
    )
    base.update(overrides)
    return SimConfig(**base)


def fit_point(snr_db, ber, bit_errors=100):
    """A sweep point with bit error rate `ber`: one bit a frame."""
    return SnrPointResult(snr_db, round(bit_errors / ber) if bit_errors else 1000,
                          bit_errors, 0, 0, 0, 0, 1, 1)


class TestEstimateDiversityOrder:
    """fit_diversity, the one diversity fit of a sweep."""

    def test_exact_quartic_law(self):
        pts = [fit_point(10.0, 1e-1), fit_point(20.0, 1e-5), fit_point(30.0, 1e-9)]
        order, window = fit_diversity(pts)
        assert abs(order - 4.0) < 1e-9 and window == (10.0, 20.0, 30.0)

    def test_exact_linear_law(self):
        pts = [fit_point(10.0, 0.2), fit_point(20.0, 0.02), fit_point(30.0, 0.002)]
        assert abs(fit_diversity(pts)[0] - 1.0) < 1e-9

    def test_zero_ber_points_excluded(self):
        # points below FIT_MIN_BIT_ERRORS, zero errors included, stay out
        pts = [fit_point(10.0, 1e-2), fit_point(20.0, 1e-4),
               fit_point(30.0, 1e-3, FIT_MIN_BIT_ERRORS - 1), fit_point(40.0, 0.0, 0)]
        order, window = fit_diversity(pts)
        assert abs(order - 2.0) < 1e-9 and window == (10.0, 20.0)

    def test_insufficient_points(self):
        assert fit_diversity([]) == (None, ())
        pts = [fit_point(10.0, 1e-2), fit_point(20.0, 1e-3, FIT_MIN_BIT_ERRORS - 1)]
        assert fit_diversity(pts) == (None, ())

    def test_window_selects_last_points(self):
        pts = [fit_point(0.0, 0.5), fit_point(10.0, 1e-1), fit_point(20.0, 1e-3),
               fit_point(30.0, 1e-5)]
        order, window = fit_diversity(pts)
        assert abs(order - 2.0) < 1e-9 and window == (10.0, 20.0, 30.0)


class TestRunSimulation:
    def test_same_seed_same_result(self):
        cfg = tiny_config()
        a = run_simulation(cfg)
        b = run_simulation(cfg)
        assert a == b  # wall time excluded from comparison

    def test_worker_count_invariance(self):
        cfg = tiny_config()
        a = run_simulation(cfg, workers=1)
        b = run_simulation(cfg, workers=2)
        assert a == b

    def test_worker_counts_split_a_partial_batch_alike(self):
        # 300 frames a point: a full batch, then a partial one that two and
        # three workers split into ranges of different sizes
        cfg = tiny_config(snr_grid_db=(2.0, 8.0), min_frame_errors=10_000, max_frames=300)
        assert cfg.max_frames % FRAME_BATCH
        one = run_simulation(cfg, workers=1)
        assert [p.frames for p in one.points] == [300, 300]
        for workers in (2, 3):
            assert run_simulation(cfg, workers=workers).points == one.points

    # Configurations whose frame ranges must not depend on how they are split.
    SPLIT_CASES = {
        "picsic-conditioned-nr1": dict(family="sec4", antennas=4, layers=2,
                                       receive_antennas=1, search_mode="conditioned"),
        "picsic-conditioned-nr2": dict(family="sec4", antennas=4, layers=2,
                                       receive_antennas=2, search_mode="conditioned"),
        "picsic-exhaustive-nr1": dict(family="sec4", antennas=4, layers=2,
                                      receive_antennas=1, search_mode="exhaustive"),
        "picsic-exhaustive-nr2": dict(family="sec4", antennas=4, layers=2,
                                      receive_antennas=2, search_mode="exhaustive"),
        "sec3-pic-16qam": dict(family="sec3", antennas=4, group_size=4, layers=2,
                               receive_antennas=2, qam=16, decoder="pic",
                               search_mode="exhaustive"),
        "ml": dict(family="sec3", antennas=2, group_size=2, layers=1, decoder="ml",
                   search_mode="exhaustive"),
        "zf": dict(family="sec4", antennas=4, layers=2, receive_antennas=2, decoder="zf"),
    }

    @staticmethod
    @lru_cache(maxsize=None)
    def split_context(case):
        cfg = SimConfig(**TestRunSimulation.SPLIT_CASES[case], snr_grid_db=(0.0, 8.0, 16.0),
                        master_seed=21)
        return _SimContext(cfg)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(sorted(SPLIT_CASES)), st.integers(0, 2), st.integers(0, 40),
           st.integers(1, 12))
    def test_range_is_the_sum_of_its_frames(self, case, si, lo, size):
        # A range decoded as one stack counts what its frames decoded one
        # at a time count: errors and evaluations add, the maximum is the
        # largest frame's.
        ctx = self.split_context(case)
        frames = np.array([ctx.run_range(si, fi, fi + 1) for fi in range(lo, lo + size)])
        assert ctx.run_range(si, lo, lo + size) == (
            *(int(v) for v in frames[:, :4].sum(axis=0)), int(frames[:, 4].max()))

    @pytest.mark.parametrize("workers", [0, -5])
    def test_workers_below_one_are_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            run_simulation(tiny_config(max_frames=8), workers=workers)

    def test_import_leaves_multiprocessing_out(self):
        # Only a worker pool needs multiprocessing; a fresh process that
        # imports the package must not pay for loading it.
        src = os.path.dirname(os.path.dirname(stbclab.__file__))
        code = "import sys, stbclab; print('multiprocessing' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.strip() == "False"

    def test_high_snr_ml_is_error_free(self):
        cfg = tiny_config(decoder="ml", search_mode="exhaustive",
                          snr_grid_db=(60.0,), min_frame_errors=1, max_frames=100)
        res = run_simulation(cfg)
        assert res.points[0].frames == 100
        assert res.points[0].bit_errors == 0

    # 256 frames at each of 4/10/16 dB, seed 2026, early stop off: per point
    # (bit, symbol and frame errors, total and largest evaluation counts),
    # recorded from the raw-channel ML search and pseudo-inverse ZF that
    # preceded the thresholded QR, which must make the same decisions here.
    PINNED = {
        "ml": (dict(family="sec3", antennas=2, group_size=2, layers=1,
                    receive_antennas=1),
               [(121, 121, 85, 4096, 16), (21, 21, 19, 4096, 16), (2, 2, 2, 4096, 16)]),
        "zf": (dict(family="sec4", antennas=4, layers=2, receive_antennas=2),
               [(344, 344, 167, 0, 0), (68, 68, 45, 0, 0), (15, 15, 9, 0, 0)]),
    }

    @pytest.mark.parametrize("decoder", sorted(PINNED))
    def test_full_rank_ml_and_zf_runs_are_pinned(self, decoder):
        link, expected = self.PINNED[decoder]
        cfg = SimConfig(**link, qam=4, decoder=decoder, search_mode="exhaustive",
                        snr_grid_db=(4.0, 10.0, 16.0), min_frame_errors=1_000_000,
                        max_frames=256, master_seed=2026)
        res = run_simulation(cfg)
        assert not res.overloaded
        got = [(p.bit_errors, p.symbol_errors, p.frame_errors, p.total_evaluations,
                p.max_evaluations) for p in res.points]
        assert [p.frames for p in res.points] == [256] * 3
        assert got == expected

    def test_stop_rule_on_frame_errors(self):
        cfg = tiny_config(snr_grid_db=(0.0,), min_frame_errors=5, max_frames=10_000)
        res = run_simulation(cfg)
        p = res.points[0]
        assert p.frame_errors >= 5
        assert p.frames < 10_000
        assert p.frames % 256 == 0  # deterministic batch boundary

    def test_ber_decreases_with_snr(self):
        cfg = SimConfig(family="sec4", antennas=4, layers=2, receive_antennas=1,
                        qam=4, decoder="picsic", search_mode="conditioned",
                        snr_grid_db=(8.0, 14.0, 20.0), min_frame_errors=500,
                        max_frames=12_000, master_seed=5)
        res = run_simulation(cfg)
        assert all(p.frame_errors >= 500 for p in res.points)
        bers = [p.ber for p in res.points]
        assert bers[0] > bers[1] > bers[2] > 0

    def test_decoder_error_rate_ordering(self):
        # ML <= PIC-SIC <= PIC <= ZF at fixed SNR, within overlapping
        # binomial confidence intervals
        results = {}
        for name in ("ml", "zf", "pic", "picsic"):
            cfg = SimConfig(family="sec3", antennas=2, layers=1, group_size=2,
                            receive_antennas=1, qam=4, decoder=name,
                            search_mode="exhaustive", snr_grid_db=(12.0,),
                            min_frame_errors=10 ** 6, max_frames=4096,
                            master_seed=31)
            p = run_simulation(cfg).points[0]
            nbits = p.frames * p.bits_per_frame
            results[name] = (p.ber, 2.0 * np.sqrt(p.ber * (1 - p.ber) / nbits))
        chain = ("ml", "picsic", "pic", "zf")
        for better, worse in zip(chain, chain[1:]):
            pb, sb = results[better]
            pw, sw = results[worse]
            assert pb <= pw + sb + sw

    def test_complexity_counters(self):
        cfg = tiny_config(snr_grid_db=(10.0,), min_frame_errors=3, max_frames=256)
        res = run_simulation(cfg)
        p = res.points[0]
        # four single-symbol groups, conditioned: one evaluation each
        assert p.max_evaluations == 4
        assert p.mean_evaluations == 4.0

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            tiny_config(snr_grid_db=())
        with pytest.raises(ValueError):
            tiny_config(snr_grid_db=(10.0, 8.0))
        with pytest.raises(ValueError):
            tiny_config(min_frame_errors=0)
        with pytest.raises(ValueError):
            run_simulation(tiny_config(family="sec5"))

    @pytest.mark.parametrize("field, value, message", [
        ("decoder", "sphere", "unknown decoder"),
        ("search_mode", "typo", "unknown search mode"),
        ("family", "sec5", "unknown family"),
        ("qam", 8, "square QAM"),
        ("qam", 2, "square QAM"),
        ("receive_antennas", 0, "receive_antennas"),
        ("receive_antennas", -1, "receive_antennas"),
        ("master_seed", -1, "master_seed"),
        ("rotation", "random", "rotation must be 'certified' or 'identity'"),
    ])
    def test_rejected_at_construction(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            tiny_config(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("snr_grid_db", "16"),  # was read as the grid (1.0, 6.0)
        ("snr_grid_db", 16.0),
        ("snr_grid_db", {8.0, 16.0}),
        ("snr_grid_db", [[8.0, 16.0]]),
        ("snr_grid_db", [True, 12.0]),  # ran a 1 dB point
        ("snr_grid_db", ["8", "12"]),  # ran as numbers
        ("snr_grid_db", [8.0, [12.0]]),  # NumPy's "inhomogeneous shape"
        ("snr_grid_db", [8.0, None]),
        ("snr_grid_db", np.array([[8.0, 16.0]])),
        ("snr_grid_db", np.array([True, False])),
        ("max_frames", 10.5),
        ("min_frame_errors", "7"),
        ("master_seed", True),  # was seed 1
        ("antennas", 4.0),
        ("qam", None),
        ("receive_antennas", np.float64(2.0)),
        ("decoder", ["pic"]),  # "unhashable type: 'list'"
        ("family", None),
        ("grouping_variant", 1),
        ("search_mode", b"conditioned"),
        ("rotation", ("identity",)),
    ])
    def test_value_of_the_wrong_type_is_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            tiny_config(**{field: value})

    def test_numpy_integers_and_grids_are_taken(self):
        cfg = tiny_config(master_seed=np.int64(5), snr_grid_db=np.array([4, 8]))
        assert cfg.master_seed == 5 and cfg.snr_grid_db == (4.0, 8.0)
        for grid in (np.array([4.0, 8.0]), [np.float64(4.0), np.int32(8)], (4, 8.0)):
            assert tiny_config(snr_grid_db=grid).snr_grid_db == (4.0, 8.0)

    @pytest.mark.parametrize("grid", [(8.0, np.nan), (8.0, np.inf), (-np.inf, 0.0)])
    def test_non_finite_snr_grid_is_rejected(self, grid):
        # NaN passed the ascending check and failed after the points before
        # it had run; -inf ran the whole sweep and failed in the fit
        with pytest.raises(ValueError, match="snr_grid_db must be finite"):
            tiny_config(snr_grid_db=grid)

    def test_search_mode_checked_for_every_decoder(self):
        # ZF ignores the search mode, but a typo in it is still an error
        with pytest.raises(ValueError, match="unknown search mode"):
            tiny_config(decoder="zf", search_mode="typo")

    def test_ml_cap_enforced(self):
        cfg = SimConfig(family="sec3", antennas=2, layers=6, group_size=2,
                        qam=16, decoder="ml", snr_grid_db=(10.0,),
                        min_frame_errors=1, max_frames=1, master_seed=0)
        with pytest.raises(ValueError, match="cap"):
            run_simulation(cfg)


class TestDrawRange:
    """A range is drawn as one stack, bitwise as its frames drawn one at a time."""

    LINKS = {
        "sec4(4,2)": dict(family="sec4", antennas=4, layers=2),
        "sec4(2,1)": dict(family="sec4", antennas=2, layers=1),
        "sec3(4,4,2)": dict(family="sec3", antennas=4, group_size=4, layers=2),
        "sec3(3,2,2)": dict(family="sec3", antennas=3, group_size=2, layers=2),
    }

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(sorted(LINKS)), st.sampled_from([1, 2, 3]),
           st.sampled_from([4, 16, 64]), st.integers(0, 2 ** 32), st.integers(0, 2),
           st.integers(0, 500), st.integers(1, 40))
    def test_stacked_range_is_bitwise_the_frame_oracle(self, link, receive, qam, seed,
                                                       si, lo, size):
        # tobytes() compares the sign of zero too
        cfg = SimConfig(**self.LINKS[link], receive_antennas=receive, qam=qam,
                        snr_grid_db=(0.0, 11.0, 27.5), master_seed=seed)
        ctx = _SimContext(cfg)
        stacked = ctx.draw_range(si, lo, lo + size)
        assert stacked[4] == 10.0 ** (cfg.snr_grid_db[si] / 10.0)
        frames = [frame_oracle(ctx, si, fi) for fi in range(lo, lo + size)]
        for got, want in zip(stacked, zip(*frames)):
            want = np.array(want)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_a_frame_keeps_only_its_generator_and_bits(self):
        # the generator comes back after the words of its bits: its link is drawn next
        ctx = _SimContext(tiny_config())
        rng, raw = ctx.run_frame(_frame_seeds(ctx.cfg.master_seed, 1, 5, 6)[0])
        want = frame_oracle(ctx, 1, 5)
        link = sample_link(2, 1, ctx.design.delay, 10.0, rng)
        assert _raw_bits(raw, ctx.bits_per_frame).tobytes() == want[0].tobytes()
        assert equivalent_channel(ctx.design, link.h).tobytes() == want[3].tobytes()


class TestFrameSeeds:
    """A range's seed words and bits are those of SeedSequence -> PCG64 -> integers."""

    MASTERS = st.one_of(st.sampled_from([0, 2 ** 32 - 1, 2 ** 32, 2 ** 128, 2 ** 130 + 3]),
                        st.integers(0, 2 ** 130 + 3))
    # the first frame index: small, about 2**32, where an index gains its second
    # word, and far above it
    STARTS = st.one_of(st.integers(0, 1000), st.integers(2 ** 32 - 12, 2 ** 32 + 4),
                       st.integers(2 ** 40, 2 ** 40 + 1000))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(MASTERS, st.integers(0, 2 ** 40), STARTS, st.integers(1, 12))
    @example(2 ** 130 + 3, 2 ** 40, 2 ** 32 - 3, 6)  # crosses 2**32
    def test_seed_words_are_seed_sequences(self, master, si, lo, size):
        want = [np.random.SeedSequence(master, spawn_key=(si, fi)).generate_state(4, np.uint64)
                for fi in range(lo, lo + size)]
        got = _frame_seeds(master, si, lo, lo + size)
        assert got.dtype == np.uint64 and got.tobytes() == np.array(want).tobytes()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(MASTERS, st.integers(0, 2 ** 40), STARTS, st.integers(1, 64))
    def test_raw_word_bits_are_integers(self, master, si, fi, count):
        # an odd count leaves the last word's high half undrawn, and the
        # normals drawn next are the same
        want = np.random.default_rng(np.random.SeedSequence(master, spawn_key=(si, fi)))
        rng = np.random.Generator(np.random.PCG64(_FrameSeed(
            _frame_seeds(master, si, fi, fi + 1)[0])))
        bits = _raw_bits(rng.bit_generator.random_raw(-(-count // 2)), count)
        assert bits.tobytes() == want.integers(0, 2, count, dtype=np.int64).tobytes()
        assert rng.standard_normal(8).tobytes() == want.standard_normal(8).tobytes()


class TestOverload:
    @pytest.mark.parametrize("receive_antennas, overloaded", [(1, True), (2, False)])
    def test_flag_follows_observations_against_symbols(self, receive_antennas, overloaded):
        # sec4(4,2): K = 16 real symbols, T = 6, so 2 * N_r * T is 12 or 24
        cfg = SimConfig(family="sec4", antennas=4, layers=2,
                        receive_antennas=receive_antennas, qam=4, decoder="picsic",
                        search_mode="conditioned", snr_grid_db=(10.0,),
                        min_frame_errors=1, max_frames=8, master_seed=5)
        res = run_simulation(cfg)
        assert res.overloaded is overloaded
        doc = json.loads(json.dumps(res.to_json()))
        assert doc["overloaded"] is overloaded
        assert SimResult.from_json(doc) == res

    # sec4(4,2) at N_r = 1, 4-QAM, seed 2026, 64 frames at each of 8/16/24 dB,
    # early stop off: per point (bit, symbol and frame errors, total and
    # largest evaluation counts).  The PIC and PIC-SIC rows were recorded
    # from the projector decoders that carried the overloaded link before
    # the thresholded QR, which must make the same decisions.  The ZF row
    # was recorded after ZF moved to the thresholded QR: its four null
    # symbols are estimated 0, where the pseudo-inverse spread the
    # minimum-norm solution over all 16 (notes/decisions.md).
    PINNED = {
        ("zf", "exhaustive"): [(243, 243, 64, 0, 0), (195, 195, 64, 0, 0),
                               (199, 199, 63, 0, 0)],
        ("picsic", "conditioned"): [(186, 186, 52, 1024, 16), (30, 30, 14, 1024, 16),
                                    (3, 3, 1, 1024, 16)],
        ("picsic", "exhaustive"): [(186, 186, 52, 2048, 32), (30, 30, 14, 2048, 32),
                                   (3, 3, 1, 2048, 32)],
        ("pic", "conditioned"): [(211, 211, 60, 1024, 16), (31, 31, 24, 1024, 16),
                                 (3, 3, 2, 1024, 16)],
        ("pic", "exhaustive"): [(211, 211, 60, 2048, 32), (31, 31, 24, 2048, 32),
                                (3, 3, 2, 2048, 32)],
    }

    @pytest.mark.parametrize("decoder, mode", sorted(PINNED))
    def test_overloaded_link_decisions_are_pinned(self, decoder, mode):
        cfg = SimConfig(family="sec4", antennas=4, layers=2, receive_antennas=1,
                        qam=4, decoder=decoder, search_mode=mode,
                        snr_grid_db=(8.0, 16.0, 24.0), min_frame_errors=1_000_000,
                        max_frames=64, master_seed=2026)
        res = run_simulation(cfg)
        assert res.overloaded
        got = [(p.bit_errors, p.symbol_errors, p.frame_errors, p.total_evaluations,
                p.max_evaluations) for p in res.points]
        assert [p.frames for p in res.points] == [64] * 3
        assert got == self.PINNED[decoder, mode]


class TestResultsIo:
    def test_csv_header_exact(self):
        cfg = tiny_config(snr_grid_db=(10.0,), min_frame_errors=1, max_frames=64)
        res = run_simulation(cfg)
        text = res.to_csv().splitlines()
        assert text[0] == CSV_HEADER == "snr_db,frames,bit_errors,ber,ser,fer,mean_evals,max_evals"
        assert len(text) == 2

    def test_csv_row_matches_point(self):
        cfg = tiny_config(snr_grid_db=(4.0,), min_frame_errors=5, max_frames=512)
        res = run_simulation(cfg)
        row = res.to_csv().splitlines()[1].split(",")
        p = res.points[0]
        assert row == [repr(p.snr_db), str(p.frames), str(p.bit_errors),
                       repr(p.ber), repr(p.ser), repr(p.fer),
                       repr(p.mean_evaluations), str(p.max_evaluations)]

    def test_json_round_trip(self):
        cfg = tiny_config()
        res = run_simulation(cfg)
        doc = res.to_json()
        assert json.loads(json.dumps(doc)) == doc
        back = SimResult.from_json(json.loads(json.dumps(doc)))
        assert back == res
        assert back.wall_time_s == res.wall_time_s

    def test_empty_result_csv(self):
        res = SimResult(tiny_config(), (), None, (), 0.0)
        assert res.to_csv() == CSV_HEADER + "\n"

    def test_config_json_round_trip(self):
        cfg = tiny_config()
        assert SimConfig.from_json(json.loads(json.dumps(cfg.to_json()))) == cfg


class TestDiversityFitWindow:
    def test_window_rule(self):
        def point(snr, bits_err):
            return SnrPointResult(snr, 1000, bits_err, bits_err, bits_err // 2,
                                  0, 0, 16, 16)

        pts = [point(8.0, 400), point(12.0, 200), point(16.0, 100),
               point(20.0, 60), point(24.0, 10)]
        order, window = fit_diversity(pts)
        assert window == (12.0, 16.0, 20.0)
        pts = [point(8.0, 400), point(12.0, 10)]
        order, window = fit_diversity(pts)
        assert order is None and window == ()


class TestRenderTradeoff:
    def test_table_and_plot_texts(self):
        rows, csv, svg = render_tradeoff(8, 12)
        assert any(r.family == "alamouti_block" for r in rows)
        lines = csv.splitlines()
        assert lines[0] == "family,symbols_per_group,rate,rate_float,exponent,exponent_float"
        assert f"diagonal,4,5/3,{5 / 3!r},3/2,1.5" in lines
        assert svg.startswith("<svg") and "rate (cspcu)" in svg

    def test_infeasible(self):
        with pytest.raises(ValueError):
            render_tradeoff(4, 2)


class TestSvgWriter:
    def test_minimal_document(self):
        text = render_scatter({"a": [(0.5, 1.0), (1.0, 2.0)], "b": [(2.0, 0.5)]},
                              xlabel="x", ylabel="y", title="t")
        assert text.count("<circle") >= 5  # 3 data points + legend markers
        assert "</svg>" in text

    def test_log_axis_drops_nonpositive(self):
        text = render_scatter({"ber": [(8.0, 1e-2), (12.0, 1e-4), (16.0, 0.0)]},
                              ylog=True, lines=True)
        assert text.count("<circle") == 3  # 2 surviving points + legend
        assert "<polyline" in text
        assert "1e-4" in text  # decade tick labels

    @pytest.mark.parametrize("series, ylog, axis", [
        ({"a": [(8.0, 1e-3)]}, True, "x"),
        ({"a": [(8.0, 1e-3), (8.0, 1e-2)]}, True, "x"),
        ({"a": [(0.0, 1.0)]}, False, "x"),
        ({"a": [(1.0, 0.0), (2.0, 0.0)]}, False, "y"),
        ({"a": [(1.0, -3.0), (2.0, -3.0)]}, False, "y"),
    ])
    def test_one_valued_axis_has_distinct_tick_labels(self, series, ylog, axis):
        # A zero-width range is padded by one unit each side; it once put
        # six ticks inside [x, x + 1e-9], every one labelled x.
        anchor = 'y="446" text-anchor="middle"' if axis == "x" else 'text-anchor="end"'
        labels = re.findall(anchor + r">([^<]*)</text>", render_scatter(series, ylog=ylog))
        assert len(labels) >= 3 and len(set(labels)) == len(labels)

    def test_negative_linear_y_stays_inside_the_frame(self):
        # The top of a linear y range was max(y) * 1.05, below max(y) when
        # every y is negative: the y = -1 marker sat above the frame.
        text = render_scatter({"a": [(1.0, -3.0), (2.0, -1.0)]})
        markers = [float(cy) for cy in re.findall(r'<circle cx="[^"]*" cy="([^"]*)" r="4" '
                                                  r'fill="[^"]*" fill-opacity', text)]
        assert len(markers) == 2 and all(60 <= cy <= 430 for cy in markers)
        ticks = [float(t) for t in re.findall(r'text-anchor="end">([^<]*)</text>', text)]
        assert min(ticks) <= -3 and max(ticks) >= -1

    def test_ber_curves_from_result(self):
        cfg = tiny_config(snr_grid_db=(0.0, 6.0), min_frame_errors=10,
                          max_frames=512)
        res = run_simulation(cfg)
        text = render_ber_curves({"picsic": res})
        assert text.startswith("<svg") and "BER" in text
