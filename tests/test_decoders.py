import numpy as np
import pytest

from stbclab import decoders
from stbclab.channel import modulate, pam_for_qam, sample_link, transmit
from stbclab.constructions import build_alamouti_block_code, build_diagonal_code
from stbclab.decoders import (
    DecodeProblem, _gram_weights, decode, group_joint_decode, ml_decode, pic_decode,
    picsic_decode, zf_decode,
)
from stbclab.lindesign import (
    RANK_EPS, GroupingScheme, assemble_codeword, equivalent_channel, vec_complex,
)
from tests.oracles import complement_projector, ml_oracle, zf_oracle


def random_problem(builder, args, m, rng, receive_antennas=2, snr_db=14.0,
                   noiseless=False, scheme=None):
    design, grouping, spec = builder(*args)
    alpha = pam_for_qam(m)
    k = design.num_real_symbols
    bits = rng.integers(0, 2, k * alpha.bit_width)
    x = modulate(bits, alpha)
    link = sample_link(spec.antennas, receive_antennas, spec.delay, snr_db, rng)
    if noiseless:
        from stbclab.channel import LinkInstance
        link = LinkInstance(link.h, np.zeros_like(link.w), link.snr)
    y = vec_complex(transmit(assemble_codeword(design, x), link))
    g = equivalent_channel(design, link.h)
    problem = DecodeProblem(y, g, scheme or grouping, alpha, link.snr)
    return problem, x


class TestComplementProjector:
    def test_empty_is_identity(self):
        assert np.array_equal(complement_projector(np.zeros((4, 0))), np.eye(4))

    def test_single_axis(self):
        b = np.array([[1.0], [0.0], [0.0]])
        assert np.allclose(complement_projector(b), np.diag([0.0, 1.0, 1.0]))

    def test_projector_identities(self):
        rng = np.random.default_rng(0)
        for cols in (1, 3, 5):
            b = rng.standard_normal((8, cols))
            p = complement_projector(b)
            assert np.abs(p - p.T).max() <= 1e-9
            assert np.abs(p @ p - p).max() <= 1e-9
            assert np.abs(p @ b).max() <= 1e-9 * np.abs(b).max()

    def test_rank_deficient_input(self):
        b = np.ones((4, 3))  # rank 1
        p = complement_projector(b)
        assert np.isclose(np.trace(p), 3.0)


class TestGroupJointDecode:
    def test_single_symbol_conditioned_is_one_evaluation(self):
        alpha = pam_for_qam(4)
        pg = np.array([[1.0], [2.0]])
        py = pg[:, 0] * alpha.levels[1] * 2.0  # snr 4
        levels, idx, used = group_joint_decode(_gram_weights(py, pg, alpha, 4.0), pg, alpha,
                                                "conditioned")
        assert used == 1 and idx[0] == 1 and levels[0] == alpha.levels[1]

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(1)
        alpha = pam_for_qam(16)
        pg = rng.standard_normal((10, 3))
        truth = alpha.levels[rng.integers(0, 4, 3)]
        py = np.sqrt(9.0) * pg @ truth
        for mode in ("exhaustive", "conditioned"):
            levels, _, _ = group_joint_decode(_gram_weights(py, pg, alpha, 9.0), pg, alpha, mode)
            assert np.array_equal(levels, truth)

    def test_modes_agree_on_noisy_instances(self):
        rng = np.random.default_rng(2)
        alpha4, alpha16 = pam_for_qam(4), pam_for_qam(16)
        for alpha in (alpha4, alpha16):
            for _ in range(300):
                pg = rng.standard_normal((6, 2))
                py = rng.standard_normal(6)
                w = _gram_weights(py, pg, alpha, 2.0)
                le, ie, ce = group_joint_decode(w, pg, alpha, "exhaustive")
                lc, ic, cc = group_joint_decode(w, pg, alpha, "conditioned")
                assert np.array_equal(le, lc) and np.array_equal(ie, ic)
                assert cc <= ce
        # a 4-symbol 64-QAM group: 4096 candidates, whose table fits one matvec
        alpha64 = pam_for_qam(64)
        assert decoders._gram_table(alpha64, 4).size <= decoders.GRAM_MAX_TABLE
        for _ in range(20):
            pg = rng.standard_normal((8, 4))
            py = rng.standard_normal(8)
            w = _gram_weights(py, pg, alpha64, 2.0)
            le, ie, ce = group_joint_decode(w, pg, alpha64, "exhaustive")
            lc, ic, cc = group_joint_decode(w, pg, alpha64, "conditioned")
            assert np.array_equal(le, lc) and np.array_equal(ie, ic)
            assert (ce, cc) == (4096, 512)

    def test_evaluation_counts(self):
        alpha = pam_for_qam(16)
        pg = np.eye(8)[:, :3]
        py = np.zeros(8)
        w = _gram_weights(py, pg, alpha, 1.0)
        _, _, ce = group_joint_decode(w, pg, alpha, "exhaustive")
        _, _, cc = group_joint_decode(w, pg, alpha, "conditioned")
        assert ce == 64 and cc == 16

    def test_degenerate_pivot_falls_back(self):
        alpha = pam_for_qam(4)
        pg = np.zeros((4, 2))
        pg[:, 1] = [1.0, 0, 0, 0]
        py = np.zeros(4)
        levels, idx, used = group_joint_decode(_gram_weights(py, pg, alpha, 1.0), pg, alpha,
                                                "conditioned")
        assert used == 4  # exhaustive fallback
        assert np.array_equal(idx, [0, 0])  # all-tie resolves to first candidate

    def test_null_pivots_of_an_overloaded_pic_link_fall_back(self):
        # sec4(4,3) at N_r = 1: K = 24 symbols, 16 observations.  Under PIC
        # some groups' columns come after 16 kept ones and are null, so
        # _ordered_qr zeroes their block's pivot column and the conditioned
        # search runs exhaustively there, deciding as the exhaustive mode.
        rng = np.random.default_rng(31)
        alpha = pam_for_qam(4)
        nulls = 0
        for _ in range(10):
            problem, _ = random_problem(build_alamouti_block_code, (4, 3), 4, rng,
                                        receive_antennas=1)
            k = problem.g.shape[1]
            r, _ = decoders._ordered_qr(problem.g, problem.y,
                                        decoders._cancellation_orders(problem.scheme)[1])
            cond = pic_decode(problem, "conditioned")
            exh = pic_decode(problem, "exhaustive")
            for i, group in enumerate(problem.scheme.groups):
                n = len(group)
                pivot = r[i, k - n:, k - n]
                if pivot.any():
                    assert cond.per_group_counts[i] == alpha.size ** (n - 1)
                    continue
                nulls += 1
                assert cond.per_group_counts[i] == alpha.size ** n
                assert np.array_equal(cond.decided[list(group)],
                                      exh.decided[list(group)])
        assert nulls > 0

    def test_all_zero_tie_breaks_to_first(self):
        alpha = pam_for_qam(4)
        pg = np.zeros((4, 2))
        py = np.zeros(4)
        for mode in ("exhaustive", "conditioned"):
            _, idx, _ = group_joint_decode(_gram_weights(py, pg, alpha, 1.0), pg, alpha, mode)
            assert np.array_equal(idx, [0, 0])

    def test_conditioned_ties_go_to_the_lexicographic_first(self):
        # y = 0: every candidate ties with its negation, and the conditioned
        # search must keep the same one of the two as the exhaustive search
        rng = np.random.default_rng(18)
        alpha = pam_for_qam(4)
        for _ in range(200):
            pg = rng.standard_normal((4, 2))
            w = _gram_weights(np.zeros(4), pg, alpha, 1.0)
            _, ie, _ = group_joint_decode(w, pg, alpha, "exhaustive")
            _, ic, cc = group_joint_decode(w, pg, alpha, "conditioned")
            assert np.array_equal(ie, ic) and cc == 2

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            pg = np.ones((2, 1))
            group_joint_decode(_gram_weights(np.zeros(2), pg, pam_for_qam(4), 1.0), pg,
                               pam_for_qam(4), "fast")


class TestOrderedQr:
    def test_full_rank_is_the_plain_qr(self):
        rng = np.random.default_rng(21)
        g, y = rng.standard_normal((9, 6)), rng.standard_normal(9)
        orders = np.array([rng.permutation(6) for _ in range(3)])
        r, z = decoders._ordered_qr(g, y, orders)
        for i, order in enumerate(orders):
            plain = np.linalg.qr(np.column_stack([g[:, order], y]), mode="r")
            assert np.array_equal(r[i], plain[:6, :6])
            assert np.array_equal(z[i], plain[:6, 6])

    def test_null_column_owns_no_row(self):
        # column 1 is column 0 plus a residual 1000x below RANK_EPS
        rng = np.random.default_rng(22)
        g = rng.standard_normal((5, 3))
        g[:, 1] = g[:, 0] + 1e-12 * np.linalg.qr(g)[0][:, 2:].sum(axis=1)
        y = rng.standard_normal(5)
        r, z = decoders._ordered_qr(g, y, np.arange(3))
        assert not r[1].any() and z[1] == 0.0
        assert np.isclose(r[0, 1], r[0, 0]) and r[0, 0] != 0 and r[2, 2] != 0
        # the kept columns' factor is the plain QR of those columns alone
        kept = np.linalg.qr(np.column_stack([g[:, [0, 2]], y]), mode="r")
        assert np.allclose(r[np.ix_([0, 2], [0, 2])], kept[:2, :2])
        assert np.allclose(z[[0, 2]], kept[:2, 2])

    def test_overloaded_keeps_one_row_per_observation(self):
        rng = np.random.default_rng(23)
        g, y = rng.standard_normal((4, 7)), rng.standard_normal(4)
        r, z = decoders._ordered_qr(g, y, np.arange(7))
        assert np.count_nonzero(np.abs(np.diagonal(r)) > 0) == 4
        assert not r[4:].any() and not z[4:].any()
        # with every observation kept, the rows hold all of y and of each column
        assert np.isclose(z @ z, y @ y)
        assert np.allclose(np.einsum("ij,ij->j", r, r), np.einsum("ij,ij->j", g, g))

    # A stack of channels: one np.linalg.qr call over every frame and order,
    # one more per round of moved null columns, and each frame's (r, z)
    # bitwise those of a call on it alone.

    @staticmethod
    def assert_frames_are_single_calls(gs, ys, order):
        r, z = decoders._ordered_qr(np.array(gs), np.array(ys), order)
        assert r.shape == (len(gs),) + order.shape + order.shape[-1:]
        for i, (g, y) in enumerate(zip(gs, ys)):
            for a, b in zip((r[i], z[i]), decoders._ordered_qr(g, y, order)):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.fixture
    def calls(self, monkeypatch):
        """A list that gains one entry per np.linalg.qr call."""
        qr, calls = np.linalg.qr, []
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **kw: calls.append(1) or qr(*a, **kw))
        return calls

    @staticmethod
    def overloaded_links(count, seed):
        """Problems on sim-sec4-overloaded's link: sec4(4,2), N_r = 1, 4-QAM, 8-24 dB."""
        rng = np.random.default_rng(seed)
        for i in range(count):
            problem, _ = random_problem(build_alamouti_block_code, (4, 2), 4, rng,
                                        receive_antennas=1, snr_db=8.0 + 4 * (i % 5))
            yield problem

    @pytest.mark.parametrize("which", [0, 1])  # the PIC-SIC order, PIC's stacked orders
    def test_stacked_frames_are_bitwise_the_single_calls(self, which):
        problems = list(self.overloaded_links(200, 41))
        order = decoders._cancellation_orders(problems[0].scheme)[which]
        self.assert_frames_are_single_calls([p.g for p in problems],
                                            [p.y for p in problems], order)

    def test_mixed_stack_is_bitwise_the_single_calls(self, calls):
        # i.i.d. Gaussian 12 x 16 links alternate with the overloaded ones in
        # one stack.  The loop moves no column of a Gaussian G and three of
        # an overloaded one, so the stack takes the overloaded link's four
        # factors.
        rng = np.random.default_rng(42)
        gs, ys = [], []
        for problem in self.overloaded_links(100, 43):
            gs += [problem.g, rng.standard_normal(problem.g.shape)]
            ys += [problem.y, problem.y]
        for order in decoders._cancellation_orders(problem.scheme)[:2]:
            calls.clear()
            decoders._ordered_qr(np.array(gs), np.array(ys), order)
            assert len(calls) == 4
            self.assert_frames_are_single_calls(gs, ys, order)

    @pytest.mark.parametrize("r1, r3, nulls", [
        (100.0, 0.01, [3]),  # far from the threshold
        (1.5, 0.01, [3]),  # kept column 1 just above its limit
        (100.0, 0.6, [3]),  # null column 3 just below its limit
        (100.0, 1.8, []),  # column 3 above its limit: the loop keeps it
    ])
    def test_near_threshold_nulls_stay_per_frame(self, r1, r3, nulls):
        # Columns 1 and 3 are columns 0 and 2 plus residuals of r1 and r3
        # times RANK_EPS off the columns before them.  The case's channel is
        # stacked with the three others, which move other columns or none,
        # at every position; its null columns and its bits stay its own.
        rng = np.random.default_rng(44)
        order = np.arange(5)
        cases = [(100.0, 0.01), (1.5, 0.01), (100.0, 0.6), (100.0, 1.8)]
        for draw in range(20):
            g = rng.standard_normal((8, 5))
            g /= np.linalg.norm(g, axis=0)
            q = np.linalg.qr(np.column_stack([g, rng.standard_normal((8, 2))]))[0]
            y = rng.standard_normal(8)

            def planted(a, b):
                out = g.copy()
                out[:, 1] = g[:, 0] + a * RANK_EPS * q[:, 5]
                out[:, 3] = g[:, 2] + b * RANK_EPS * q[:, 6]
                return out

            others = [planted(a, b) for a, b in cases if (a, b) != (r1, r3)]
            mine = planted(r1, r3)
            at = draw % 4
            stack = others[:at] + [mine] + others[at:]
            r, _ = decoders._ordered_qr(np.array(stack), np.array([y] * 4), order)
            assert [j for j in range(5) if not r[at, j].any()] == nulls
            self.assert_frames_are_single_calls(stack, [y] * 4, order)

    @pytest.mark.parametrize("receive, factors", [(1, 4), (2, 1)])
    def test_qr_calls_do_not_grow_with_the_stack(self, calls, receive, factors):
        # sim-sec4-overloaded's frames (N_r = 1): every frame moves the same
        # three null columns, so a stack of any size takes four factors.  At
        # N_r = 2 G has full rank and a stack takes one.  Drawing a range
        # takes none.
        from stbclab.simharness import SimConfig, _SimContext

        cfg = SimConfig("sec4", 4, 2, receive_antennas=receive,
                        snr_grid_db=(8.0, 12.0, 16.0, 20.0, 24.0))
        ctx = _SimContext(cfg)
        for size in (1, 2, 7, 60):
            calls.clear()
            _, _, y, g, snr = ctx.draw_range(size % 5, 0, size)
            assert calls == []
            picsic_decode(DecodeProblem(y, g, ctx.scheme, ctx.alphabet, snr), "conditioned")
            assert len(calls) == factors


class TestOracleChain:
    def test_single_group_pic_picsic_equal_ml(self):
        rng = np.random.default_rng(3)
        single = GroupingScheme((tuple(range(4)),), 4)
        for builder, args in ((build_alamouti_block_code, (2, 1)),
                              (build_diagonal_code, (2, 2, 1))):
            for _ in range(60):
                problem, _ = random_problem(builder, args, 4, rng,
                                            receive_antennas=1, scheme=single)
                ref = ml_oracle(problem)
                got = ml_decode(problem)
                assert np.array_equal(got.decided, ref.decided)
                assert got.per_group_counts == ref.per_group_counts == (16,)
                for fn in (pic_decode, picsic_decode):
                    for mode in ("exhaustive", "conditioned"):
                        got = fn(problem, mode)
                        assert np.array_equal(got.decided, ref.decided)

    def test_noiseless_recovery_all_decoders(self):
        rng = np.random.default_rng(4)
        problem, x = random_problem(build_alamouti_block_code, (4, 2), 4, rng,
                                    noiseless=True)
        for name in ("zf", "pic", "picsic"):
            got = decode(problem, name, "conditioned")
            assert np.array_equal(got.decided, x)

    def test_picsic_noiseless_residual_cancels(self):
        rng = np.random.default_rng(5)
        problem, x = random_problem(build_diagonal_code, (3, 2, 2), 4, rng,
                                    noiseless=True)
        res = picsic_decode(problem, "conditioned")
        resid = problem.y - np.sqrt(problem.snr) * problem.g @ res.decided
        assert np.linalg.norm(resid) <= 1e-9

    def test_toeplitz_pic_equals_zf(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            problem, _ = random_problem(build_diagonal_code, (3, 1, 3), 4, rng,
                                        receive_antennas=1, snr_db=8.0)
            ref = zf_oracle(problem).decided
            assert np.array_equal(pic_decode(problem, "conditioned").decided, ref)
            assert np.array_equal(zf_decode(problem).decided, ref)

    def test_picsic_matches_projector_reference(self):
        # the triangular fast path equals a direct projector-based sweep
        rng = np.random.default_rng(7)
        for _ in range(40):
            problem, _ = random_problem(build_alamouti_block_code, (4, 2), 4, rng,
                                        snr_db=10.0)
            fast = picsic_decode(problem, "conditioned")
            x_ref = np.zeros(problem.g.shape[1])
            y_k = problem.y.copy()
            scheme = problem.scheme
            for k in range(scheme.num_groups):
                group = list(scheme.groups[k])
                proj = complement_projector(problem.g[:, list(scheme.later(k))])
                pg = proj @ problem.g[:, group]
                levels, _, _ = group_joint_decode(
                    _gram_weights(proj @ y_k, pg, problem.alphabet, problem.snr),
                    pg, problem.alphabet, "conditioned",
                )
                x_ref[group] = levels
                y_k = y_k - np.sqrt(problem.snr) * problem.g[:, group] @ levels
            assert np.array_equal(fast.decided, x_ref)

    def test_pic_matches_projector_reference(self):
        # the triangular fast path equals projecting the other groups out
        rng = np.random.default_rng(17)
        for _ in range(40):
            problem, _ = random_problem(build_diagonal_code, (3, 2, 4), 16, rng,
                                        snr_db=10.0)
            fast = pic_decode(problem, "conditioned")
            x_ref = np.zeros(problem.g.shape[1])
            counts = []
            scheme = problem.scheme
            for k in range(scheme.num_groups):
                group = list(scheme.groups[k])
                proj = complement_projector(problem.g[:, list(scheme.complement(k))])
                pg = proj @ problem.g[:, group]
                levels, _, used = group_joint_decode(
                    _gram_weights(proj @ problem.y, pg, problem.alphabet, problem.snr),
                    pg, problem.alphabet, "conditioned",
                )
                x_ref[group] = levels
                counts.append(used)
            assert np.array_equal(fast.decided, x_ref)
            assert fast.per_group_counts == tuple(counts)


class TestMlAndZf:
    def test_ml_candidate_count(self):
        rng = np.random.default_rng(8)
        problem, _ = random_problem(build_alamouti_block_code, (2, 1), 4, rng,
                                    receive_antennas=1)
        res = ml_decode(problem)
        assert res.candidate_evaluations == 16 and res.per_group_counts == (16,)
        assert np.array_equal(res.decided, ml_oracle(problem).decided)

    def test_ml_cap(self):
        # sec4(4,2) at 16-QAM: 4 ** 16 = 2 ** 32 candidates, past ML_CAP = 2 ** 20
        rng = np.random.default_rng(9)
        problem, _ = random_problem(build_alamouti_block_code, (4, 2), 16, rng)
        with pytest.raises(ValueError, match="cap"):
            ml_decode(problem)

    def test_ml_noiseless_recovery(self):
        rng = np.random.default_rng(10)
        problem, x = random_problem(build_diagonal_code, (2, 2, 1), 16, rng,
                                    noiseless=True)
        assert np.array_equal(ml_decode(problem).decided, x)

    def test_zf_orthogonal_channel_is_matched_filter(self):
        rng = np.random.default_rng(11)
        alpha = pam_for_qam(4)
        g = np.linalg.qr(rng.standard_normal((8, 4)))[0]
        truth = alpha.levels[rng.integers(0, 2, 4)]
        y = 3.0 * g @ truth + 0.01 * rng.standard_normal(8)
        problem = DecodeProblem(y, g, None, alpha, 9.0)
        zf = zf_decode(problem)
        mf = alpha.quantize((g.T @ y) / 3.0)
        assert np.array_equal(zf.decided, mf)

    def test_ml_equals_zf_on_orthogonal_code(self):
        # the Alamouti equivalent channel has orthogonal columns, so joint ML
        # and per-symbol ZF make the same decisions: each decoder equals the
        # other's oracle
        rng = np.random.default_rng(16)
        for _ in range(50):
            problem, _ = random_problem(build_alamouti_block_code, (2, 1), 4, rng,
                                        receive_antennas=1, snr_db=6.0)
            assert np.array_equal(ml_decode(problem).decided,
                                  zf_oracle(problem).decided)
            assert np.array_equal(zf_decode(problem).decided,
                                  ml_oracle(problem).decided)

    def test_zf_null_column_decides_the_lower_middle_level(self):
        # column 2 copies column 0, so it lies in the span before it: its
        # estimate is 0, which quantizes to the lower of the two middle levels
        rng = np.random.default_rng(19)
        alpha = pam_for_qam(4)
        g = rng.standard_normal((8, 4))
        g[:, 2] = g[:, 0]
        truth = alpha.levels[[1, 0, 1, 0]]
        problem = DecodeProblem(2.0 * g @ truth, g, None, alpha, 4.0)
        got = zf_decode(problem)
        # column 0 carries both copies, 2 * levels[1], which clamps to levels[1]
        assert np.array_equal(got.decided, alpha.levels[[1, 0, 0, 0]])
        assert np.array_equal(got.decided, zf_oracle(problem).decided)
        assert (got.candidate_evaluations, got.per_group_counts) == (0, ())

    def test_zf_null_column_at_16qam_decides_the_lower_middle_level(self):
        # 0 is the middle midpoint of 16-QAM, so the null symbol takes levels[1]
        rng = np.random.default_rng(21)
        alpha = pam_for_qam(16)
        g = rng.standard_normal((8, 4))
        g[:, 2] = g[:, 0]
        truth = alpha.levels[[0, 3, 0, 2]]
        problem = DecodeProblem(2.0 * g @ truth, g, None, alpha, 4.0)
        got = zf_decode(problem)
        # column 0 carries both copies, 2 * levels[0], which clamps to levels[0]
        assert np.array_equal(got.decided, alpha.levels[[0, 3, 1, 2]])
        assert np.array_equal(got.decided, zf_oracle(problem).decided)

    def test_zero_snr_zf_decides_the_lower_middle_levels(self):
        # at snr = 0 every column of sqrt(snr) G is null
        rng = np.random.default_rng(20)
        problem, _ = random_problem(build_diagonal_code, (2, 2, 1), 64, rng)
        problem = DecodeProblem(problem.y, problem.g, problem.scheme,
                                problem.alphabet, 0.0)
        assert np.array_equal(zf_decode(problem).decided,
                              np.full(4, problem.alphabet.levels[3]))

    def test_decisions_stay_in_alphabet(self):
        rng = np.random.default_rng(12)
        alpha = pam_for_qam(4)
        problem, _ = random_problem(build_diagonal_code, (2, 2, 2), 4, rng,
                                    snr_db=-20.0)
        for name in ("zf", "pic", "picsic"):
            got = decode(problem, name, "conditioned").decided
            assert all(v in alpha.levels for v in got)


class TestCounters:
    def test_per_group_counts_diagonal(self):
        rng = np.random.default_rng(13)
        problem, _ = random_problem(build_diagonal_code, (4, 4, 3), 4, rng)
        res = picsic_decode(problem, "conditioned")
        assert res.per_group_counts == (8,) * 6
        assert res.candidate_evaluations == 48

    def test_conditioned_at_most_exhaustive(self):
        rng = np.random.default_rng(14)
        problem, _ = random_problem(build_alamouti_block_code, (4, 2), 4, rng)
        cond = picsic_decode(problem, "conditioned")
        exh = picsic_decode(problem, "exhaustive")
        assert cond.candidate_evaluations < exh.candidate_evaluations
        assert np.array_equal(cond.decided, exh.decided)


class TestStacks:
    @pytest.mark.parametrize("name, mode", [
        ("pic", "exhaustive"), ("pic", "conditioned"), ("picsic", "exhaustive"),
        ("picsic", "conditioned"), ("ml", "exhaustive"), ("zf", "exhaustive"),
    ])
    @pytest.mark.parametrize("receive", [1, 2])
    def test_stack_decides_as_each_problem(self, name, mode, receive):
        # one stacked problem gives every frame the decisions and counts of
        # that frame's problem alone, on an overloaded link too (N_r = 1)
        rng = np.random.default_rng(25 + receive)
        args = (2, 1) if name == "ml" else (4, 2)
        problems = [random_problem(build_alamouti_block_code, args, 4, rng,
                                   receive_antennas=receive, snr_db=10.0)[0]
                    for _ in range(12)]
        first = problems[0]
        stack = DecodeProblem(np.array([p.y for p in problems]),
                              np.array([p.g for p in problems]),
                              first.scheme, first.alphabet, first.snr)
        got = decode(stack, name, mode)
        assert got.decided.shape == (12, first.g.shape[1])
        assert got.candidate_evaluations.shape == (12,)
        for i, problem in enumerate(problems):
            ref = decode(problem, name, mode)
            assert np.array_equal(got.decided[i], ref.decided)
            assert got.candidate_evaluations[i] == ref.candidate_evaluations
            assert tuple(got.per_group_counts[i].tolist()) == ref.per_group_counts


class TestValidation:
    def test_problem_shape_checks(self):
        alpha = pam_for_qam(4)
        with pytest.raises(ValueError):
            DecodeProblem(np.zeros(3), np.zeros((4, 2)), None, alpha, 1.0)
        with pytest.raises(ValueError):
            DecodeProblem(np.zeros((2, 4)), np.zeros((3, 4, 2)), None, alpha, 1.0)
        with pytest.raises(ValueError):
            DecodeProblem(np.zeros(()), np.zeros(4), None, alpha, 1.0)
        with pytest.raises(ValueError, match="grouping"):
            DecodeProblem(np.zeros(4), np.zeros((4, 2)),
                          GroupingScheme.contiguous(1, 3), alpha, 1.0)

    @pytest.mark.parametrize("name", ["picsic", "pic", "zf", "ml"])
    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("entry", ["y", "g"])
    def test_non_finite_inputs_are_rejected(self, name, stacked, entry):
        # a NaN in y or an infinite entry of G was decoded to levels, with no
        # warning, by every decoder; a stack is checked as a whole
        design, scheme, _ = build_alamouti_block_code(4, 2)
        rng = np.random.default_rng(26)
        g = rng.standard_normal((3, 2 * 2 * design.delay, design.num_real_symbols))
        y = rng.standard_normal(g.shape[:-1])
        if entry == "y":
            y[1, 0] = np.nan
        else:
            g[1, 0, 0] = np.inf
        if not stacked:
            y, g = y[1], g[1]
        with pytest.raises(ValueError, match="received vector and channel must be finite"):
            decode(DecodeProblem(y, g, scheme, pam_for_qam(4), 10.0), name)

    @pytest.mark.parametrize("snr", [-1.0, -1e-300, np.nan, np.inf])
    def test_problem_rejects_bad_snr(self, snr):
        # a negative snr made the metrics NaN: ML, PIC and PIC-SIC returned
        # the lowest level for every symbol, and ZF's SVD failed
        rng = np.random.default_rng(24)
        with pytest.raises(ValueError, match="snr"):
            DecodeProblem(rng.standard_normal(8), rng.standard_normal((8, 4)),
                          GroupingScheme.contiguous(2, 2), pam_for_qam(4), snr)

    def test_unknown_decoder(self):
        rng = np.random.default_rng(15)
        problem, _ = random_problem(build_alamouti_block_code, (2, 1), 4, rng)
        with pytest.raises(ValueError, match="unknown decoder"):
            decode(problem, "sphere")
