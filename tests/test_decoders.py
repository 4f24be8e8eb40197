import numpy as np
import pytest

from stbclab import decoders
from stbclab.channel import modulate, pam_for_qam, sample_link, transmit
from stbclab.constructions import build_alamouti_block_code, build_diagonal_code
from stbclab.decoders import (
    DecodeProblem, complement_projector, decode, group_joint_decode, ml_decode,
    pic_decode, picsic_decode, zf_decode,
)
from stbclab.lindesign import (
    GroupingScheme, assemble_codeword, equivalent_channel, vec_complex,
)


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
    problem = DecodeProblem(y, g, scheme or grouping, (alpha,) * k, link.snr)
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
        levels, idx, used = group_joint_decode(py, pg, (alpha,), 4.0, "conditioned")
        assert used == 1 and idx[0] == 1 and levels[0] == alpha.levels[1]

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(1)
        alpha = pam_for_qam(16)
        pg = rng.standard_normal((10, 3))
        truth = alpha.levels[rng.integers(0, 4, 3)]
        py = np.sqrt(9.0) * pg @ truth
        for mode in ("exhaustive", "conditioned"):
            levels, _, _ = group_joint_decode(py, pg, (alpha,) * 3, 9.0, mode)
            assert np.array_equal(levels, truth)

    def test_modes_agree_on_noisy_instances(self):
        rng = np.random.default_rng(2)
        alpha4, alpha16 = pam_for_qam(4), pam_for_qam(16)
        for alpha in (alpha4, alpha16):
            for _ in range(300):
                pg = rng.standard_normal((6, 2))
                py = rng.standard_normal(6)
                le, ie, ce = group_joint_decode(py, pg, (alpha,) * 2, 2.0, "exhaustive")
                lc, ic, cc = group_joint_decode(py, pg, (alpha,) * 2, 2.0, "conditioned")
                assert np.array_equal(le, lc) and np.array_equal(ie, ic)
                assert cc <= ce
        # a 4-symbol 64-QAM group: 4096 candidates, an exhaustive search in
        # Gram form against a conditioned one in residual form
        alpha64 = (pam_for_qam(64),) * 4
        assert decoders._gram_form(alpha64)
        for _ in range(20):
            pg = rng.standard_normal((8, 4))
            py = rng.standard_normal(8)
            le, ie, ce = group_joint_decode(py, pg, alpha64, 2.0, "exhaustive")
            lc, ic, cc = group_joint_decode(py, pg, alpha64, 2.0, "conditioned")
            assert np.array_equal(le, lc) and np.array_equal(ie, ic)
            assert (ce, cc) == (4096, 512)

    def test_evaluation_counts(self):
        alpha = pam_for_qam(16)
        pg = np.eye(8)[:, :3]
        py = np.zeros(8)
        _, _, ce = group_joint_decode(py, pg, (alpha,) * 3, 1.0, "exhaustive")
        _, _, cc = group_joint_decode(py, pg, (alpha,) * 3, 1.0, "conditioned")
        assert ce == 64 and cc == 16

    def test_degenerate_pivot_falls_back(self):
        alpha = pam_for_qam(4)
        pg = np.zeros((4, 2))
        pg[:, 1] = [1.0, 0, 0, 0]
        py = np.zeros(4)
        levels, idx, used = group_joint_decode(py, pg, (alpha,) * 2, 1.0, "conditioned")
        assert used == 4  # exhaustive fallback
        assert np.array_equal(idx, [0, 0])  # all-tie resolves to first candidate

    def test_all_zero_tie_breaks_to_first(self):
        alpha = pam_for_qam(4)
        pg = np.zeros((4, 2))
        py = np.zeros(4)
        for mode in ("exhaustive", "conditioned"):
            _, idx, _ = group_joint_decode(py, pg, (alpha,) * 2, 1.0, mode)
            assert np.array_equal(idx, [0, 0])

    def test_conditioned_ties_go_to_the_lexicographic_first(self):
        # y = 0: every candidate ties with its negation, and the conditioned
        # search must keep the same one of the two as the exhaustive search
        rng = np.random.default_rng(18)
        alpha = pam_for_qam(4)
        for _ in range(200):
            pg = rng.standard_normal((4, 2))
            _, ie, _ = group_joint_decode(np.zeros(4), pg, (alpha,) * 2, 1.0,
                                          "exhaustive")
            _, ic, cc = group_joint_decode(np.zeros(4), pg, (alpha,) * 2, 1.0,
                                           "conditioned")
            assert np.array_equal(ie, ic) and cc == 2

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            group_joint_decode(np.zeros(2), np.ones((2, 1)), (pam_for_qam(4),),
                               1.0, "fast")


class TestOracleChain:
    def test_single_group_pic_picsic_equal_ml(self):
        rng = np.random.default_rng(3)
        single = GroupingScheme((tuple(range(4)),), 4)
        for builder, args in ((build_alamouti_block_code, (2, 1)),
                              (build_diagonal_code, (2, 2, 1))):
            for _ in range(60):
                problem, _ = random_problem(builder, args, 4, rng,
                                            receive_antennas=1, scheme=single)
                ml = ml_decode(problem)
                for fn in (pic_decode, picsic_decode):
                    for mode in ("exhaustive", "conditioned"):
                        got = fn(problem, mode)
                        assert np.array_equal(got.decided.entries,
                                              ml.decided.entries)

    def test_noiseless_recovery_all_decoders(self):
        rng = np.random.default_rng(4)
        problem, x = random_problem(build_alamouti_block_code, (4, 2), 4, rng,
                                    noiseless=True)
        for name in ("zf", "pic", "picsic"):
            got = decode(problem, name, "conditioned")
            assert np.array_equal(got.decided.entries, x.entries)

    def test_picsic_noiseless_residual_cancels(self):
        rng = np.random.default_rng(5)
        problem, x = random_problem(build_diagonal_code, (3, 2, 2), 4, rng,
                                    noiseless=True)
        res = picsic_decode(problem, "conditioned")
        resid = problem.y - np.sqrt(problem.snr) * problem.g @ res.decided.entries
        assert np.linalg.norm(resid) <= 1e-9

    def test_toeplitz_pic_equals_zf(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            problem, _ = random_problem(build_diagonal_code, (3, 1, 3), 4, rng,
                                        receive_antennas=1, snr_db=8.0)
            pic = pic_decode(problem, "conditioned")
            zf = zf_decode(problem)
            assert np.array_equal(pic.decided.entries, zf.decided.entries)

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
                levels, _, _ = group_joint_decode(
                    proj @ y_k, proj @ problem.g[:, group],
                    tuple(problem.alphabets[j] for j in group), problem.snr,
                    "conditioned",
                )
                x_ref[group] = levels
                y_k = y_k - np.sqrt(problem.snr) * problem.g[:, group] @ levels
            assert np.array_equal(fast.decided.entries, x_ref)

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
                levels, _, used = group_joint_decode(
                    proj @ problem.y, proj @ problem.g[:, group],
                    tuple(problem.alphabets[j] for j in group), problem.snr,
                    "conditioned",
                )
                x_ref[group] = levels
                counts.append(used)
            assert np.array_equal(fast.decided.entries, x_ref)
            assert fast.per_group_counts == tuple(counts)


class TestMlAndZf:
    def test_ml_candidate_count(self):
        rng = np.random.default_rng(8)
        problem, _ = random_problem(build_alamouti_block_code, (2, 1), 4, rng,
                                    receive_antennas=1)
        res = ml_decode(problem)
        assert res.candidate_evaluations == 16

    def test_ml_cap(self):
        rng = np.random.default_rng(9)
        problem, _ = random_problem(build_alamouti_block_code, (2, 1), 4, rng)
        with pytest.raises(ValueError, match="cap"):
            ml_decode(problem, cap=8)

    def test_ml_noiseless_recovery(self):
        rng = np.random.default_rng(10)
        problem, x = random_problem(build_diagonal_code, (2, 2, 1), 16, rng,
                                    noiseless=True)
        assert np.array_equal(ml_decode(problem).decided.entries, x.entries)

    def test_zf_orthogonal_channel_is_matched_filter(self):
        rng = np.random.default_rng(11)
        alpha = pam_for_qam(4)
        g = np.linalg.qr(rng.standard_normal((8, 4)))[0]
        truth = alpha.levels[rng.integers(0, 2, 4)]
        y = 3.0 * g @ truth + 0.01 * rng.standard_normal(8)
        problem = DecodeProblem(y, g, None, (alpha,) * 4, 9.0)
        zf = zf_decode(problem)
        mf = alpha.quantize((g.T @ y) / 3.0)
        assert np.array_equal(zf.decided.entries, mf)

    def test_ml_equals_zf_on_orthogonal_code(self):
        # the Alamouti equivalent channel has orthogonal columns, so joint ML
        # and per-symbol ZF make the same decisions
        rng = np.random.default_rng(16)
        for _ in range(50):
            problem, _ = random_problem(build_alamouti_block_code, (2, 1), 4, rng,
                                        receive_antennas=1, snr_db=6.0)
            assert np.array_equal(ml_decode(problem).decided.entries,
                                  zf_decode(problem).decided.entries)

    def test_decisions_stay_in_alphabet(self):
        rng = np.random.default_rng(12)
        alpha = pam_for_qam(4)
        problem, _ = random_problem(build_diagonal_code, (2, 2, 2), 4, rng,
                                    snr_db=-20.0)
        for name in ("zf", "pic", "picsic"):
            got = decode(problem, name, "conditioned").decided.entries
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
        assert np.array_equal(cond.decided.entries, exh.decided.entries)


class TestValidation:
    def test_problem_shape_checks(self):
        alpha = pam_for_qam(4)
        with pytest.raises(ValueError):
            DecodeProblem(np.zeros(3), np.zeros((4, 2)), None, (alpha,) * 2, 1.0)
        with pytest.raises(ValueError):
            DecodeProblem(np.zeros(4), np.zeros((4, 2)), None, (alpha,), 1.0)

    def test_unknown_decoder(self):
        rng = np.random.default_rng(15)
        problem, _ = random_problem(build_alamouti_block_code, (2, 1), 4, rng)
        with pytest.raises(ValueError, match="unknown decoder"):
            decode(problem, "sphere")
