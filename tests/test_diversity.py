import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stbclab import diversity
from stbclab.constructions import (
    CodeSpec, Family, build_alamouti_block_code, build_diagonal_code,
)
from stbclab.diversity import (
    certify, certify_alamouti_block, certify_diagonal, falsify_pic, falsify_picsic,
    numerical_rank, pam_difference_values,
)
from stbclab.lindesign import RANK_EPS, Design, GroupingScheme
from stbclab.rotations import RotationMatrix, build_rotation, certify_rotation
from tests.oracles import (
    det_rank_screen, direct_rank_screen, enumerated_differences_oracle, factor_matrices,
    interference_probes_oracle, pair_rows, screen_factors_oracle,
)
from tests.test_lindesign import alamouti_design


def witness_matrix(design, scheme, w):
    """X(a) + X(u), the unscaled codeword difference a witness claims is singular."""
    idx = list(scheme.groups[w.group_index]) + list(w.interference_indices)
    coeffs = np.concatenate([w.difference, w.interference])
    return np.tensordot(coeffs, design.weight_matrices[idx], axes=(0, 0))


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(3)) == 3

    def test_zero(self):
        assert numerical_rank(np.zeros((4, 2))) == 0

    def test_threshold_semantics(self):
        # a singular value counts when it exceeds RANK_EPS times the largest
        assert numerical_rank(np.diag([1.0, 1e-15])) == 1
        assert numerical_rank(np.diag([1.0, RANK_EPS])) == 1
        assert numerical_rank(np.diag([1.0, 2 * RANK_EPS])) == 2

    def test_threshold_is_relative(self):
        for scale in (2.0 ** -600, 1.0, 2.0 ** 600):
            assert numerical_rank(scale * np.diag([1.0, 2 * RANK_EPS])) == 2
            assert numerical_rank(scale * np.diag([1.0, RANK_EPS / 2])) == 1


class TestDifferenceValues:
    def test_two_level(self):
        assert np.array_equal(pam_difference_values(2), [2, 0, -2])

    def test_four_level(self):
        assert np.array_equal(pam_difference_values(4), [6, 4, 2, 0, -2, -4, -6])

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            pam_difference_values(1)


class TestFalsifyBrokenCodes:
    def test_broken_diagonal_deterministic_witness(self):
        design, grouping, _ = build_diagonal_code(2, 2, 1, rotation=np.eye(2),
                                                  normalize=False)
        w = falsify_pic(design, grouping, pam_levels=2, trials_per_group=10,
                        rng_seed=0)
        assert w is not None
        assert w.group_index == 0
        assert np.array_equal(w.difference, [2, 0])
        assert not w.interference.any()
        assert w.achieved_rank == 1
        assert w.smallest_singular_value < 1e-12

    def test_broken_alamouti_block_witness(self):
        design, grouping, _ = build_alamouti_block_code(4, 2, rotation=np.eye(2),
                                                        normalize=False)
        w = falsify_picsic(design, grouping, pam_levels=2, trials_per_group=10,
                           rng_seed=0)
        assert w is not None
        assert w.group_index == 0
        assert np.array_equal(w.difference, [2, 0])
        assert not w.interference.any()
        assert w.achieved_rank == 2

    def test_witness_soundness_recheck(self):
        design, grouping, _ = build_diagonal_code(2, 2, 1, rotation=np.eye(2),
                                                  normalize=False)
        w = falsify_pic(design, grouping, pam_levels=4, trials_per_group=50,
                        rng_seed=3)
        mat = witness_matrix(design, grouping, w)
        assert numerical_rank(mat) == w.achieved_rank < design.antennas

    def test_picsic_witness_is_pic_witness(self):
        design, grouping, _ = build_alamouti_block_code(4, 2, rotation=np.eye(2),
                                                        normalize=False)
        w = falsify_picsic(design, grouping, pam_levels=2, trials_per_group=10,
                           rng_seed=0)
        assert set(w.interference_indices) <= set(grouping.complement(w.group_index))
        mat = witness_matrix(design, grouping, w)
        assert numerical_rank(mat) < design.antennas

    def test_sampled_difference_path_on_large_group(self):
        # a 6-symbol group at 4-PAM has 7^6 - 1 difference vectors, beyond the
        # enumeration cap, so the falsifier samples; broken codes still fall
        design, _, _ = build_diagonal_code(2, 2, 2, rotation=np.eye(2),
                                           normalize=False)
        scheme = GroupingScheme((tuple(range(6)), (6, 7)), 8)
        w = falsify_pic(design, scheme, pam_levels=4, trials_per_group=10,
                        rng_seed=1)
        assert w is not None
        mat = witness_matrix(design, scheme, w)
        assert numerical_rank(mat) < design.antennas

    def test_witness_json_one_based(self):
        design, grouping, _ = build_diagonal_code(2, 2, 1, rotation=np.eye(2),
                                                  normalize=False)
        w = falsify_pic(design, grouping, pam_levels=2, trials_per_group=5, rng_seed=0)
        doc = w.to_json()
        assert doc["group"] == 1
        assert doc["difference"] == [2, 0]
        assert doc["interference_indices"] == [3, 4]
        assert doc["rank"] == 1


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _screen(a_mats, u_mats):
    """The screen's mask over the pairs of a_mats and u_mats, (count, T, N) each."""
    return diversity._rank_screen(*diversity._screen_factors(a_mats, u_mats))


class TestRankScreen:
    def test_rank_deficient_product_gives_the_zero_probe_witness(self):
        # symbol 1's weight B @ C has rank N - 1 and no zero entries, so the
        # first pair (a = 2, u = 0) is the witness on every seed
        t, n = 6, 3
        scheme = GroupingScheme(((0,), (1,)), 2)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            product = _complex_normal(rng, (t, n - 1)) @ _complex_normal(rng, (n - 1, n))
            design = Design(np.stack([product, _complex_normal(rng, (t, n))]))
            w = falsify_pic(design, scheme, pam_levels=2, trials_per_group=10,
                            rng_seed=seed)
            assert w is not None, seed
            assert (w.group_index, list(w.difference), w.achieved_rank) == (0, [2], n - 1)
            assert not w.interference.any()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(2, 4), extra_rows=st.integers(0, 6),
           scale_exp=st.integers(-40, 40), seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["product", "below", "above"]),
           margin_exp=st.integers(1, 20))
    def test_every_deficient_matrix_is_screened(self, n, extra_rows, scale_exp, seed,
                                                kind, margin_exp):
        # "product": rank r < N from B @ C; "below"/"above": s_min / s_max set
        # 2^margin_exp below or above RANK_EPS, the other values in [1/2, 1]
        t = n + extra_rows
        rng = np.random.default_rng(seed)
        if kind == "product":
            r = int(rng.integers(0, n))
            x = _complex_normal(rng, (t, r)) @ _complex_normal(rng, (r, n))
        else:
            u, _ = np.linalg.qr(_complex_normal(rng, (t, n)))
            v, _ = np.linalg.qr(_complex_normal(rng, (n, n)))
            s = rng.uniform(0.5, 1.0, n)
            s[0] = 1.0
            s[-1] = RANK_EPS * 2.0 ** (-margin_exp if kind == "below" else margin_exp)
            x = (u * s) @ v.conj().T
        x = x * 2.0 ** scale_exp
        deficient = numerical_rank(x) < n
        assert deficient == (kind != "above")
        if deficient:
            assert _screen(x[None], np.zeros((1, t, n)))[0, 0]

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 8), extra_rows=st.integers(0, 3), diffs=st.integers(1, 7),
           probes=st.integers(1, 9), scale_exp=st.sampled_from([-40, 0, 40]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_a_planted_deficient_pair_is_flagged_in_its_block(self, n, extra_rows, diffs,
                                                             probes, scale_exp, seed):
        # a block of random differences and probes, one pair of which sums to
        # B @ C of rank < N; every pair numerical_rank calls deficient is flagged
        t = n + extra_rows
        rng = np.random.default_rng(seed)
        scale = 2.0 ** scale_exp
        a_mats = scale * _complex_normal(rng, (diffs, t, n))
        u_mats = scale * _complex_normal(rng, (probes, t, n))
        i, j, r = rng.integers(diffs), rng.integers(probes), rng.integers(0, n)
        planted = _complex_normal(rng, (t, r)) @ _complex_normal(rng, (r, n))
        a_mats[i] = scale * planted - u_mats[j]
        mask = _screen(a_mats, u_mats)
        deficient = np.array([[numerical_rank(a + u) < n for u in u_mats]
                              for a in a_mats])
        assert deficient[i, j]
        assert mask[deficient].all()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(2, 4), extra_rows=st.integers(0, 3), cancel_exp=st.integers(5, 24),
           scale_exp=st.sampled_from([-300, -40, 40, 300]), seed=st.integers(0, 2 ** 32 - 1))
    def test_a_cancelling_deficient_pair_is_flagged(self, n, extra_rows, cancel_exp,
                                                    scale_exp, seed):
        # a = P - u with P of rank < N and |u|_F = 2^cancel_exp |P|_F: the Gram
        # formed from the parts is off by about 4^cancel_exp roundoffs of tr(G),
        # so the pivots say nothing and only the cancellation guard flags it
        t = n + extra_rows
        rng = np.random.default_rng(seed)
        r = rng.integers(1, n)
        planted = _complex_normal(rng, (t, r)) @ _complex_normal(rng, (r, n))
        u = _complex_normal(rng, (t, n))
        u *= 2.0 ** cancel_exp * np.linalg.norm(planted) / np.linalg.norm(u)
        planted, u = planted * 2.0 ** scale_exp, u * 2.0 ** scale_exp
        a = planted - u
        if numerical_rank(a + u) < n:
            assert _screen(a[None], u[None])[0, 0]


def _identity_diagonal(antennas, group_size, layers):
    return build_diagonal_code(antennas, group_size, layers, rotation=np.eye(2),
                               normalize=False)


# (falsifier, builder, PAM levels, trials, seed, grouping) of every broken
# input in TestFalsifyBrokenCodes; grouping None keeps the built one
BROKEN_INPUTS = [
    (falsify_pic, lambda: _identity_diagonal(2, 2, 1), 2, 10, 0, None),
    (falsify_picsic, lambda: build_alamouti_block_code(4, 2, rotation=np.eye(2),
                                                       normalize=False), 2, 10, 0, None),
    (falsify_pic, lambda: _identity_diagonal(2, 2, 1), 4, 50, 3, None),
    (falsify_pic, lambda: _identity_diagonal(2, 2, 2), 4, 10, 1,
     GroupingScheme((tuple(range(6)), (6, 7)), 8)),
    (falsify_pic, lambda: _identity_diagonal(2, 2, 1), 2, 5, 0, None),
]


def _witness_key(w):
    return (w.group_index, tuple(w.difference), tuple(w.interference),
            w.interference_indices, w.achieved_rank)


class TestScreenBlocks:
    @pytest.mark.parametrize("block", [1, 1 << 40], ids=["one-difference", "all"])
    def test_block_size_does_not_change_the_witness(self, monkeypatch, block):
        expected = []
        for falsify, build, pam, trials, seed, scheme in BROKEN_INPUTS:
            design, grouping, _ = build()
            expected.append(_witness_key(falsify(design, scheme or grouping, pam, trials,
                                                 rng_seed=seed)))
        monkeypatch.setattr(diversity, "SCREEN_BLOCK", block)
        for (falsify, build, pam, trials, seed, scheme), want in zip(BROKEN_INPUTS,
                                                                     expected):
            design, grouping, _ = build()
            w = falsify(design, scheme or grouping, pam, trials, rng_seed=seed)
            assert _witness_key(w) == want
        for design, grouping, _ in (build_diagonal_code(3, 2, 4),
                                    build_alamouti_block_code(4, 2)):
            assert falsify_picsic(design, grouping, pam_levels=4,
                                  trials_per_group=300, rng_seed=1) is None


def _verify_inputs():
    """(falsifier, code, PAM levels) of the benchmark's verify pass."""
    codes = ((build_diagonal_code(3, 2, 4), 4), (build_alamouti_block_code(4, 2), 4),
             (_identity_diagonal(2, 2, 1), 2))
    return [(falsify, code, pam) for code, pam in codes
            for falsify in (falsify_pic, falsify_picsic)]


def _recording(monkeypatch, screen):
    """Route the falsifiers through screen, recording its masks and the
    matrices numerical_rank confirms."""
    masks, calls = [], []

    def recording_screen(left, right):
        masks.append(screen(left, right))
        return masks[-1]

    def recording_rank(mat):
        calls.append(np.array(mat))
        return numerical_rank(mat)

    monkeypatch.setattr(diversity, "_rank_screen", recording_screen)
    monkeypatch.setattr(diversity, "numerical_rank", recording_rank)
    return masks, calls


def _det_screen(left, right):
    return det_rank_screen(pair_rows(*factor_matrices(left, right)))


class TestScreenWorkspace:
    def test_workspace_mask_matches_a_fresh_screen(self):
        # three "groups": 23 differences in blocks of 5 (a short last block),
        # then a block of 4 x 9 probes, then a block of 3 x 2; each group's
        # factors are built once and sliced per block, as the falsifier does
        rng = np.random.default_rng(11)
        t, n = 5, 3
        for diffs, probes, step in ((23, 4, 5), (4, 9, 4), (3, 2, 3)):
            a_mats = _complex_normal(rng, (diffs, t, n))
            a_mats[::2, :, 0] = 0  # rank-deficient unless the probe fills column 0
            u_mats = _complex_normal(rng, (probes, t, n))
            u_mats[0] = 0
            u_mats[1, :, 1:] = 0
            left, right = diversity._screen_factors(a_mats, u_mats)
            for start in range(0, diffs, step):
                block = left[:, start:start + step]
                mask = diversity._rank_screen(block, right)
                assert np.array_equal(mask, direct_rank_screen(block, right))
                y = pair_rows(*(np.moveaxis(m, 0, -1)
                                for m in (a_mats[start:start + step], u_mats)))
                assert np.array_equal(mask, det_rank_screen(y))
            assert mask.any() and not mask.all()

    @pytest.mark.parametrize("inputs", ["broken", "verify"])
    def test_witnesses_and_rank_calls_match_a_fresh_screen(self, monkeypatch, inputs):
        if inputs == "broken":
            runs = [(falsify, build() if scheme is None else
                     build()[:1] + (scheme,), pam, trials, seed)
                    for falsify, build, pam, trials, seed, scheme in BROKEN_INPUTS]
        else:
            runs = [(falsify, code, pam, 200, 2026) for falsify, code, pam in _verify_inputs()]

        def outcomes(screen):
            masks, calls = _recording(monkeypatch, screen)
            witnesses = []
            for falsify, (design, grouping, *_), pam, trials, seed in runs:
                w = falsify(design, grouping, pam, trials, rng_seed=seed)
                witnesses.append(None if w is None else
                                 _witness_key(w) + (w.smallest_singular_value,))
            return witnesses, masks, calls

        witnesses, masks, calls = outcomes(diversity._rank_screen)
        for oracle in (direct_rank_screen, _det_screen):
            oracle_witnesses, oracle_masks, oracle_calls = outcomes(oracle)
            assert witnesses == oracle_witnesses
            assert len(masks) == len(oracle_masks)
            assert all(np.array_equal(a, b) for a, b in zip(masks, oracle_masks))
            assert len(calls) == len(oracle_calls)
            assert all(np.array_equal(a, b) for a, b in zip(calls, oracle_calls))
        if inputs == "broken":
            assert all(w is not None for w in witnesses)


def _laid_out(rng, shape, layout):
    """A complex normal (count, T, N) stack in the given memory layout."""
    if layout == "fortran":
        return np.asfortranarray(_complex_normal(rng, shape))
    if layout == "strided":  # every other row of a taller stack
        return _complex_normal(rng, (shape[0], 2 * shape[1], shape[2]))[:, ::2]
    if layout == "transposed":  # an (N, T, count) stack seen as (count, T, N)
        return _complex_normal(rng, shape[::-1]).T
    return _complex_normal(rng, shape)


def _generator(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(1,))))


class TestFalsifierInputs:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(diffs=st.integers(1, 9), probes=st.integers(1, 12), t=st.integers(1, 6),
           n=st.integers(1, 5), layout=st.sampled_from(["c", "fortran", "strided",
                                                        "transposed"]),
           zeros=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    @example(diffs=1, probes=1, t=1, n=1, layout="c", zeros=True, seed=0)
    @example(diffs=1, probes=3, t=2, n=1, layout="strided", zeros=False, seed=1)
    def test_screen_factors_are_the_oracle_bitwise(self, diffs, probes, t, n, layout,
                                                   zeros, seed):
        # the zero probe, and with `zeros` a zero column and -0.0 entries
        rng = np.random.default_rng(seed)
        a_mats, u_mats = (_laid_out(rng, (c, t, n), layout) for c in (diffs, probes))
        u_mats[0] = 0
        if zeros:
            a_mats[:, :, 0] = 0
            u_mats[1:, :, -1] = -0.0
        left, right = diversity._screen_factors(a_mats, u_mats)
        want_left, want_right = screen_factors_oracle(a_mats, u_mats)
        assert (left.shape, right.shape) == (want_left.shape, want_right.shape)
        assert left.flags.c_contiguous and right.transpose(0, 2, 1).flags.c_contiguous
        assert left.tobytes() == want_left.tobytes()
        assert right.tobytes() == want_right.tobytes()
        # the products of the falsifier's C-contiguous stacks, block by block.  A
        # one-difference block is a GEMV, whose bits follow right's strides; the
        # oracle's gathers lay right out the same way except at T = 1
        a_mats, u_mats = np.ascontiguousarray(a_mats), np.ascontiguousarray(u_mats)
        left, right = diversity._screen_factors(a_mats, u_mats)
        want_left, want_right = screen_factors_oracle(a_mats, u_mats)
        start = int(rng.integers(diffs))
        for lo in {0, start, diffs - 1}:
            if t > 1 or diffs - lo > 1:
                assert (np.matmul(left[:, lo:], right).tobytes()
                        == np.matmul(want_left[:, lo:], want_right).tobytes())

    @pytest.mark.parametrize("trials", [0, 1, 200])
    @pytest.mark.parametrize("count", [0, 1, 14])
    def test_probes_are_the_eye_form_bitwise(self, count, trials):
        # the same Generator stream as default_rng, -np.eye's -0.0 entries included
        rng, want_rng = _generator(7), np.random.default_rng(
            np.random.SeedSequence(7, spawn_key=(1,)))
        probes = diversity._interference_probes(count, trials, rng)
        want = interference_probes_oracle(count, trials, want_rng)
        assert probes.shape == want.shape and probes.tobytes() == want.tobytes()
        assert np.signbit(probes[1 + count:1 + 2 * count]).all()
        assert rng.standard_normal(3).tobytes() == want_rng.standard_normal(3).tobytes()

    @pytest.mark.parametrize("group_size, pam", [(1, 2), (2, 4), (3, 8), (4, 4)])
    def test_cached_differences_are_read_only_meshgrid_form(self, group_size, pam):
        rng = _generator(3)
        diffs = diversity._difference_vectors(group_size, pam, rng)
        assert diversity._difference_vectors(group_size, pam, rng) is diffs
        assert not diffs.flags.writeable
        with pytest.raises(ValueError):
            diffs[0, 0] = 0
        want = enumerated_differences_oracle(group_size, pam)
        assert diffs.dtype == want.dtype and diffs.tobytes() == want.tobytes()
        assert rng.bit_generator.state == _generator(3).bit_generator.state  # no draw

    def test_a_witness_difference_is_its_own(self):
        design, scheme, _ = _identity_diagonal(2, 2, 1)
        w = falsify_pic(design, scheme, pam_levels=2, trials_per_group=5)
        w.difference[:] = 0
        again = falsify_pic(design, scheme, pam_levels=2, trials_per_group=5)
        assert list(again.difference) == [2, 0]


class TestScreenScale:
    @pytest.mark.parametrize("scale_exp", [-300, 300])
    def test_scaled_certified_code_needs_no_confirmation(self, monkeypatch, scale_exp):
        # det and tr^N of a Gram at 2^(+-600) under- or overflow; the pivot
        # ratio does not, so no pair of a certified code is flagged
        design, grouping, _ = build_diagonal_code(3, 2, 4)
        scaled = Design(design.weight_matrices * 2.0 ** scale_exp)
        calls = []
        monkeypatch.setattr(diversity, "numerical_rank",
                            lambda mat: calls.append(mat) or numerical_rank(mat))
        assert falsify_picsic(scaled, grouping, pam_levels=4, trials_per_group=50,
                              rng_seed=0) is None
        assert len(calls) == 0

    @pytest.mark.parametrize("falsify", [falsify_pic, falsify_picsic])
    @pytest.mark.parametrize("scale_exp", [-300, 300])
    def test_identity_rotation_witness_is_scale_free(self, falsify, scale_exp):
        design, grouping, _ = _identity_diagonal(2, 2, 1)
        scaled = Design(design.weight_matrices * 2.0 ** scale_exp)
        w = falsify(design, grouping, pam_levels=4, trials_per_group=50, rng_seed=3)
        w_scaled = falsify(scaled, grouping, pam_levels=4, trials_per_group=50,
                           rng_seed=3)
        assert _witness_key(w_scaled) == _witness_key(w)


class TestMemory:
    def _peak_mb(self, call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    def test_rotation_certificate_peak(self):
        q = build_rotation(8).entries
        assert self._peak_mb(lambda: certify_rotation(q, 3)) < 4.0

    def test_falsifier_peak(self):
        # one screen block of 35 differences x 229 probes of 6 x 4 matrices
        # holds the 10 packed lower Gram entries of every pair (1.3 MB,
        # complex) beside the probes' factor (0.5 MB) and the LDL^H update's
        # temporaries: about 4.0 MB
        design, grouping, _ = build_alamouti_block_code(4, 2)
        assert self._peak_mb(lambda: falsify_picsic(
            design, grouping, pam_levels=4, trials_per_group=200, rng_seed=0)) < 16.0


class TestFalsifyInputs:
    @pytest.mark.parametrize("falsify", [falsify_pic, falsify_picsic])
    def test_negative_trials_rejected(self, falsify):
        design, grouping, _ = build_diagonal_code(2, 2, 1)
        with pytest.raises(ValueError, match="trials_per_group"):
            falsify(design, grouping, pam_levels=2, trials_per_group=-1)

    @pytest.mark.parametrize("falsify", [falsify_pic, falsify_picsic])
    @pytest.mark.parametrize("groups", [((0,), (1,)), ((0, 1), (2, 3), (4, 5))])
    def test_grouping_of_other_than_k_symbols_rejected(self, falsify, groups):
        # certified sec3(2,2,1) has K = 4: two groups of one symbol would
        # check half of it, and a six-symbol grouping indexes past it
        design, _, _ = build_diagonal_code(2, 2, 1)
        scheme = GroupingScheme(groups, sum(len(g) for g in groups))
        with pytest.raises(ValueError, match="grouping covers"):
            falsify(design, scheme, pam_levels=2, trials_per_group=10)


class TestFalsifyCertifiedCodes:
    def test_diagonal_code_no_witness(self):
        design, grouping, _ = build_diagonal_code(3, 2, 4)
        assert falsify_picsic(design, grouping, pam_levels=4,
                              trials_per_group=300, rng_seed=1) is None

    def test_alamouti_block_code_no_witness(self):
        design, grouping, _ = build_alamouti_block_code(4, 2)
        assert falsify_picsic(design, grouping, pam_levels=4,
                              trials_per_group=300, rng_seed=1) is None

    def test_single_group_reduces_to_ml_difference_check(self):
        # Alamouti with everything in one group: u is empty, condition is the
        # classical all-differences-full-rank test, which the code passes
        design = alamouti_design()
        single = GroupingScheme((tuple(range(4)),), 4)
        assert falsify_pic(design, single, pam_levels=4, trials_per_group=1,
                           rng_seed=0) is None

    def test_last_group_has_empty_interference(self):
        design, grouping, _ = build_diagonal_code(2, 2, 1)
        # broken variant fails even with zero interference at the last group
        broken, grouping_b, _ = build_diagonal_code(2, 2, 1, rotation=np.eye(2),
                                                    normalize=False)
        w = falsify_picsic(broken, grouping_b, pam_levels=2, trials_per_group=5,
                           rng_seed=0)
        assert w is not None
        assert falsify_picsic(design, grouping, pam_levels=2, trials_per_group=5,
                              rng_seed=0) is None


class TestCertificates:
    def test_diagonal_certified(self):
        for args in ((3, 2, 4), (2, 2, 1), (4, 4, 3)):
            spec = CodeSpec(Family.DIAGONAL, *args)
            assert certify_diagonal(spec, build_rotation(args[1]))

    def test_toeplitz_certified_any_antennas(self):
        for nt in (1, 2, 5):
            spec = CodeSpec(Family.DIAGONAL, nt, 1, 2)
            assert certify_diagonal(spec, build_rotation(1))

    def test_identity_rotation_fails(self):
        spec = CodeSpec(Family.DIAGONAL, 3, 2, 4)
        assert not certify_diagonal(spec, np.eye(2))
        assert not certify_diagonal(spec, RotationMatrix(np.eye(2), 3, 0.0))

    def test_alamouti_block_certified(self):
        assert certify_alamouti_block(CodeSpec(Family.ALAMOUTI_BLOCK, 4, 2, 2),
                                      build_rotation(2))
        assert certify_alamouti_block(CodeSpec(Family.ALAMOUTI_BLOCK, 2, 1, 1),
                                      build_rotation(1))

    def test_alamouti_block_identity_fails(self):
        spec = CodeSpec(Family.ALAMOUTI_BLOCK, 4, 2, 2)
        assert not certify_alamouti_block(spec, np.eye(2))

    def test_coarse_grouping_rejected(self):
        spec = CodeSpec(Family.ALAMOUTI_BLOCK, 4, 2, 2, grouping_variant="coarse")
        with pytest.raises(ValueError, match="a fortiori"):
            certify_alamouti_block(spec, build_rotation(2))

    def test_family_mismatch(self):
        with pytest.raises(ValueError):
            certify_diagonal(CodeSpec(Family.ALAMOUTI_BLOCK, 4, 2, 1),
                             build_rotation(2))
        with pytest.raises(ValueError):
            certify_alamouti_block(CodeSpec(Family.DIAGONAL, 4, 2, 1),
                                   build_rotation(2))

    def test_certified_implies_no_witness(self):
        # regression link between the two checker styles on a small corpus
        corpus = [
            build_diagonal_code(2, 2, 2),
            build_diagonal_code(4, 1, 2),
            build_alamouti_block_code(2, 2),
        ]
        for design, grouping, spec in corpus:
            rot = build_rotation(spec.group_size)
            if spec.family is Family.DIAGONAL:
                assert certify_diagonal(spec, rot)
            else:
                assert certify_alamouti_block(spec, rot)
            assert falsify_picsic(design, grouping, pam_levels=2,
                                  trials_per_group=200, rng_seed=2) is None

    def test_eight_pam_certificate(self):
        # B = 7 at dim 8: the certificate behind `verify --pam-levels 8`
        _, _, spec = build_diagonal_code(8, 8, 1)
        assert certify_diagonal(spec, build_rotation(8), pam_levels=8)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            certify_diagonal(CodeSpec(Family.DIAGONAL, 4, 2, 1), build_rotation(3))


# every certified-rotation code of both families: sec3 at N in 1..6, 8 with
# group size 1, 2 or N and 1-4 layers; sec4 at N in 2, 4, 6, 8 with 1-3 layers
CERTIFIED_CORPUS = (
    [("sec3", nt, lam, n) for nt in (1, 2, 3, 4, 5, 6, 8)
     for lam in sorted({1, 2, nt}) if lam <= nt for n in (1, 2, 3, 4)]
    + [("sec4", nt, nt // 2, n) for nt in (2, 4, 6, 8) for n in (1, 2, 3)]
)


def _corpus_code(family, nt, lam, n, rotation=None):
    if family == "sec3":
        return build_diagonal_code(nt, lam, n, rotation=rotation, normalize=False)
    return build_alamouti_block_code(nt, n, rotation=rotation, normalize=False)


def _blind_spot():
    """A1 = I, A2 = diag(1, -1) in groups {1} and {2}: 2 A1 - 2 A2 has rank 1."""
    return (Design(np.array([np.eye(2), np.diag([1.0, -1.0])], dtype=complex)),
            GroupingScheme(((0,), (1,)), 2))


# (name, builder of the design and grouping, mode, outcome) beyond the PIC-SIC corpus
CERTIFY_CASES = [
    ("sec4(4,2)", lambda: _corpus_code("sec4", 4, 2, 2), "pic", True),
    ("sec3(3,2,2)", lambda: _corpus_code("sec3", 3, 2, 2), "pic", True),
    ("sec3(2,2,3)", lambda: _corpus_code("sec3", 2, 2, 3), "pic", False),
    ("sec3(3,2,3)", lambda: _corpus_code("sec3", 3, 2, 3), "pic", False),
    ("sec3(3,2,4)", lambda: _corpus_code("sec3", 3, 2, 4), "pic", False),
    ("sec3(3,3,3)", lambda: _corpus_code("sec3", 3, 3, 3), "pic", False),
    ("sec3(4,4,3)", lambda: _corpus_code("sec3", 4, 4, 3), "pic", False),
    ("sec4(4,3)", lambda: _corpus_code("sec4", 4, 2, 3), "pic", False),
    ("identity-sec3(3,2,2)", lambda: _identity_diagonal(3, 2, 2), "pic", False),
    ("identity-sec3(3,2,2)", lambda: _identity_diagonal(3, 2, 2), "picsic", False),
    ("identity-sec4(4,2)", lambda: _corpus_code("sec4", 4, 2, 2, rotation=np.eye(2)),
     "pic", False),
    ("identity-sec4(4,2)", lambda: _corpus_code("sec4", 4, 2, 2, rotation=np.eye(2)),
     "picsic", False),
    ("blind-spot", _blind_spot, "pic", False),
    ("blind-spot", _blind_spot, "picsic", False),
]


class TestCertify:
    def test_picsic_proves_the_certified_corpus(self):
        declined = [code for code in CERTIFIED_CORPUS
                    if not certify(*_corpus_code(*code)[:2], "picsic")]
        assert declined == []

    @pytest.mark.parametrize("name, build, mode, outcome", CERTIFY_CASES,
                             ids=[f"{c[0]}-{c[2]}" for c in CERTIFY_CASES])
    def test_outcome(self, name, build, mode, outcome):
        design, scheme = build()[:2]
        assert certify(design, scheme, mode) is outcome

    @pytest.mark.parametrize("scale_exp", [-300, 300])
    def test_outcomes_are_scale_free(self, scale_exp):
        cases = [(build, mode) for _, build, mode, _ in CERTIFY_CASES] + [
            (lambda code=code: _corpus_code(*code), "picsic")
            for code in (("sec3", 3, 2, 4), ("sec3", 8, 8, 1), ("sec4", 4, 2, 2))]
        for build, mode in cases:
            design, scheme = build()[:2]
            scaled = Design(design.weight_matrices * 2.0 ** scale_exp)
            assert certify(scaled, scheme, mode) is certify(design, scheme, mode)

    def test_the_closed_form_pic_witness(self):
        # sec3(2,2,3), groups[2] (layer 1's real parts), a = (2, 0), z = q a:
        # u = q^T (0, z0) on groups[0] and q^T (z1, 0) on groups[4] cancel
        # layer 1 down to rank 1; PIC-SIC leaves groups[0] out, PIC does not
        design, scheme, _ = build_diagonal_code(2, 2, 3, normalize=False)
        q = build_rotation(2).entries
        z = q @ [2.0, 0.0]
        x = np.zeros(design.num_real_symbols)
        x[list(scheme.groups[2])] = [2.0, 0.0]
        x[list(scheme.groups[0])] = q.T @ [0.0, z[0]]
        x[list(scheme.groups[4])] = q.T @ [z[1], 0.0]
        mat = np.tensordot(x, design.weight_matrices, axes=(0, 0))
        expected = np.array([[0, 0], [z[0], z[0]], [z[1], z[1]], [0, 0]])
        assert np.allclose(mat, expected, rtol=0, atol=1e-12)
        assert numerical_rank(mat) == 1
        s = np.linalg.svd(mat, compute_uv=False)
        assert s[0] == pytest.approx(np.sqrt(2) * 2.0) and s[1] < 1e-14
        assert set(scheme.groups[0]) <= set(scheme.complement(2))
        assert not set(scheme.groups[0]) & set(scheme.later(2))
        assert not certify(design, scheme, "pic") and certify(design, scheme, "picsic")

    @pytest.mark.parametrize("code, mode", [
        (("sec3", 3, 2, 4), "picsic"), (("sec3", 4, 1, 3), "picsic"),
        (("sec3", 3, 2, 2), "pic"), (("sec3", 4, 1, 2), "pic"),
        (("sec4", 4, 2, 2), "pic"), (("sec4", 4, 2, 2), "picsic"),
        (("sec4", 2, 1, 3), "pic")])
    def test_a_proof_leaves_the_falsifier_nothing(self, code, mode):
        design, scheme, _ = _corpus_code(*code)
        assert certify(design, scheme, mode)
        falsify = falsify_pic if mode == "pic" else falsify_picsic
        assert falsify(design, scheme, pam_levels=4, trials_per_group=30,
                       rng_seed=5) is None

    def test_a_form_below_the_threshold_is_not_a_proof(self):
        # a = (3, -1) leaves 1e-11 of each unit-scale form; numerical_rank
        # calls X(2a) deficient, so the certificate must not prove it
        q = np.array([[1.0, 3 + 1e-11], [3 + 1e-11, 1.0]])
        design, scheme, _ = build_diagonal_code(2, 2, 1, rotation=q, normalize=False)
        mat = np.tensordot([6.0, -2.0], design.weight_matrices[list(scheme.groups[0])],
                           axes=(0, 0))
        assert numerical_rank(mat) == 1
        assert not certify(design, scheme, "pic") and not certify(design, scheme, "picsic")

    def test_a_group_above_the_rotation_sizes_is_not_proven(self):
        # one group of 9 real symbols, two to each entry of a 5 x 1 codeword:
        # the box search is sized for rotations (at most 8), so certify says
        # False without searching, and does not raise
        w = np.zeros((9, 5, 1), dtype=complex)
        w[np.arange(9), np.arange(9) // 2, 0] = np.where(np.arange(9) % 2, 1j, 1)
        scheme = GroupingScheme((tuple(range(9)),), 9)
        for mode in ("pic", "picsic"):
            assert certify(Design(w), scheme, mode) is False

    def test_bad_inputs(self):
        design, scheme, _ = build_diagonal_code(2, 2, 1)
        with pytest.raises(ValueError, match="mode"):
            certify(design, scheme, "ml")
        with pytest.raises(ValueError, match="grouping covers"):
            certify(design, GroupingScheme(((0,), (1,)), 2), "pic")
        with pytest.raises(ValueError, match="pam_levels"):
            certify(design, scheme, "pic", pam_levels=1)


@st.composite
def _triangular_designs(draw):
    """A design that is block lower triangular under hidden row and column
    orders, with 1x1 or quaternion diagonal blocks.  In each diagonal block
    group g's symbols map onto column g of a random orthogonal matrix,
    scaled by a random form, so the groups' images are independent."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    blocks = draw(st.lists(st.sampled_from([1, 2]), min_size=1, max_size=3))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1,
                          max_size=2 if 1 in blocks else 4))
    n, k = sum(blocks), sum(sizes)
    extra = -(-k // (2 * n))  # dense random rows keep the matrices independent
    t = n + extra
    starts = np.cumsum([0] + blocks)
    w = np.zeros((k, t, n), dtype=complex)
    w[:, n:] = _complex_normal(rng, (k, extra, n))
    for b, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
        w[:, hi:n, lo:hi] = _complex_normal(rng, (k, n - hi, hi - lo))
        basis, _ = np.linalg.qr(rng.standard_normal((2 * (hi - lo),) * 2))
        first = 0
        for g, size in enumerate(sizes):
            coords = np.outer(rng.standard_normal(size), basis[:, g])
            p = coords[:, 0] + 1j * coords[:, 1]
            if hi - lo == 1:
                w[first:first + size, lo, lo] = p
            else:
                q = coords[:, 2] + 1j * coords[:, 3]
                w[first:first + size, lo:hi, lo:hi] = np.stack(
                    [np.stack([p, q], -1), np.stack([-q.conj(), p.conj()], -1)], -2)
            first += size
    w = w[:, rng.permutation(t)][:, :, rng.permutation(n)]
    groups = np.split(np.arange(k), np.cumsum(sizes)[:-1])
    return Design(w), GroupingScheme(tuple(map(tuple, groups)), k), rng


class TestCertifyProperty:
    @settings(max_examples=60, deadline=None)
    @given(case=_triangular_designs())
    def test_a_triangular_design_is_certified_and_keeps_rank(self, case):
        design, scheme, rng = case
        w, n = design.weight_matrices, design.antennas
        for mode, interference_of in (("pic", scheme.complement),
                                      ("picsic", scheme.later)):
            assert certify(design, scheme, mode, pam_levels=4)
            for k, group in enumerate(scheme.groups):
                a = np.zeros(len(group))
                while not a.any():
                    a = 2.0 * rng.integers(-3, 4, size=len(group))
                idx = list(interference_of(k))
                mat = (np.tensordot(a, w[list(group)], axes=(0, 0))
                       + np.tensordot(rng.standard_normal(len(idx)), w[idx], axes=(0, 0)))
                assert numerical_rank(mat) == n
