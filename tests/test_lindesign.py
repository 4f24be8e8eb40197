import numpy as np
import pytest

from stbclab.lindesign import (
    Design, GroupingScheme, assemble_codeword, combine_subset,
    design_from_json, design_to_json, equivalent_channel, extract_design,
    grouping_from_json, grouping_permutation, grouping_to_json, unvec_complex,
    vec_complex,
)


def alamouti_design():
    a1 = np.eye(2, dtype=complex)
    a2 = np.diag([1j, -1j])
    a3 = np.array([[0, 1], [-1, 0]], dtype=complex)
    a4 = np.array([[0, 1j], [1j, 0]])
    return Design(np.stack([a1, a2, a3, a4]))


class TestVecComplex:
    def test_scalar(self):
        assert np.array_equal(vec_complex(np.array([[1 + 2j]])), [1.0, 2.0])

    def test_identity(self):
        assert np.array_equal(vec_complex(np.eye(2)), [1, 0, 0, 1, 0, 0, 0, 0])

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        assert np.allclose(unvec_complex(vec_complex(a), 3, 2), a, atol=0)

    def test_column_major_stacking(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        assert np.array_equal(vec_complex(a)[:4], [1, 3, 2, 4])


class TestDesign:
    def test_dependent_matrices_rejected(self):
        w = np.stack([np.eye(2, dtype=complex), 2 * np.eye(2)])
        with pytest.raises(ValueError, match="dependent"):
            Design(w)

    def test_too_many_symbols_rejected(self):
        w = np.zeros((9, 2, 1), dtype=complex)
        with pytest.raises(ValueError):
            Design(w)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError, match="power_scale"):
            Design(np.eye(2, dtype=complex)[None], power_scale=0.0)

    def test_rank_invariant_holds_for_alamouti(self):
        d = alamouti_design()
        stacked = np.stack([vec_complex(m) for m in d.weight_matrices], axis=1)
        assert np.linalg.matrix_rank(stacked) == 4


class TestAssemble:
    def test_zero_vector(self):
        d = alamouti_design()
        assert np.array_equal(assemble_codeword(d, np.zeros(4)), np.zeros((2, 2)))

    def test_alamouti_form(self):
        d = alamouti_design()
        a, b, c, e = 0.3, -1.2, 0.7, 2.5
        x = assemble_codeword(d, [a, b, c, e])
        expected = np.array([[a + 1j * b, c + 1j * e], [-c + 1j * e, a - 1j * b]])
        assert np.allclose(x, expected, atol=1e-15)

    def test_basis_probing(self):
        d = alamouti_design().with_power_scale(0.6)
        for i in range(4):
            e = np.zeros(4)
            e[i] = 1.0
            assert np.allclose(assemble_codeword(d, e), 0.6 * d.weight_matrices[i])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            assemble_codeword(alamouti_design(), np.zeros(3))


class TestCombineSubset:
    def test_full_set(self):
        d = alamouti_design()
        x = np.array([1.0, -2.0, 0.5, 3.0])
        full = combine_subset(d, range(4), x)
        assert np.allclose(full, np.tensordot(x, d.weight_matrices, axes=(0, 0)))

    def test_singleton_and_empty(self):
        d = alamouti_design()
        assert np.allclose(combine_subset(d, [0], [1.0]), d.weight_matrices[0])
        assert np.array_equal(combine_subset(d, [], []), np.zeros((2, 2)))

    def test_split_merge(self):
        d = alamouti_design()
        rng = np.random.default_rng(1)
        x = rng.standard_normal(4)
        left = combine_subset(d, [0, 2], x[[0, 2]])
        right = combine_subset(d, [1, 3], x[[1, 3]])
        assert np.allclose(left + right, combine_subset(d, range(4), x))

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            combine_subset(alamouti_design(), [4], [1.0])

    def test_scale_ignored(self):
        d = alamouti_design().with_power_scale(3.0)
        assert np.allclose(combine_subset(d, [0], [1.0]), d.weight_matrices[0])


class TestEquivalentChannel:
    def test_zero_channel(self):
        g = equivalent_channel(alamouti_design(), np.zeros((2, 3)))
        assert g.shape == (12, 4) and not g.any()

    def test_consistency_random(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((5, 4, 3)) + 1j * rng.standard_normal((5, 4, 3))
        d = Design(w, power_scale=0.37)
        for _ in range(20):
            h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
            x = rng.standard_normal(5)
            g = equivalent_channel(d, h)
            lhs = vec_complex(assemble_codeword(d, x) @ h)
            rhs = g @ x
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_alamouti_orthogonal_columns(self):
        g = equivalent_channel(alamouti_design(), np.array([[1.0], [0.0]], dtype=complex))
        gtg = g.T @ g
        assert np.allclose(gtg, np.diag(np.diag(gtg)), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            equivalent_channel(alamouti_design(), np.zeros((3, 1)))


class TestGrouping:
    def test_contiguous_is_identity(self):
        s = GroupingScheme.contiguous(2, 3)
        assert np.array_equal(grouping_permutation(s), np.arange(6))

    def test_two_element_swap(self):
        s = GroupingScheme(((1,), (0,)), 2)
        perm = grouping_permutation(s)
        x = np.array([10.0, 20.0])
        assert np.array_equal(x[perm], [20.0, 10.0])

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        order = rng.permutation(9)
        s = GroupingScheme((tuple(order[:4]), tuple(order[4:7]), tuple(order[7:])), 9)
        perm = grouping_permutation(s)
        assert sorted(perm) == list(range(9))
        x = rng.standard_normal(9)
        inv = np.empty(9, dtype=int)
        inv[perm] = np.arange(9)
        assert np.array_equal(x[perm][inv], x)

    def test_invalid_partitions(self):
        with pytest.raises(ValueError):
            GroupingScheme(((0, 1), (1, 2)), 3)
        with pytest.raises(ValueError):
            GroupingScheme(((0,), ()), 1)
        with pytest.raises(ValueError):
            GroupingScheme(((0, 2),), 2)

    def test_complement_and_later(self):
        s = GroupingScheme.contiguous(2, 3)
        assert s.complement(1) == (0, 1, 4, 5)
        assert s.later(0) == (2, 3, 4, 5)
        assert s.later(2) == ()
        assert s.n_max == 2


class TestExtractDesign:
    def test_recovers_weights(self):
        d = alamouti_design()

        def encoder(x):
            return assemble_codeword(d, x)

        got = extract_design(encoder, 4, 2, 2)
        assert np.allclose(got.weight_matrices, d.weight_matrices)

    def test_zero_encoder_rejected(self):
        with pytest.raises(ValueError):
            extract_design(lambda x: np.zeros((2, 2)), 2, 2, 2)

    def test_nonlinear_encoder_rejected(self):
        def encoder(x):
            m = np.zeros((2, 2), dtype=complex)
            m[0, 0] = x[0] + 0.01 * x[0] ** 2
            m[1, 1] = x[1]
            return m

        with pytest.raises(ValueError, match="linear"):
            extract_design(encoder, 2, 2, 2)


class TestJson:
    def test_design_round_trip(self):
        d = alamouti_design().with_power_scale(0.25)
        doc = design_to_json(d)
        back = design_from_json(doc)
        assert np.array_equal(back.weight_matrices, d.weight_matrices)
        assert back.power_scale == d.power_scale

    def test_grouping_round_trip_one_based(self):
        s = GroupingScheme(((2, 0), (1,)), 3)
        doc = grouping_to_json(s)
        assert doc == {"groups": [[3, 1], [2]]}
        assert grouping_from_json(doc).groups == s.groups
