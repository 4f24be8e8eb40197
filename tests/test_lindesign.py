import json

import numpy as np
import pytest

from stbclab.constructions import build_alamouti_block_code
from stbclab.lindesign import (
    Design, GroupingScheme, assemble_codeword, design_from_json, design_to_json,
    equivalent_channel, grouping_from_json, grouping_to_json, vec_complex,
)


def alamouti_design():
    a1 = np.eye(2, dtype=complex)
    a2 = np.diag([1j, -1j])
    a3 = np.array([[0, 1], [-1, 0]], dtype=complex)
    a4 = np.array([[0, 1j], [1j, 0]])
    return Design(np.stack([a1, a2, a3, a4]))


def assert_stack_is_the_loop(stacked, singles, lead):
    """A stack equals its single calls bitwise, shaped by the leading axes."""
    singles = np.array(singles)
    assert stacked.shape == lead + singles.shape[1:]
    assert stacked.tobytes() == singles.tobytes()


class TestVecComplex:
    def test_scalar(self):
        assert np.array_equal(vec_complex(np.array([[1 + 2j]])), [1.0, 2.0])

    def test_identity(self):
        assert np.array_equal(vec_complex(np.eye(2)), [1, 0, 0, 1, 0, 0, 0, 0])

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        re, im = vec_complex(a).reshape(2, 2, 3)  # halves of column-major stacks
        assert np.array_equal(re.T + 1j * im.T, a)

    def test_column_major_stacking(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        assert np.array_equal(vec_complex(a)[:4], [1, 3, 2, 4])


class TestDesign:
    def test_dependent_matrices_rejected(self):
        w = np.stack([np.eye(2, dtype=complex), 2 * np.eye(2)])
        with pytest.raises(ValueError, match="dependent"):
            Design(w)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
    def test_non_finite_weights_rejected(self, value):
        # a non-finite entry is named as such, not as a dependency or an SVD failure
        w = np.stack([np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex)])
        w[1, 0, 1] = value
        with pytest.raises(ValueError, match="weight matrices must be finite"):
            Design(w)

    @pytest.mark.parametrize("shape", [(2, 2), (1, 2, 2, 1)])
    def test_weights_must_be_a_k_t_n_array(self, shape):
        with pytest.raises(ValueError, match=r"must be a \(K, T, N\) array"):
            Design(np.ones(shape, dtype=complex))

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

    @pytest.mark.parametrize("receive", [1, 2, 3])
    def test_c_ordered_at_every_receive_count(self, receive):
        # G's memory order decides how g @ x rounds, so it must not depend on N_r
        d, _, _ = build_alamouti_block_code(4, 2)
        rng = np.random.default_rng(receive)
        h = rng.standard_normal((4, receive)) + 1j * rng.standard_normal((4, receive))
        x = rng.standard_normal(d.num_real_symbols)
        g = equivalent_channel(d, h)
        assert g.shape == (2 * receive * d.delay, d.num_real_symbols)
        assert g.flags.c_contiguous
        expected = vec_complex(assemble_codeword(d, x) @ h)
        assert np.allclose(g @ x, expected, rtol=1e-12, atol=1e-12)

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
        assert s.groups == ((0, 1), (2, 3), (4, 5))

    def test_two_element_swap(self):
        # group order is decode order, so swapped groups swap what comes later
        s = GroupingScheme(((1,), (0,)), 2)
        assert s.later(0) == (0,) and s.later(1) == ()
        assert s.complement(0) == (0,)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        order = rng.permutation(9)
        s = GroupingScheme((tuple(order[:4]), tuple(order[4:7]), tuple(order[7:])), 9)
        back = grouping_from_json(json.loads(json.dumps(grouping_to_json(s))))
        assert back == s

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

    def test_certified_design_bytes_survive_a_file_round_trip(self):
        # certified sec4(4,2) holds entries with real part -0.0; they must
        # come back as -0.0, not +0.0
        design, _, _ = build_alamouti_block_code(4, 2)
        w = design.weight_matrices
        assert np.any((w.real == 0) & np.signbit(w.real))
        back = design_from_json(json.loads(json.dumps(design_to_json(design))))
        assert back.weight_matrices.tobytes() == w.tobytes()
        assert back.power_scale == design.power_scale

    def test_short_row_rejected(self):
        doc = design_to_json(alamouti_design())
        doc["matrices"][1][0] = doc["matrices"][1][0][:1]
        with pytest.raises(ValueError):
            design_from_json(doc)

    def test_extra_matrix_rejected(self):
        doc = design_to_json(alamouti_design())
        doc["matrices"].append(doc["matrices"][0])
        with pytest.raises(ValueError, match="shape"):
            design_from_json(doc)


class TestStacks:
    """vec_complex, assemble_codeword and equivalent_channel on stacks: bitwise their loops."""

    LEAD = (3, 2)

    @pytest.fixture(scope="class")
    def design(self):
        return build_alamouti_block_code(4, 2)[0]

    def test_vec_complex(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(self.LEAD + (5, 2)) + 1j * rng.standard_normal(self.LEAD + (5, 2))
        assert vec_complex(a[0, 0]).shape == (20,)
        assert_stack_is_the_loop(vec_complex(a), [vec_complex(m) for m in a.reshape(-1, 5, 2)],
                                 self.LEAD)

    def test_assemble_codeword(self, design):
        x = np.random.default_rng(1).standard_normal(self.LEAD + (design.num_real_symbols,))
        singles = [assemble_codeword(design, v) for v in x.reshape(-1, x.shape[-1])]
        assert singles[0].shape == (design.delay, design.antennas)
        assert_stack_is_the_loop(assemble_codeword(design, x), singles, self.LEAD)

    @pytest.mark.parametrize("receive", [1, 2, 3])
    def test_equivalent_channel(self, design, receive):
        rng = np.random.default_rng(receive)
        h = (rng.standard_normal(self.LEAD + (4, receive))
             + 1j * rng.standard_normal(self.LEAD + (4, receive)))
        g = equivalent_channel(design, h)
        singles = [equivalent_channel(design, m) for m in h.reshape(-1, 4, receive)]
        assert singles[0].shape == (2 * receive * design.delay, design.num_real_symbols)
        assert g.flags.c_contiguous
        assert_stack_is_the_loop(g, singles, self.LEAD)
