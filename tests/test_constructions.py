from fractions import Fraction

import numpy as np
import pytest

from stbclab.channel import pam_for_qam
from stbclab.constructions import (
    CodeSpec, Family, alamouti_block, build_alamouti_block_code, build_code,
    build_diagonal_code, normalize_power, tabulate_tradeoff,
)
from stbclab.lindesign import Design, assemble_codeword
from stbclab.rotations import build_rotation


def layout_matrix(pattern, shape):
    """Expected codeword from {(row, col): (re_index, im_index)}: 1-based,
    sign-carrying z indices evaluated at z_j = j."""
    out = np.zeros(shape, dtype=complex)
    for (r, c), (re_i, im_i) in pattern.items():
        out[r - 1, c - 1] = re_i + 1j * im_i
    return out


# reference layout, 3 antennas, 2 symbols per group, 4 layers (z_j = j)
LAYOUT_N3 = {
    (1, 1): (1, 3), (2, 1): (5, 7), (3, 1): (9, 11), (4, 1): (13, 15),
    (2, 2): (2, 4), (3, 2): (6, 8), (4, 2): (10, 12), (5, 2): (14, 16),
    (3, 3): (1, 3), (4, 3): (5, 7), (5, 3): (9, 11), (6, 3): (13, 15),
}

# reference layout, 4 antennas, 2 layers of Alamouti blocks (z_j = j)
LAYOUT_N4 = {
    (1, 1): (1, 3), (1, 2): (5, 7), (2, 1): (-5, 7), (2, 2): (1, -3),
    (3, 1): (9, 11), (3, 2): (13, 15), (4, 1): (-13, 15), (4, 2): (9, -11),
    (3, 3): (2, 4), (3, 4): (6, 8), (4, 3): (-6, 8), (4, 4): (2, -4),
    (5, 3): (10, 12), (5, 4): (14, 16), (6, 3): (-14, 16), (6, 4): (10, -12),
}


def codeword_for_z(design, rotation, z):
    """Feed x = Q^T z per group so the codeword shows the raw z pattern."""
    lam = rotation.entries.shape[0]
    x = (np.asarray(z, dtype=float).reshape(-1, lam) @ rotation.entries).ravel()
    return assemble_codeword(design.with_power_scale(1.0), x)


class TestDiagonalFamily:
    def test_reference_layout_three_antennas(self):
        rot = build_rotation(2)
        design, grouping, spec = build_diagonal_code(3, 2, 4, rotation=rot)
        assert (spec.num_real_symbols, spec.delay, spec.num_groups) == (16, 6, 8)
        assert spec.rate == Fraction(4, 3)
        assert grouping.groups[0] == (0, 1) and grouping.groups[7] == (14, 15)
        got = codeword_for_z(design, rot, np.arange(1, 17))
        assert np.allclose(got, layout_matrix(LAYOUT_N3, (6, 3)), atol=1e-10)

    def test_smallest_instance(self):
        design, grouping, spec = build_diagonal_code(1, 1, 1)
        assert spec.rate == 1 and spec.worst_case_exponent == 0
        x = assemble_codeword(design.with_power_scale(1.0), [2.0, 3.0])
        assert np.allclose(x, [[2 + 3j]])

    def test_repetition_code_weights(self):
        design, _, _ = build_diagonal_code(2, 1, 1, normalize=False)
        assert np.allclose(design.weight_matrices[0], np.eye(2))
        assert np.allclose(design.weight_matrices[1], 1j * np.eye(2))

    def test_rate2_full_group_code(self):
        _, _, spec = build_diagonal_code(4, 4, 3)
        assert spec.rate == 2
        assert spec.worst_case_exponent == Fraction(3, 2)

    def test_toeplitz_constant_diagonals(self):
        rng = np.random.default_rng(0)
        design, _, spec = build_diagonal_code(4, 1, 3)
        x = rng.standard_normal(spec.num_real_symbols)
        mat = assemble_codeword(design, x)
        for m in range(spec.layers):
            band = [mat[m + j, j] for j in range(spec.antennas)]
            assert np.allclose(band, band[0])
        # everything off the band is zero
        for i in range(spec.delay):
            for j in range(spec.antennas):
                if not 0 <= i - j < spec.layers:
                    assert mat[i, j] == 0

    def test_single_layer_full_group_is_diagonal(self):
        rng = np.random.default_rng(1)
        design, _, spec = build_diagonal_code(3, 3, 1)
        mat = assemble_codeword(design, rng.standard_normal(6))
        assert np.allclose(mat, np.diag(np.diag(mat)))

    def test_infeasible(self):
        with pytest.raises(ValueError):
            build_diagonal_code(2, 3, 1)
        with pytest.raises(ValueError):
            build_diagonal_code(3, 2, 1, rotation=np.eye(3))


class TestAlamoutiBlockFamily:
    def test_reference_layout_four_antennas(self):
        rot = build_rotation(2)
        design, grouping, spec = build_alamouti_block_code(4, 2, rotation=rot)
        assert (spec.num_real_symbols, spec.num_groups) == (16, 8)
        assert spec.rate == Fraction(4, 3)
        assert spec.worst_case_exponent == Fraction(1, 2)
        got = codeword_for_z(design, rot, np.arange(1, 17))
        assert np.allclose(got, layout_matrix(LAYOUT_N4, (6, 4)), atol=1e-10)

    def test_reduces_to_alamouti(self):
        design, grouping, spec = build_alamouti_block_code(2, 1, normalize=False)
        assert spec.delay == 2 and spec.rate == 1 and grouping.num_groups == 4
        x = assemble_codeword(design, np.array([1.0, 2.0, 3.0, 4.0]))
        assert np.allclose(x, [[1 + 2j, 3 + 4j], [-3 + 4j, 1 - 2j]])

    def test_eight_antennas_accounting(self):
        _, _, fine = build_alamouti_block_code(8, 3)
        assert fine.rate == 2 and fine.worst_case_exponent == Fraction(3, 2)
        _, coarse_grouping, coarse = build_alamouti_block_code(8, 3, variant="coarse")
        assert coarse.rate == 2 and coarse.worst_case_exponent == 4
        assert coarse.num_groups == 6 and coarse_grouping.n_max == 8

    def test_coarse_groups_are_pair_unions(self):
        _, g, _ = build_alamouti_block_code(4, 2, variant="coarse")
        assert g.groups == ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11), (12, 13, 14, 15))

    def test_block_determinant_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            za, zb, zc, zd = rng.standard_normal(4)
            det = np.linalg.det(alamouti_block(za, zb, zc, zd))
            assert abs(det - (za**2 + zb**2 + zc**2 + zd**2)) < 1e-10

    def test_odd_antennas_rejected(self):
        with pytest.raises(ValueError):
            build_alamouti_block_code(3, 1)


class TestCodeSpecSweep:
    def test_diagonal_closed_forms(self):
        from stbclab.rotations import SUPPORTED_DIMENSIONS

        for nt in range(1, 9):
            for lam in range(1, nt + 1):
                for n in range(1, 5):
                    spec = CodeSpec(Family.DIAGONAL, nt, lam, n)
                    assert spec.num_real_symbols == 2 * n * lam
                    assert spec.delay == nt + n - 1
                    assert spec.num_groups == 2 * n
                    assert spec.rate == Fraction(n * lam, nt + n - 1)
                    assert spec.worst_case_exponent == Fraction(lam - 1, 2)
                    if lam not in SUPPORTED_DIMENSIONS:
                        continue
                    design, grouping, built = build_diagonal_code(nt, lam, n)
                    assert design.num_real_symbols == spec.num_real_symbols
                    assert design.delay == spec.delay
                    assert grouping.num_groups == spec.num_groups
                    assert built == spec

    def test_alamouti_block_closed_forms(self):
        for nt in (2, 4, 6, 8):
            for n in range(1, 5):
                design, grouping, spec = build_alamouti_block_code(nt, n)
                assert design.num_real_symbols == spec.num_real_symbols == 2 * n * nt
                assert design.delay == spec.delay == nt + 2 * (n - 1)
                assert grouping.num_groups == spec.num_groups == 4 * n
                assert spec.rate == Fraction(n * nt, nt + 2 * (n - 1))
                assert spec.worst_case_exponent == Fraction(nt - 2, 4)

    def test_from_delay(self):
        spec = CodeSpec.from_delay("sec3", 4, 9, group_size=3)
        assert spec.layers == 6 and spec.rate == 2 and spec.worst_case_exponent == 1
        spec = CodeSpec.from_delay("sec4", 4, 6)
        assert spec.layers == 2 and spec.rate == Fraction(4, 3)
        with pytest.raises(ValueError):
            CodeSpec.from_delay("sec3", 4, 3, group_size=2)
        with pytest.raises(ValueError):
            CodeSpec.from_delay("sec4", 4, 7)


class TestBuildCode:
    def test_dispatches_by_family_token(self):
        cases = (
            (build_code("sec3", 3, 4, 2), build_diagonal_code(3, 2, 4)),
            (build_code("sec4", 4, 2), build_alamouti_block_code(4, 2)),
            (build_code("sec4", 4, 2, 2, variant="coarse"),
             build_alamouti_block_code(4, 2, variant="coarse")),
            (build_code("sec3", 3, 4, 2, identity_rotation=True),
             build_diagonal_code(3, 2, 4, rotation=np.eye(2))),
            (build_code("sec4", 4, 2, 0, identity_rotation=True),
             build_alamouti_block_code(4, 2, rotation=np.eye(2))),
        )
        for (design, scheme, spec), (want_design, want_scheme, want_spec) in cases:
            assert np.array_equal(design.weight_matrices, want_design.weight_matrices)
            assert scheme.groups == want_scheme.groups and spec == want_spec

    @pytest.mark.parametrize("args, kwargs, match", [
        (("sec3", 3, 4), {}, "requires a group size"),
        (("sec3", 3, 4, 2), {"variant": "coarse"}, "no coarse grouping"),
        (("sec4", 4, 2, 3), {}, "fixed at N/2"),
        (("sec5", 4, 2), {}, "sec5"),
    ])
    def test_rejects_ill_posed_input(self, args, kwargs, match):
        with pytest.raises(ValueError, match=match):
            build_code(*args, **kwargs)


class TestNormalizePower:
    def test_unit_scale_case(self):
        w = np.zeros((1, 2, 2), dtype=complex)
        w[0, 0, 0] = 1.0
        w[0, 1, 1] = 1.0  # Frobenius norm^2 = 2 = T with energy 1
        d = normalize_power(Design(w), per_symbol_energy=1.0)
        assert np.isclose(d.power_scale, 1.0)

    def test_all_zero_rejected(self):
        w = np.stack([np.eye(2, dtype=complex)])
        d = Design(w)
        object.__setattr__(d, "weight_matrices", np.zeros_like(w))
        with pytest.raises(ValueError):
            normalize_power(d)

    @pytest.mark.parametrize("builder,args", [
        (build_alamouti_block_code, (2, 1)),
        (build_alamouti_block_code, (4, 2)),
        (build_diagonal_code, (3, 2, 4)),
        (build_diagonal_code, (4, 1, 3)),
    ])
    def test_monte_carlo_power_constraint(self, builder, args):
        design = builder(*args)[0]
        rng = np.random.default_rng(9)
        alpha = pam_for_qam(4)
        k, t = design.num_real_symbols, design.delay
        total = 0.0
        trials = 10_000
        symbols = alpha.levels[rng.integers(0, alpha.size, size=(trials, k))]
        for row in symbols:
            total += np.sum(np.abs(assemble_codeword(design, row)) ** 2) / t
        assert 0.99 <= total / trials <= 1.01


class TestTradeoff:
    def test_eight_antenna_twelve_delay_points(self):
        rows = {(r.family, r.symbols_per_group): r for r in tabulate_tradeoff(8, 12)}
        for lam in range(1, 9):
            r = rows[("diagonal", lam)]
            assert r.rate == Fraction(5 * lam, 12)
            assert r.exponent == Fraction(lam - 1, 2)
        assert rows[("alamouti_block", 4)].rate == 2
        assert rows[("alamouti_block", 4)].exponent == Fraction(3, 2)
        assert rows[("alamouti_block_coarse", 8)].exponent == 4
        assert rows[("diagonal_coarse", 16)].rate == Fraction(10, 3)
        assert rows[("diagonal_coarse", 16)].exponent == 8
        assert rows[("toeplitz", 1)].exponent == 0

    def test_two_antenna_three_delay(self):
        rows = tabulate_tradeoff(2, 3)
        fams = {r.family for r in rows}
        assert "alamouti_block" not in fams  # odd delay
        point = [r for r in rows if r.family == "diagonal" and r.symbols_per_group == 2]
        assert point[0].rate == Fraction(4, 3) and point[0].exponent == Fraction(1, 2)

    def test_infeasible(self):
        with pytest.raises(ValueError):
            tabulate_tradeoff(4, 3)
        with pytest.raises(ValueError):
            tabulate_tradeoff(3, 5, families=["alamouti_block"])
        with pytest.raises(ValueError):
            tabulate_tradeoff(2, 4, families=["nonsense"])
