import itertools

import numpy as np
import pytest

from stbclab.channel import (
    LinkInstance, demap, modulate, pam_for_qam, sample_link, transmit,
)
from stbclab.lindesign import equivalent_channel, vec_complex, assemble_codeword
from tests.test_lindesign import alamouti_design, assert_stack_is_the_loop


class TestPamAlphabet:
    def test_qam4_levels(self):
        a = pam_for_qam(4)
        assert np.allclose(a.levels, np.array([-1, 1]) / np.sqrt(2))
        assert a.bit_width == 1

    def test_qam16_levels(self):
        a = pam_for_qam(16)
        assert np.allclose(a.levels, np.array([-3, -1, 1, 3]) / np.sqrt(10))
        assert a.bit_width == 2

    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_energy_and_shape(self, m):
        a = pam_for_qam(m)
        assert abs(a.levels.mean()) < 1e-12
        assert abs(np.mean(a.levels ** 2) - 0.5) < 1e-12
        assert np.all(np.diff(a.levels) > 0)

    @pytest.mark.parametrize("m", [2, 8, 32, 9, 5])
    def test_non_square_qam_rejected(self, m):
        with pytest.raises(ValueError):
            pam_for_qam(m)

    def test_gray_order_qam16(self):
        # ascending levels -3,-1,+1,+3 carry Gray codes 00,01,11,10
        a = pam_for_qam(16)
        bits = a.index_to_bits(np.arange(4))
        assert np.array_equal(bits, [0, 0, 0, 1, 1, 1, 1, 0])

    def test_bit_level_map_qam4(self):
        a = pam_for_qam(4)
        x = modulate([0, 1], a)
        assert np.allclose(x, [-1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_midpoint_quantizes_down(self):
        from stbclab.channel import PamAlphabet

        a = PamAlphabet(np.array([-1.5, -0.5, 0.5, 1.5]), bit_width=2)
        assert a.nearest_index(np.array([0.0]))[0] == 1
        assert a.nearest_index(np.array([1.0]))[0] == 2

    def test_every_computed_midpoint_maps_to_the_lower_index(self):
        # (l_k + l_(k+1)) / 2 as a double is a tie, whatever its rounding
        for m in (4, 16, 64, 256):
            a = pam_for_qam(m)
            mid = (a.levels[:-1] + a.levels[1:]) / 2
            assert np.array_equal(a.nearest_index(mid), np.arange(a.size - 1))
            assert np.array_equal(a.nearest_index(np.nextafter(mid, np.inf)),
                                  np.arange(1, a.size))

    def test_quantize_clamps(self):
        a = pam_for_qam(4)
        assert a.quantize(np.array([99.0]))[0] == a.levels[-1]
        assert a.quantize(np.array([-99.0]))[0] == a.levels[0]


class TestModulateDemap:
    @pytest.mark.parametrize("m", [4, 16, 64, 256])
    def test_round_trip_all_patterns(self, m):
        a = pam_for_qam(m)
        for bits in itertools.product([0, 1], repeat=3 * a.bit_width):
            b = np.array(bits)
            assert np.array_equal(demap(modulate(b, a), a), b)

    def test_demap_quantizes_noise(self):
        a = pam_for_qam(4)
        x = modulate(np.array([0, 1, 1, 0]), a)
        noisy = x + np.array([0.1, -0.1, 0.2, 0.05])
        assert np.array_equal(demap(noisy, a), [0, 1, 1, 0])

    def test_bad_length(self):
        with pytest.raises(ValueError):
            modulate([0, 1, 0], pam_for_qam(16))


class TestSampleLink:
    def test_snr_conversion(self):
        link = sample_link(2, 1, 2, 0.0, np.random.default_rng(0))
        assert link.snr == 1.0

    def test_seed_determinism(self):
        a = sample_link(3, 2, 4, 10.0, np.random.default_rng(42))
        b = sample_link(3, 2, 4, 10.0, np.random.default_rng(42))
        assert np.array_equal(a.h, b.h) and np.array_equal(a.w, b.w)

    def test_channel_energy(self):
        rng = np.random.default_rng(7)
        total = 0.0
        trials = 20000
        for _ in range(trials):
            total += np.sum(np.abs(sample_link(2, 2, 1, 0.0, rng).h) ** 2)
        assert abs(total / trials / 4.0 - 1.0) < 0.02

    def test_negative_snr_rejected(self):
        with pytest.raises(ValueError):
            LinkInstance(np.zeros((1, 1)), np.zeros((1, 1)), -1.0)


class TestTransmit:
    def test_zero_snr_is_noise_only(self):
        rng = np.random.default_rng(1)
        link = sample_link(2, 2, 3, -np.inf, rng)
        y = transmit(np.ones((3, 2)), link)
        assert np.array_equal(y, link.w)

    def test_forced_channel_column(self):
        x = np.arange(6, dtype=complex).reshape(3, 2)
        link = LinkInstance(np.array([[1.0], [0.0]]), np.zeros((3, 1)), 4.0)
        assert np.allclose(transmit(x, link), 2.0 * x[:, :1])

    def test_consistency_with_equivalent_channel(self):
        rng = np.random.default_rng(5)
        d = alamouti_design().with_power_scale(0.8)
        link = sample_link(2, 2, 2, 12.0, rng)
        x = rng.standard_normal(4)
        y = transmit(assemble_codeword(d, x), link)
        lhs = vec_complex(y)
        rhs = np.sqrt(link.snr) * equivalent_channel(d, link.h) @ x + vec_complex(link.w)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_dimension_mismatch(self):
        link = LinkInstance(np.zeros((2, 1)), np.zeros((3, 1)), 1.0)
        with pytest.raises(ValueError):
            transmit(np.zeros((3, 3)), link)

    def test_received_snr_matches_nominal(self):
        # with a power-normalized design, E||sqrt(snr) X H||^2 / E||W||^2 = snr
        from stbclab.channel import modulate
        from stbclab.constructions import build_alamouti_block_code

        rng = np.random.default_rng(8)
        design, _, _ = build_alamouti_block_code(4, 2)
        alpha = pam_for_qam(4)
        k, t = design.num_real_symbols, design.delay
        sig = noise = 0.0
        for _ in range(4000):
            x = modulate(rng.integers(0, 2, k), alpha)
            link = sample_link(4, 2, t, 7.0, rng)
            y_sig = np.sqrt(link.snr) * assemble_codeword(design, x) @ link.h
            sig += np.sum(np.abs(y_sig) ** 2)
            noise += np.sum(np.abs(link.w) ** 2)
        assert abs(sig / noise / 10 ** 0.7 - 1.0) < 0.03


class TestStacks:
    """Each draw-layer function on a stack is bitwise a loop of its single calls."""

    LEAD = (2, 3)

    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_modulate_and_demap(self, m):
        a = pam_for_qam(m)
        bits = np.random.default_rng(m).integers(0, 2, self.LEAD + (6 * a.bit_width,))
        flat = bits.reshape(-1, bits.shape[-1])
        assert modulate(flat[0], a).shape == (6,)
        assert demap(modulate(flat[0], a), a).shape == (6 * a.bit_width,)
        assert_stack_is_the_loop(modulate(bits, a), [modulate(b, a) for b in flat], self.LEAD)
        x = modulate(bits, a) + 0.3 * np.random.default_rng(1).standard_normal(self.LEAD + (6,))
        assert_stack_is_the_loop(demap(x, a), [demap(v, a) for v in x.reshape(-1, 6)],
                                 self.LEAD)

    @pytest.mark.parametrize("receive", [1, 2, 3])
    def test_sample_link_draws_each_generator_as_alone(self, receive):
        def generators():
            return [[np.random.default_rng(10 * i + j) for j in range(3)] for i in range(2)]

        stacked = sample_link(4, receive, 6, 9.0, generators())
        singles = [sample_link(4, receive, 6, 9.0, g) for row in generators() for g in row]
        assert singles[0].h.shape == (4, receive) and singles[0].w.shape == (6, receive)
        assert stacked.snr == singles[0].snr
        assert_stack_is_the_loop(stacked.h, [s.h for s in singles], self.LEAD)
        assert_stack_is_the_loop(stacked.w, [s.w for s in singles], self.LEAD)
        # each generator draws h, then w: h's draw is that of a lone h
        rng = np.random.default_rng(0)
        h = rng.standard_normal((2, 4, receive))
        assert stacked.h[0, 0].tobytes() == (np.sqrt(0.5) * (h[0] + 1j * h[1])).tobytes()

    def test_transmit(self):
        rng = np.random.default_rng(3)
        links = [sample_link(4, 2, 6, 12.0, rng) for _ in range(6)]
        x = rng.standard_normal((6, 6, 4)) + 1j * rng.standard_normal((6, 6, 4))
        stacked = LinkInstance(np.array([k.h for k in links]).reshape(self.LEAD + (4, 2)),
                               np.array([k.w for k in links]).reshape(self.LEAD + (6, 2)),
                               links[0].snr)
        singles = [transmit(xi, k) for xi, k in zip(x, links)]
        assert singles[0].shape == (6, 2)
        assert_stack_is_the_loop(transmit(x.reshape(self.LEAD + (6, 4)), stacked), singles,
                                 self.LEAD)
