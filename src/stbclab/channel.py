"""Quasi-static Rayleigh flat-fading MIMO channel and PAM/QAM mapping.

The channel model is Y = sqrt(snr) * X @ H + W with H (N x N_r) and W
(T x N_r) i.i.d. circularly-symmetric complex Gaussian of unit variance.
All SNR scaling lives in the sqrt(snr) factor; the noise variance is fixed.

Real symbols take values from a square-QAM half: a sqrt(M)-ary PAM alphabet
scaled to energy 1/2 per real dimension, Gray-mapped, so that each complex
symbol (a pair of reals) has unit average energy.

Each function takes one frame, or a stack of frames on leading axes by the
same elementwise or per-frame steps, so a frame's values ignore its stack.
"""

from functools import lru_cache

import numpy as np
from dataclasses import dataclass


@dataclass(frozen=True, eq=False)
class PamAlphabet:
    """Equally spaced, zero-mean PAM levels with a Gray bit mapping."""

    levels: np.ndarray  # ascending
    bit_width: int

    def __post_init__(self):
        lv = np.asarray(self.levels, dtype=float).copy()
        lv.setflags(write=False)
        object.__setattr__(self, "levels", lv)
        object.__setattr__(self, "_midpoints", (lv[:-1] + lv[1:]) / 2)
        # the Gray bits of each level index, most significant first, and the inverse map
        idx = np.arange(lv.size)
        gray = idx ^ (idx >> 1)
        shifts = np.arange(self.bit_width - 1, -1, -1)
        object.__setattr__(self, "_gray_bits", (gray[:, None] >> shifts) & 1)
        object.__setattr__(self, "_gray_index", np.argsort(gray))
        object.__setattr__(self, "_bit_values", 1 << shifts)

    @property
    def size(self):
        return self.levels.size

    @property
    def spacing(self):
        return float(self.levels[1] - self.levels[0]) if self.size > 1 else 1.0

    def nearest_index(self, x):
        """Index of the nearest level; a computed midpoint of two levels goes to the lower."""
        return self._midpoints.searchsorted(np.asarray(x, dtype=float))

    def quantize(self, x):
        return self.levels[self.nearest_index(x)]

    def index_to_bits(self, idx):
        return self._gray_bits[np.asarray(idx, dtype=np.int64)].ravel()

    def bits_to_index(self, bits):
        bits = np.asarray(bits, dtype=np.int64).reshape(-1, self.bit_width)
        return self._gray_index[bits @ self._bit_values]


@lru_cache(maxsize=None)
def pam_for_qam(m):
    """The sqrt(M)-ary PAM alphabet whose pairs form square M-QAM (M a power of 4)."""
    root = round(np.sqrt(m))
    if root * root != m or root & (root - 1) or m < 4:
        raise ValueError(f"only square QAM with power-of-4 size is supported, got {m}")
    raw = np.arange(-(root - 1), root, 2, dtype=float)  # -(L-1), ..., L-1 step 2
    levels = raw * np.sqrt(0.5 / np.mean(raw ** 2))
    return PamAlphabet(levels, bit_width=root.bit_length() - 1)


def modulate(bits, alphabet):
    """Gray-map bits (..., K * bit width) onto PAM levels (..., K).

    The bit count must be a multiple of the alphabet's bit width.
    """
    bits = np.asarray(bits, dtype=np.int64)
    if bits.shape[-1] % alphabet.bit_width:
        raise ValueError("bit count must be a multiple of the per-symbol width")
    return alphabet.levels[alphabet.bits_to_index(bits)].reshape(bits.shape[:-1] + (-1,))


def demap(x, alphabet):
    """Quantize real values (..., K) to the alphabet; their Gray bits (..., K * bit width)."""
    return alphabet.index_to_bits(alphabet.nearest_index(x)).reshape(np.shape(x)[:-1] + (-1,))


@dataclass(frozen=True, eq=False)
class LinkInstance:
    """Channel uses: fading matrices, noise realizations and one linear SNR."""

    h: np.ndarray  # (..., N, N_r) complex
    w: np.ndarray  # (..., T, N_r) complex
    snr: float

    def __post_init__(self):
        if self.snr < 0:
            raise ValueError("snr must be non-negative")
        for name in ("h", "w"):
            a = np.asarray(getattr(self, name), dtype=complex).copy()
            a.setflags(write=False)
            object.__setattr__(self, name, a)


def sample_link(antennas, receive_antennas, delay, snr_db, rng):
    """Quasi-static Rayleigh links, entries CN(0, 1), one per generator in rng's array shape.

    A frame's generator, after its bits, draws h's real parts, then its imaginary parts, then w's.
    """
    rngs = np.asarray(rng, dtype=object)
    rows = np.array([r.standard_normal(2 * (antennas + delay) * receive_antennas)
                     for r in rngs.flat]).reshape(rngs.shape + (-1, receive_antennas))
    # rows a:b hold the real parts and the next b - a rows the imaginary: h's, then w's
    h, w = (np.sqrt(0.5) * (rows[..., a:b, :] + 1j * rows[..., b:2 * b - a, :])
            for a, b in ((0, antennas), (2 * antennas, 2 * antennas + delay)))
    return LinkInstance(h, w, float(10.0 ** (snr_db / 10.0)))


def transmit(x, link):
    """Received matrices Y = sqrt(snr) * X @ H + W, of shape (..., T, N_r)."""
    x = np.asarray(x, dtype=complex)
    if x.shape[-1] != link.h.shape[-2]:
        raise ValueError(f"codeword has {x.shape[-1]} columns, channel has "
                         f"{link.h.shape[-2]} rows")
    return np.sqrt(link.snr) * (x @ link.h) + link.w
