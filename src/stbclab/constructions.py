"""The two full-diversity code families and their rate/complexity accounting.

Family "diagonal" (CLI token sec3): n diagonal layers on N antennas, each
layer an N-vector of rotated symbols repeated cyclically from a group-size
lambda block; column j of the codeword carries the layers in rows j..j+n-1.
Per-group joint decoding of lambda real symbols; contains the Toeplitz codes
(lambda = 1) and, for lambda = N with n = 1, a diagonal code.

Family "alamouti_block" (CLI token sec4): the codeword is a banded grid of
2x2 Alamouti blocks in rotated real symbols, N/2 blocks per diagonal layer;
block (m, l) sits at block-row m+l and block-column l.  The fine grouping
decodes N/2 real symbols per group; the coarse variant merges group pairs
(the historical grouping these codes were first published with).

Rates are in complex symbols per channel use (cspcu) and worst-case decoding
exponents e mean M**e metric evaluations per group for an M-point QAM
constellation.  Both are exact fractions here.
"""

from enum import Enum
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from dataclasses import dataclass

from .lindesign import GroupingScheme, extract_design
from .rotations import RotationMatrix, build_rotation


class Family(str, Enum):
    DIAGONAL = "sec3"
    ALAMOUTI_BLOCK = "sec4"


@dataclass(frozen=True)
class CodeSpec:
    """Parameters of one constructed code plus its closed-form accounting."""

    family: Family
    antennas: int
    group_size: int  # real symbols per decoding group (lambda)
    layers: int  # diagonal layer count n
    grouping_variant: str = "fine"

    def __post_init__(self):
        n, lam, nt = self.layers, self.group_size, self.antennas
        if n < 1 or nt < 1 or lam < 1:
            raise ValueError("antennas, group size and layers must be positive")
        if self.grouping_variant not in ("fine", "coarse"):
            raise ValueError("grouping_variant must be 'fine' or 'coarse'")
        if self.family is Family.DIAGONAL:
            if lam > nt:
                raise ValueError(f"group size {lam} exceeds antenna count {nt}")
            if self.grouping_variant == "coarse":
                raise ValueError("diagonal family has no coarse grouping variant")
        else:
            if nt % 2:
                raise ValueError("alamouti_block family needs an even antenna count")
            if lam != nt // 2:
                raise ValueError(f"alamouti_block group size must be N/2 = {nt // 2}")

    @property
    def num_real_symbols(self):
        if self.family is Family.DIAGONAL:
            return 2 * self.layers * self.group_size
        return 2 * self.layers * self.antennas

    @property
    def delay(self):
        if self.family is Family.DIAGONAL:
            return self.antennas + self.layers - 1
        return self.antennas + 2 * (self.layers - 1)

    @property
    def num_groups(self):
        if self.family is Family.DIAGONAL:
            return 2 * self.layers
        return 4 * self.layers if self.grouping_variant == "fine" else 2 * self.layers

    @property
    def rate(self):
        """Rate in cspcu, K / (2T), as an exact fraction."""
        return Fraction(self.num_real_symbols, 2 * self.delay)

    @property
    def worst_case_exponent(self):
        """Exponent e of the per-group worst-case decoding cost M**e.

        Fine groupings use the conditioned search over all but one symbol;
        the coarse variant is accounted at its published exhaustive cost.
        """
        if self.family is Family.DIAGONAL:
            return Fraction(self.group_size - 1, 2)
        if self.grouping_variant == "fine":
            return Fraction(self.antennas - 2, 4)
        return Fraction(self.antennas, 2)

    @classmethod
    def from_delay(cls, family, antennas, delay, group_size=None, grouping_variant="fine"):
        """Spec for given (N, T); T infeasible for the family raises ValueError."""
        family = Family(family)
        if delay < antennas:
            raise ValueError(f"delay {delay} is below the antenna count {antennas}")
        if family is Family.DIAGONAL:
            if group_size is None:
                raise ValueError("diagonal family needs an explicit group size")
            return cls(family, antennas, group_size, delay - antennas + 1)
        if delay % 2 or antennas % 2:
            raise ValueError("alamouti_block family needs even N and even T")
        return cls(
            family, antennas, antennas // 2, (delay - antennas + 2) // 2,
            grouping_variant=grouping_variant,
        )


def _rotation_entries(rotation, dim):
    if rotation is None:
        rotation = build_rotation(dim)
    q = rotation.entries if isinstance(rotation, RotationMatrix) else np.asarray(rotation, float)
    if q.shape != (dim, dim):
        raise ValueError(f"rotation must be {dim}x{dim}, got {q.shape}")
    return q


def _rotate_groups(q, x, group_size):
    """Apply the rotation blockwise to contiguous groups of a symbol vector."""
    return (x.reshape(-1, group_size) @ q.T).ravel()


def build_diagonal_code(antennas, group_size, layers, rotation=None, normalize=True):
    """Construct the diagonal-layer code family member.

    Returns (design, grouping, spec).  `rotation` may be a RotationMatrix, a
    raw group_size x group_size array (useful for deliberately broken codes),
    or None to build the certified rotation of that size.
    """
    spec = CodeSpec(Family.DIAGONAL, antennas, group_size, layers)
    q = _rotation_entries(rotation, group_size)
    nt, lam, n = antennas, group_size, layers
    delay = spec.delay

    def encode(x):
        z = _rotate_groups(q, np.asarray(x, dtype=float), lam)
        mat = np.zeros((delay, nt), dtype=complex)
        for m in range(n):
            w = z[2 * m * lam: (2 * m + 1) * lam] + 1j * z[(2 * m + 1) * lam: (2 * m + 2) * lam]
            v = w[np.arange(nt) % lam]
            mat[m + np.arange(nt), np.arange(nt)] = v
        return mat

    design = extract_design(encode, spec.num_real_symbols, delay, nt)
    if normalize:
        design = normalize_power(design)
    grouping = GroupingScheme.contiguous(lam, spec.num_groups)
    return design, grouping, spec


def alamouti_block(za, zb, zc, zd):
    """2x2 orthogonal block in four real symbols; det = za^2+zb^2+zc^2+zd^2."""
    return np.array(
        [[za + 1j * zb, zc + 1j * zd], [-zc + 1j * zd, za - 1j * zb]], dtype=complex
    )


def build_alamouti_block_code(antennas, layers, rotation=None, variant="fine",
                              normalize=True):
    """Construct the Alamouti-block code family member for even N.

    Same return convention as build_diagonal_code.  variant="coarse" keeps
    the same design but merges adjacent group pairs into N-real-symbol groups.
    """
    spec = CodeSpec(Family.ALAMOUTI_BLOCK, antennas, antennas // 2, layers,
                    grouping_variant=variant)
    lam = antennas // 2
    q = _rotation_entries(rotation, lam)
    n, delay = layers, spec.delay

    def encode(x):
        z = _rotate_groups(q, np.asarray(x, dtype=float), lam)
        mat = np.zeros((delay, antennas), dtype=complex)
        for m in range(n):
            for l in range(lam):
                blk = alamouti_block(
                    z[(4 * m) * lam + l], z[(4 * m + 1) * lam + l],
                    z[(4 * m + 2) * lam + l], z[(4 * m + 3) * lam + l],
                )
                r0, c0 = 2 * (m + l), 2 * l
                mat[r0: r0 + 2, c0: c0 + 2] = blk
        return mat

    design = extract_design(encode, spec.num_real_symbols, delay, antennas)
    if normalize:
        design = normalize_power(design)
    if variant == "fine":
        grouping = GroupingScheme.contiguous(lam, 4 * n)
    else:
        fine = GroupingScheme.contiguous(lam, 4 * n)
        merged = tuple(
            fine.groups[2 * j] + fine.groups[2 * j + 1] for j in range(2 * n)
        )
        grouping = GroupingScheme(merged, spec.num_real_symbols)
    return design, grouping, spec


def build_code(family, antennas, layers, group_size=None, variant="fine",
               identity_rotation=False):
    """Construct a member of either family, named by its token (sec3 | sec4).

    sec3 needs the group size; sec4 fixes it at N/2, so it may be omitted
    (None or 0).  Only sec4 has the coarse grouping.  identity_rotation
    builds the deliberately broken ablation with an identity rotation in
    place of the certified one.  Same return convention as the builders.
    """
    family = Family(family)
    if family is Family.DIAGONAL:
        if not group_size:
            raise ValueError("sec3 requires a group size (lambda)")
        if variant != "fine":
            raise ValueError("sec3 has no coarse grouping")
        rotation = np.eye(group_size) if identity_rotation else None
        return build_diagonal_code(antennas, group_size, layers, rotation=rotation)
    if group_size and group_size != antennas // 2:
        raise ValueError(f"sec4 group size is fixed at N/2 = {antennas // 2}")
    rotation = np.eye(antennas // 2) if identity_rotation else None
    return build_alamouti_block_code(antennas, layers, rotation=rotation,
                                     variant=variant)


def normalize_power(design, per_symbol_energy=0.5):
    """Set power_scale so that E ||X||_F^2 / T = 1 for independent zero-mean symbols.

    Each real symbol is assumed to carry per_symbol_energy (one half by
    default, so complex QAM composites average unit energy).
    """
    sq = float(np.sum(np.abs(design.weight_matrices) ** 2))
    if sq == 0:
        raise ValueError("cannot normalize an all-zero design")
    return design.with_power_scale(np.sqrt(design.delay / (per_symbol_energy * sq)))


class TradeoffRow(NamedTuple):
    family: str
    symbols_per_group: int
    rate: Fraction
    exponent: Fraction


# Comparison families quoted at their published decoding costs.
TRADEOFF_FAMILIES = (
    "toeplitz", "diagonal", "diagonal_coarse", "alamouti_block", "alamouti_block_coarse",
)


def tabulate_tradeoff(antennas, delay, families=None):
    """Closed-form (rate, worst-case exponent) points for all families at (N, T).

    families defaults to every family feasible at (N, T); requesting an
    infeasible one explicitly raises ValueError.  Diagonal rows are emitted
    for every group size 1..N.
    """
    nt, t = antennas, delay
    if nt < 1 or t < nt:
        raise ValueError(f"infeasible parameters: need T >= N >= 1, got N={nt}, T={t}")
    even_ok = nt % 2 == 0 and t % 2 == 0
    if families is None:
        families = [f for f in TRADEOFF_FAMILIES
                    if even_ok or not f.startswith("alamouti_block")]
    rows = []
    base3 = Fraction(t - nt + 1, t)  # 1 - (N-1)/T
    base4 = Fraction(t - nt + 2, t)  # 1 - (N-2)/T
    for fam in families:
        if fam == "toeplitz":
            rows.append(TradeoffRow(fam, 1, base3, Fraction(0)))
        elif fam == "diagonal":
            for lam in range(1, nt + 1):
                rows.append(TradeoffRow(fam, lam, lam * base3, Fraction(lam - 1, 2)))
        elif fam == "diagonal_coarse":
            rows.append(TradeoffRow(fam, 2 * nt, nt * base3, Fraction(nt)))
        elif fam in ("alamouti_block", "alamouti_block_coarse"):
            if not even_ok:
                raise ValueError(f"{fam} needs even N and even T, got N={nt}, T={t}")
            if fam == "alamouti_block":
                rows.append(TradeoffRow(fam, nt // 2, Fraction(nt, 2) * base4,
                                        Fraction(nt - 2, 4)))
            else:
                rows.append(TradeoffRow(fam, nt, Fraction(nt, 2) * base4,
                                        Fraction(nt, 2)))
        else:
            raise ValueError(f"unknown family {fam!r}")
    return rows
