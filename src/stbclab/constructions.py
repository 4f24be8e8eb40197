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

from .lindesign import Design, GroupingScheme
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
        """Check the family's rules.  family may be its token (sec3 | sec4), and
        sec4's group size, fixed at N/2, may be omitted (None or 0)."""
        object.__setattr__(self, "family", Family(self.family))
        if not self.group_size:
            if self.family is Family.DIAGONAL:
                raise ValueError("sec3 requires a group size (lambda)")
            object.__setattr__(self, "group_size", self.antennas // 2)
        n, lam, nt = self.layers, self.group_size, self.antennas
        if n < 1 or nt < 1 or lam < 1:
            raise ValueError("antennas, group size and layers must be positive")
        if self.grouping_variant not in ("fine", "coarse"):
            raise ValueError("grouping_variant must be 'fine' or 'coarse'")
        if self.family is Family.DIAGONAL:
            if lam > nt:
                raise ValueError(f"group size {lam} exceeds antenna count {nt}")
            if self.grouping_variant == "coarse":
                raise ValueError("sec3 has no coarse grouping")
        else:
            if nt % 2:
                raise ValueError("alamouti_block family needs an even antenna count")
            if lam != nt // 2:
                raise ValueError(f"sec4 group size is fixed at N/2 = {nt // 2}")

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
        if delay < antennas:
            raise ValueError(f"delay {delay} is below the antenna count {antennas}")
        if Family(family) is Family.DIAGONAL:
            layers = delay - antennas + 1
        elif delay % 2 or antennas % 2:
            raise ValueError("alamouti_block family needs even N and even T")
        else:
            layers = (delay - antennas + 2) // 2
        return cls(family, antennas, group_size, layers, grouping_variant)


def _code_from_layout(spec, rotation, place, normalize):
    """(design, grouping, spec) of the code whose codeword of x is the T x N
    zero matrix into which place(z, mat) writes z, x rotated group by group.
    The weights are the codewords of the unit vectors, and the groups are
    spec.num_groups contiguous runs of symbols."""
    lam, k = spec.group_size, spec.num_real_symbols
    if rotation is None:
        rotation = build_rotation(lam)
    q = np.asarray(rotation.entries if isinstance(rotation, RotationMatrix) else rotation,
                   dtype=float)
    if q.shape != (lam, lam):
        raise ValueError(f"rotation dimension {q.shape} does not match the group size {lam}")
    weights = np.zeros((k, spec.delay, spec.antennas), dtype=complex)
    for e, mat in zip(np.eye(k), weights):
        place((e.reshape(-1, lam) @ q.T).ravel(), mat)
    design = Design(weights)
    if normalize:
        design = normalize_power(design)
    return design, GroupingScheme.contiguous(k // spec.num_groups, spec.num_groups), spec


def build_diagonal_code(antennas, group_size, layers, rotation=None, normalize=True):
    """Construct the diagonal-layer code family member.

    Returns (design, grouping, spec).  `rotation` may be a RotationMatrix, a
    raw group_size x group_size array (useful for deliberately broken codes),
    or None to build the certified rotation of that size.
    """
    spec = CodeSpec(Family.DIAGONAL, antennas, group_size, layers)
    nt, lam, n = antennas, group_size, layers

    def place(z, mat):
        for m in range(n):
            w = z[2 * m * lam: (2 * m + 1) * lam] + 1j * z[(2 * m + 1) * lam: (2 * m + 2) * lam]
            v = w[np.arange(nt) % lam]
            mat[m + np.arange(nt), np.arange(nt)] = v

    return _code_from_layout(spec, rotation, place, normalize)


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
    spec = CodeSpec(Family.ALAMOUTI_BLOCK, antennas, None, layers, variant)
    lam = spec.group_size

    def place(z, mat):
        for m in range(layers):
            for l in range(lam):
                blk = alamouti_block(
                    z[(4 * m) * lam + l], z[(4 * m + 1) * lam + l],
                    z[(4 * m + 2) * lam + l], z[(4 * m + 3) * lam + l],
                )
                r0, c0 = 2 * (m + l), 2 * l
                mat[r0: r0 + 2, c0: c0 + 2] = blk

    return _code_from_layout(spec, rotation, place, normalize)


def build_code(family, antennas, layers, group_size=None, variant="fine",
               identity_rotation=False):
    """Construct a member of either family, named by its token (sec3 | sec4).

    CodeSpec checks the family's rules.  identity_rotation builds the
    deliberately broken ablation with an identity rotation in place of the
    certified one.  Same return convention as the builders.
    """
    spec = CodeSpec(family, antennas, group_size, layers, variant)
    rotation = np.eye(spec.group_size) if identity_rotation else None
    if spec.family is Family.DIAGONAL:
        return build_diagonal_code(antennas, spec.group_size, layers, rotation=rotation)
    return build_alamouti_block_code(antennas, layers, rotation=rotation, variant=variant)


def normalize_power(design):
    """Set power_scale so that E ||X||_F^2 / T = 1 for independent zero-mean symbols.

    Each real symbol is assumed to carry energy one half, so complex QAM
    composites average unit energy.
    """
    sq = float(np.sum(np.abs(design.weight_matrices) ** 2))
    if sq == 0:
        raise ValueError("cannot normalize an all-zero design")
    return design.with_power_scale(np.sqrt(2 * design.delay / sq))


class TradeoffRow(NamedTuple):
    family: str
    symbols_per_group: int
    rate: Fraction
    exponent: Fraction


def tabulate_tradeoff(antennas, delay):
    """(rate, worst-case exponent) points for every family feasible at (N, T).

    The Alamouti-block families need even N and T.  Diagonal rows are emitted
    for every group size 1..N.  The constructed families' rows are their
    CodeSpec's accounting; diagonal_coarse, which is not constructed here,
    is the published 2N-symbol grouping of the diagonal code.
    """
    nt, t = antennas, delay

    def row(family, code_family, **options):
        s = CodeSpec.from_delay(code_family, nt, t, **options)
        return TradeoffRow(family, s.num_real_symbols // s.num_groups, s.rate,
                           s.worst_case_exponent)

    rows = [row("toeplitz", Family.DIAGONAL, group_size=1)]
    rows += [row("diagonal", Family.DIAGONAL, group_size=lam) for lam in range(1, nt + 1)]
    rows += [TradeoffRow("diagonal_coarse", 2 * nt, nt * Fraction(t - nt + 1, t), Fraction(nt))]
    if nt % 2 == 0 and t % 2 == 0:
        rows += [row("alamouti_block", Family.ALAMOUTI_BLOCK),
                 row("alamouti_block_coarse", Family.ALAMOUTI_BLOCK, grouping_variant="coarse")]
    return rows
