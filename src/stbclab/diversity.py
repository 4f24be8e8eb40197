"""Executable full-diversity rank checks for grouped decoding.

The criterion being probed: a design with grouping I_1..I_g is full-diversity
under PIC decoding if for every group k, every nonzero PAM difference vector
a over I_k and every real interference vector u over the complement, the
matrix  X_{I_k}(a) + X_{complement}(u)  has full column rank N.  Under
PIC-SIC the interference runs over the *later* groups only.

Two kinds of checkers live here:

* Randomized falsifiers (falsify_pic / falsify_picsic).  They enumerate the
  difference vectors exhaustively (up to a cap) and pair them with random
  plus deterministic sparse interference probes.  A block of (difference,
  probe) matrices X is screened at once, held batch-last and real as
  [Re X; Im X]: X is flagged unless det(X^H X) / tr(X^H X)^N, taken as the
  product of the LDL^H pivots of X^H X over its trace, is finite and above
  SCREEN_TAU.  Every X that numerical_rank calls deficient (s_min <=
  RANK_EPS * s_max) has an exact ratio of at most lambda_min / tr <=
  RANK_EPS^2.  LDL^H of a positive semidefinite Gram is backward stable:
  the computed pivots are exact for a Gram a few hundred roundoffs of tr
  away, far inside SCREEN_TAU * tr, or one comes out non-positive or
  non-finite, which flags X too.  So at any scale of the design the screen
  flags a superset of the deficient matrices.  Flagged matrices are
  confirmed by numerical_rank in (difference, probe) order, and the first
  confirmed one is the witness.  A returned witness is a proof of failure;
  returning None is NOT a proof of full diversity, only a failed
  falsification at the given budget.

* Structural certificates (certify_diagonal / certify_alamouti_block) for
  the two constructed families.  These mechanize the structural argument: if
  the rotation certificate holds, every nonzero group difference fills one
  diagonal layer (or one real slot of every Alamouti block in a layer) with
  nonzero values, forcing a full-rank banded submatrix no matter what the
  interference does.  The code checks the rotation certificate plus the
  placement/purity structure that the argument rests on.
"""

import numpy as np
from dataclasses import dataclass

from .constructions import (
    Family, build_alamouti_block_code, build_diagonal_code,
)
from .lindesign import numerical_rank
from .rotations import RotationMatrix, certify_rotation, rotation_entries

DIFFERENCE_ENUM_CAP = 10_000
SCREEN_TAU = 1e-12  # det(G) / tr(G)^N at or below which numerical_rank checks X
SCREEN_BLOCK = 1 << 13  # matrices screened per block; a block holds whole differences


@dataclass(frozen=True, eq=False)
class RankWitness:
    """A counterexample to the full-rank condition (rank < N).

    Indices are 0-based; interference_indices lists the symbol indices the
    entries of `interference` multiply, ascending.
    """

    group_index: int
    difference: np.ndarray  # integer-scaled PAM difference over the group
    interference: np.ndarray
    interference_indices: tuple
    achieved_rank: int
    smallest_singular_value: float

    def to_json(self):
        return {
            "group": self.group_index + 1,
            "difference": [int(v) for v in self.difference],
            "interference": [float(v) for v in self.interference],
            "interference_indices": [int(i) + 1 for i in self.interference_indices],
            "rank": int(self.achieved_rank),
            "smallest_singular_value": float(self.smallest_singular_value),
        }


def pam_difference_values(pam_levels):
    """Integer-scaled difference values of a PAM alphabet, largest first.

    Levels at odd integers +-1, +-3, ... give even integer differences
    2k, |k| <= pam_levels - 1.  Descending order fixes the deterministic
    enumeration order of the falsifiers.
    """
    if pam_levels < 2:
        raise ValueError("pam_levels must be at least 2")
    return 2 * np.arange(pam_levels - 1, -pam_levels, -1, dtype=np.int64)


def _difference_vectors(group_size, pam_levels, rng):
    """Nonzero difference vectors for one group, exhaustive under the cap."""
    vals = pam_difference_values(pam_levels)
    total = len(vals) ** group_size
    if total <= DIFFERENCE_ENUM_CAP:
        grids = np.meshgrid(*([vals] * group_size), indexing="ij")
        a = np.stack([g.ravel() for g in grids], axis=1)
        return a[np.any(a != 0, axis=1)]
    out = np.zeros((DIFFERENCE_ENUM_CAP, group_size), dtype=np.int64)
    filled = 0
    while filled < DIFFERENCE_ENUM_CAP:
        draw = rng.choice(vals, size=(DIFFERENCE_ENUM_CAP - filled, group_size))
        draw = draw[np.any(draw != 0, axis=1)]
        out[filled: filled + len(draw)] = draw
        filled += len(draw)
    return out


def _interference_probes(count, trials, rng):
    """Deterministic sparse probes (zero, +-unit vectors) then random draws."""
    if count == 0:
        return np.zeros((1, 0))
    eye = np.eye(count)
    det = np.concatenate([np.zeros((1, count)), eye, -eye], axis=0)
    return np.concatenate([det, rng.standard_normal((trials, count))], axis=0)


def _rank_screen(y):
    """Mask over the pairs of y = [Re X; Im X], shaped (2T, N, *pairs): True
    unless the product of the unpivoted LDL^H pivots of X^H X, each over its
    trace, is finite and above SCREEN_TAU (see the module docstring)."""
    t, n = len(y) // 2, y.shape[1]
    re = np.einsum("ti...,tj...->ij...", y, y)
    im = np.einsum("ti...,tj...->ij...", y[:t], y[t:])
    im = im - im.swapaxes(0, 1)
    trace = np.einsum("ii...->...", re)
    ratio = np.ones(trace.shape)
    with np.errstate(all="ignore"):
        for k in range(n):
            pivot, cr, ci = re[k, k], re[k + 1:, k], im[k + 1:, k]
            ratio *= np.maximum(pivot, 0) / trace
            lr, li = cr / pivot, ci / pivot
            # Schur complement: G_ij -= G_ik conj(G_jk) / pivot
            re[k + 1:, k + 1:] -= lr[:, None] * cr + li[:, None] * ci
            im[k + 1:, k + 1:] -= li[:, None] * cr - lr[:, None] * ci
    return ~(np.isfinite(ratio) & (ratio > SCREEN_TAU))


def _search_group(design, group, interference_idx, diffs, probes):
    """Return the first (a, u) making the combined matrix rank-deficient, or None.

    The (difference, probe) pairs are screened in blocks of whole differences;
    screened pairs are confirmed by numerical_rank in (difference, probe) order.
    """
    w = design.weight_matrices
    k, t, n = w.shape
    a_mats = (diffs.astype(float) @ w[list(group)].reshape(len(group), -1)
              ).reshape(len(diffs), t, n)
    # no interference (PIC-SIC's last group) has the one zero probe
    u_mats = (probes @ w[list(interference_idx)].reshape(len(interference_idx), t * n)
              ).reshape(len(probes), t, n)
    # [Re; Im] of each matrix, batch-last: (2T, N, count)
    a_rows, u_rows = (np.concatenate([m.real, m.imag])
                      for m in (np.moveaxis(a_mats, 0, -1), np.moveaxis(u_mats, 0, -1)))
    step = max(1, SCREEN_BLOCK // len(u_mats))
    for start in range(0, len(a_mats), step):
        a_block = a_rows[:, :, start:start + step, None]
        y = np.empty(a_block.shape[:3] + (len(u_mats),))
        np.add(a_block, u_rows[:, :, None], out=y)
        for i, j in np.argwhere(_rank_screen(y)):
            x = a_mats[start + i] + u_mats[j]
            rank = numerical_rank(x)
            if rank < n:
                s = np.linalg.svd(x, compute_uv=False)
                return diffs[start + i], probes[j], rank, float(s[-1])
    return None


def _falsify(design, scheme, pam_levels, trials_per_group, rng_seed, interference_of):
    if trials_per_group < 0:
        raise ValueError("trials_per_group must be non-negative")
    if scheme.num_symbols != design.num_real_symbols:
        raise ValueError(f"grouping covers {scheme.num_symbols} symbols, "
                         f"the design has {design.num_real_symbols}")
    for k in range(scheme.num_groups):
        rng = np.random.default_rng(np.random.SeedSequence(rng_seed, spawn_key=(k,)))
        group = scheme.groups[k]
        diffs = _difference_vectors(len(group), pam_levels, rng)
        idx = interference_of(k)
        probes = _interference_probes(len(idx), trials_per_group, rng)
        hit = _search_group(design, group, idx, diffs, probes)
        if hit is not None:
            a, u, rank, sigma = hit
            return RankWitness(k, a, u, tuple(idx), rank, sigma)
    return None


def falsify_pic(design, scheme, pam_levels=4, trials_per_group=1000, rng_seed=0):
    """Search for a PIC rank-criterion counterexample; None means none found.

    For each group the nonzero PAM difference vectors are enumerated
    (exhaustively up to a cap), each paired with deterministic sparse probes
    and a shared batch of trials_per_group Gaussian interference vectors over
    the complement.  Witness selection is deterministic: lowest group index,
    then enumeration order.  Absence of a witness is not a proof.  A negative
    trials_per_group, or a grouping of other than the design's K symbols,
    raises ValueError.
    """
    return _falsify(design, scheme, pam_levels, trials_per_group, rng_seed,
                    scheme.complement)


def falsify_picsic(design, scheme, pam_levels=4, trials_per_group=1000, rng_seed=0):
    """Like falsify_pic but interference ranges over the later groups only."""
    return _falsify(design, scheme, pam_levels, trials_per_group, rng_seed,
                    scheme.later)


def _certify(spec, rotation, pam_levels, build, layout):
    """The body both structural certificates share.

    True iff the rotation's certificate covers the PAM difference range and
    build(q), the unnormalized design with rotation q, has the weight
    matrices that layout(q) yields, in symbol order.  A RotationMatrix
    certified at that range or beyond carries its answer; any other
    rotation is certified afresh.
    """
    q, bound = rotation_entries(rotation), pam_levels - 1
    if isinstance(rotation, RotationMatrix) and rotation.certified_bound >= bound:
        cert_ok = rotation.is_certified
    else:
        cert_ok, _ = certify_rotation(q, bound)
    if q.shape != (spec.group_size, spec.group_size):
        raise ValueError("rotation dimension does not match the group size")
    if not cert_ok:
        return False
    design, _, _ = build(q)
    return all(np.allclose(w, expected, rtol=0, atol=1e-12)
               for w, expected in zip(design.weight_matrices, layout(q)))


def certify_diagonal(spec, rotation, pam_levels=4):
    """Structural full-diversity certificate for the diagonal family (PIC-SIC;
    also PIC for the single-symbol groups of the Toeplitz subclass).

    True iff the rotation's exhaustive certificate covers the PAM difference
    range and every weight matrix places its rotated group values exactly on
    the expected diagonal layer with the expected real/imaginary purity.
    """
    if spec.family is not Family.DIAGONAL:
        raise ValueError("spec is not a diagonal-family code")
    nt, lam = spec.antennas, spec.group_size

    def layout(q):
        for k in range(spec.num_groups):
            layer, is_real = k // 2, k % 2 == 0
            for c in range(lam):
                expected = np.zeros((spec.delay, nt), dtype=complex)
                cols = np.arange(nt)
                vals = q[cols % lam, c]
                expected[layer + cols, cols] = vals if is_real else 1j * vals
                yield expected

    return _certify(spec, rotation, pam_levels, lambda q: build_diagonal_code(
        nt, lam, spec.layers, rotation=q, normalize=False), layout)


def certify_alamouti_block(spec, rotation, pam_levels=4):
    """Structural full-diversity certificate for the Alamouti-block family.

    Fine grouping only: the certificate shows each group difference plants a
    nonzero real into one slot of every Alamouti block of its layer, whose
    determinant is then a positive sum of squares.  The coarse grouping
    follows a fortiori (its groups are unions of certified fine groups) and
    is rejected here to keep the claim precise.
    """
    if spec.family is not Family.ALAMOUTI_BLOCK:
        raise ValueError("spec is not an alamouti_block-family code")
    if spec.grouping_variant != "fine":
        raise ValueError(
            "certificate covers the fine grouping; the coarse variant follows "
            "a fortiori from it"
        )
    lam = spec.group_size
    # offsets of one rotated value inside its 2x2 block, per group slot
    slot = {
        0: (((0, 0), 1.0), ((1, 1), 1.0)),
        1: (((0, 0), 1j), ((1, 1), -1j)),
        2: (((0, 1), 1.0), ((1, 0), -1.0)),
        3: (((0, 1), 1j), ((1, 0), 1j)),
    }

    def layout(q):
        for k in range(spec.num_groups):
            layer, quad = k // 4, k % 4
            for c in range(lam):
                expected = np.zeros((spec.delay, spec.antennas), dtype=complex)
                for l in range(lam):
                    r0, c0 = 2 * (layer + l), 2 * l
                    for (dr, dc), factor in slot[quad]:
                        expected[r0 + dr, c0 + dc] = factor * q[l, c]
                yield expected

    return _certify(spec, rotation, pam_levels, lambda q: build_alamouti_block_code(
        spec.antennas, spec.layers, rotation=q, normalize=False), layout)
