"""Executable full-diversity rank checks for grouped decoding.

The criterion being probed: a design with grouping I_1..I_g is full-diversity
under PIC decoding if for every group k, every nonzero PAM difference vector
a over I_k and every real interference vector u over the complement, the
matrix  X_{I_k}(a) + X_{complement}(u)  has full column rank N.  Under
PIC-SIC the interference runs over the *later* groups only.

Two kinds of checkers live here:

* Randomized falsifiers (falsify_pic / falsify_picsic).  They enumerate the
  difference vectors exhaustively (up to a cap) and pair them with random
  plus deterministic sparse interference probes.  The design is linear, so
  a pair's X = A_d + U_p has the Gram G = G_A + G_U + C + C^H, C = A_d^H
  U_p: G_A and G_U are taken once per group, and one batched GEMM per block
  gives the lower triangle of every G (_screen_factors).  X is flagged
  unless the product of G's unpivoted LDL^H pivots, each over tr(G), is
  finite and above SCREEN_TAU; a deficient X (numerical_rank: s_min <=
  RANK_EPS * s_max) has an exact product, det(G) / tr^N, of at most
  lambda_min / tr <= RANK_EPS^2.  Each G_ij is one inner product of terms
  summing in magnitude to at most v_i v_j, v_i = |A_i| + |U_i|, so the
  formed G is within gamma S, S = (|A_d|_F + |U_p|_F)^2, gamma = 3T + 6
  roundoffs; LDL^H of a positive semidefinite Gram is backward stable, its
  pivots exact for a Gram a few hundred roundoffs of tr away (or one is
  non-positive or non-finite, which flags X).  Where A_d and U_p nearly
  cancel, gamma S dwarfs tr, so a guard flags every pair with tr < S /
  SCREEN_KAPPA.  Past it both errors stay below (SCREEN_KAPPA gamma + a few
  hundred roundoffs) tr: under SCREEN_TAU / 10 for T up to 16 and under
  SCREEN_TAU for T up to about 300.  Both tests are ratios, so at any scale
  the screen flags a superset of the deficient matrices.  Flagged matrices
  are confirmed by numerical_rank in (difference, probe) order, and the
  first confirmed one is the witness.  A returned witness is a proof of
  failure; returning None is NOT a proof of full diversity, only a failed
  falsification at the given budget.

* One certificate (certify) for any design and either mode; True is a proof
  for that mode, False means "not proven".  Per group it peels, greedily, N
  rows and an order of the N columns on which every matrix of the group and
  its interference is block lower triangular.  A diagonal block must be 1x1
  or quaternion [[p, q], [-conj(q), conj(p)]] in every matrix, hence
  invertible unless 0; the group's and the interference's real images in it
  must be independent; and the group's image must be nonzero on the PAM
  difference box: of real rank |group|, or with a coordinate form whose
  least magnitude on the box (least_magnitudes) exceeds RANK_EPS times
  its norm.  Under PIC it declines all codes of three or more layers:
  rightly for groups of two or more symbols (notes/decisions.md), a gap for
  the Toeplitz codes.
"""

from functools import cache

import numpy as np
from dataclasses import dataclass

from .constructions import Family, build_alamouti_block_code, build_diagonal_code
from .lindesign import RANK_EPS, numerical_rank
from .rotations import SUPPORTED_DIMENSIONS, least_magnitudes
from .rotations import certify_rotation  # noqa: F401  (perfbench's tracer names it here)

DIFFERENCE_ENUM_CAP = 10_000
SCREEN_TAU = 1e-12  # det(G) / tr(G)^N at or below which numerical_rank checks X
SCREEN_KAPPA = 8  # tr(G) below (|A_d|_F + |U_p|_F)^2 / SCREEN_KAPPA flags the pair
SCREEN_BLOCK = 1 << 13  # matrices screened per block; a block holds whole differences
_pair_indices = cache(np.triu_indices)  # (j, i) over G's lower triangle, per N


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
    if len(vals) ** group_size <= DIFFERENCE_ENUM_CAP:
        return _enumerated_differences(group_size, pam_levels)
    out = np.zeros((DIFFERENCE_ENUM_CAP, group_size), dtype=np.int64)
    filled = 0
    while filled < DIFFERENCE_ENUM_CAP:
        draw = rng.choice(vals, size=(DIFFERENCE_ENUM_CAP - filled, group_size))
        draw = draw[np.any(draw != 0, axis=1)]
        out[filled: filled + len(draw)] = draw
        filled += len(draw)
    return out


@cache
def _enumerated_differences(group_size, pam_levels):
    """The nonzero difference vectors in enumeration order, read-only as cached."""
    vals = pam_difference_values(pam_levels)
    a = np.stack([g.ravel() for g in np.meshgrid(*[vals] * group_size, indexing="ij")], axis=1)
    a = a[np.any(a != 0, axis=1)]
    a.flags.writeable = False
    return a


def _interference_probes(count, trials, rng):
    """Deterministic sparse probes (zero, +-unit vectors) then random draws."""
    if count == 0:
        return np.zeros((1, 0))
    probes = np.zeros((1 + 2 * count + trials, count))
    np.fill_diagonal(probes[1:], 1.0)
    np.negative(probes[1:1 + count], out=probes[1 + count:1 + 2 * count])  # -0.0 as -np.eye
    rng.standard_normal(out=probes[1 + 2 * count:])
    return probes


def _screen_factors(a_mats, u_mats):
    """Left (Q, D, 2T+2) and right (Q, 2T+2, P) factors of G_ij = (G_A + G_U +
    C + C^H)_ij, C = A_d^H U_p, for every pair of the (count, T, N) a_mats and
    u_mats, q = (i, j) running over G's lower triangle column by column, Q =
    N(N+1)/2: [conj(A_i); A_j; G_A,ij; 1] and [U_j; conj(U_i); 1; G_U,ij].
    Both are written in place as C-contiguous (Q, count, 2T+2); right comes transposed."""
    t = a_mats.shape[1]
    j, i = _pair_indices(a_mats.shape[-1])
    left, right = (np.empty((len(i), len(m), 2 * t + 2), complex) for m in (a_mats, u_mats))
    a, u = (np.ascontiguousarray(m.transpose(2, 0, 1)) for m in (a_mats, u_mats))
    np.conjugate(a[i], out=left[..., :t])
    left[..., t:-2], right[..., :t] = a[j], u[j]
    np.conjugate(u[i], out=right[..., t:-2])
    np.einsum("qct,qct->qc", left[..., :t], left[..., t:-2], out=left[..., -2])
    np.einsum("qct,qct->qc", right[..., t:-2], right[..., :t], out=right[..., -1])
    left[..., -1] = right[..., -2] = 1
    return left, right.transpose(0, 2, 1)


def _rank_screen(left, right):
    """Mask (D, P) over the pairs of the factors (_screen_factors): True where
    tr(G) < (|A_d|_F + |U_p|_F)^2 / SCREEN_KAPPA, the squared norms read off
    as tr(G_A) and tr(G_U), or unless the product of the unpivoted LDL^H
    pivots of G's packed lower triangle, each over tr(G), is finite and above
    SCREEN_TAU (see the module docstring)."""
    n = int(np.sqrt(2 * len(left)))  # Q = N(N+1)/2
    diag = [k * n - k * (k - 1) // 2 for k in range(n)]  # column k starts at G_kk
    g = np.matmul(left, right)
    trace = g.real[diag].sum(axis=0)
    ratio = np.ones(trace.shape)
    with np.errstate(all="ignore"):
        for k, s in enumerate(diag):
            pivot, col = g[s].real, g[s + 1:s + n - k]
            ratio *= np.maximum(pivot, 0) / trace
            scaled = col.conj() * (1 / pivot)
            # Schur complement, column by column: G_ij -= G_ik conj(G_jk) / pivot
            for o, c in enumerate(diag[k + 1:]):
                g[c:c + n - k - 1 - o] -= col[o:] * scaled[o]
    a_norm, u_norm = (np.sqrt(f[diag].real.sum(axis=0)) for f in (left[..., -2], right[:, -1]))
    cancelled = trace * SCREEN_KAPPA < np.add.outer(a_norm, u_norm) ** 2
    return cancelled | ~(np.isfinite(ratio) & (ratio > SCREEN_TAU))


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
    left, right = _screen_factors(a_mats, u_mats)
    step = max(1, SCREEN_BLOCK // len(u_mats))
    for start in range(0, len(a_mats), step):
        for i, j in np.argwhere(_rank_screen(left[:, start:start + step], right)):
            x = a_mats[start + i] + u_mats[j]
            rank = numerical_rank(x)
            if rank < n:
                s = np.linalg.svd(x, compute_uv=False)
                return diffs[start + i].copy(), probes[j], rank, float(s[-1])
    return None


def _falsify(design, scheme, pam_levels, trials_per_group, rng_seed, interference_of):
    if trials_per_group < 0:
        raise ValueError("trials_per_group must be non-negative")
    if scheme.num_symbols != design.num_real_symbols:
        raise ValueError(f"grouping covers {scheme.num_symbols} symbols, "
                         f"the design has {design.num_real_symbols}")
    for k, group in enumerate(scheme.groups):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(rng_seed, spawn_key=(k,))))
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


def _independent(image, size):
    """Whether the first `size` unit-scaled rows (symbol images) of the (K', m)
    image span a subspace meeting the rest's only in 0, and have rank `size`."""
    norms = np.linalg.norm(image, axis=1, keepdims=True)
    parts = np.stack([image / np.where(norms > 0, norms, 1)] * 3)  # group, other, both
    parts[0, size:], parts[1, :size] = 0, 0
    s = np.linalg.svd(parts, compute_uv=False)
    group, other, both = (s > RANK_EPS * s[:, :1]).sum(axis=1)
    return both == group + other, group == size


def _certify_group(w, size, bound, memo):
    """The module docstring's block peel of w's first `size` matrices (the group)."""

    def nonzero_on_box(forms):
        if size > SUPPORTED_DIMENSIONS[-1]:  # the search is sized for rotations
            return False
        for f in forms:
            if f.tobytes() not in memo:
                memo[f.tobytes()] = (least_magnitudes(f[None], bound)[0]
                                     > RANK_EPS * np.linalg.norm(f))
        return any(memo[f.tobytes()] for f in forms)

    @cache
    def is_sure(rows, cols):
        b = w[:, rows][:, :, cols]
        if len(rows) == 2 and not (np.array_equal(b[:, 1, 0], -b[:, 0, 1].conj())
                                   and np.array_equal(b[:, 1, 1], b[:, 0, 0].conj())):
            return False
        image = np.concatenate([b[:, 0].real, b[:, 0].imag], axis=1)
        independent, full = _independent(image, size)
        return independent and (full or nonzero_on_box(image[:size].T))

    def blocks(unplaced):  # a used row has no unplaced column left
        for r, row in enumerate(unplaced):
            cols = tuple(np.flatnonzero(row))
            same = (unplaced == row).all(axis=1)  # a quaternion's rows match
            partners = {1: [()], 2: [(r2,) for r2 in np.flatnonzero(same)]}.get(len(cols), [])
            # either row may come first, so one column order covers a quaternion
            yield from (cols for p in partners if is_sure((r, *p), cols))

    support, placed = (w != 0).any(axis=0), np.zeros(w.shape[2], dtype=bool)
    while not placed.all():
        cols = next(blocks(support & ~placed), None)
        if cols is None:
            return False
        placed[list(cols)] = True
    return True


def certify(design, scheme, mode, pam_levels=4):
    """Prove the rank criterion of `mode` ("pic" or "picsic") by the block peel
    of the module docstring: True is a proof for that mode, False means not
    proven.  A bad mode, pam_levels or grouping raises ValueError."""
    if mode not in ("pic", "picsic"):
        raise ValueError(f"mode must be 'pic' or 'picsic', got {mode!r}")
    if scheme.num_symbols != design.num_real_symbols:
        raise ValueError(f"grouping covers {scheme.num_symbols} symbols, "
                         f"the design has {design.num_real_symbols}")
    bound = int(pam_difference_values(pam_levels)[0]) // 2  # levels - 1, checked
    interference_of = scheme.complement if mode == "pic" else scheme.later
    w, memo = design.weight_matrices, {}  # memo: each form's verdict, for every group
    return all(_certify_group(w[list(g) + list(interference_of(k))], len(g), bound, memo)
               for k, g in enumerate(scheme.groups))


def certify_diagonal(spec, rotation, pam_levels=4):
    """certify() in PIC-SIC on the unnormalized diagonal code with this rotation."""
    if spec.family is not Family.DIAGONAL:
        raise ValueError("spec is not a diagonal-family code")
    design, scheme, _ = build_diagonal_code(spec.antennas, spec.group_size, spec.layers,
                                            rotation=rotation, normalize=False)
    return certify(design, scheme, "picsic", pam_levels)


def certify_alamouti_block(spec, rotation, pam_levels=4):
    """certify() in PIC-SIC on the unnormalized Alamouti-block code with this
    rotation, fine grouping only: the coarse one follows a fortiori."""
    if spec.family is not Family.ALAMOUTI_BLOCK:
        raise ValueError("spec is not an alamouti_block-family code")
    if spec.grouping_variant != "fine":
        raise ValueError("certificate covers the fine grouping; the coarse variant "
                         "follows a fortiori from it")
    design, scheme, _ = build_alamouti_block_code(spec.antennas, spec.layers,
                                                  rotation=rotation, normalize=False)
    return certify(design, scheme, "picsic", pam_levels)
