"""Full-diversity rotation matrices for the integer lattice.

A full-diversity rotation is a real orthogonal Q such that Q @ a has no zero
coordinate for any nonzero integer vector a.  These are the precoding
matrices both code families apply to each group of PAM symbols.

Construction: take the maximal real subfield of the m-th cyclotomic field
(m = 4*dim when dim is a power of two, m = 2*dim + 1 when that is prime),
with generator theta = 2*cos(2*pi/m).  The twisted trace form
q(x, y) = c * Tr((2 - theta) * x * y) on the ring of integers is, after the
unimodular scaling c, an integer positive-definite unimodular form; an
integral basis on which it is orthonormal is found by enumerating the
norm-one lattice vectors and is verified exactly in integer arithmetic.
Embedding that basis through the field's real conjugates, scaled by the
square roots of the (totally positive) twist, yields Q.  Each coordinate of
Q @ a then equals a nonzero conjugate of a nonzero algebraic integer, which
is what the certificate re-checks: certify_rotation finds the least
coordinate magnitude delta_min of Q @ a over every nonzero a in [-B, B]^dim
exactly, taking Q's float entries as exact, by meeting in the middle at a
cost of about (2B+1)^ceil(dim/2) * log per row, and passes Q when delta_min
exceeds lindesign.RANK_EPS, the package's one zero threshold.

Supported dimensions: 1, 2, 3, 4, 5, 6 and 8 (dim 7 has neither form).
"""

from functools import lru_cache
from math import cos, fsum, pi
from numbers import Integral

import numpy as np
from dataclasses import dataclass

from .lindesign import RANK_EPS

SUPPORTED_DIMENSIONS = (1, 2, 3, 4, 5, 6, 8)

ORTHOGONALITY_TOL = 1e-10
CERTIFIED_BOUND = 3  # build_rotation's bound B: covers 4-PAM (16-QAM) differences


@dataclass(frozen=True, eq=False)
class RotationMatrix:
    """A real square rotation with its full-diversity certificate.

    certified_bound B and delta_min record the certificate: over every
    nonzero integer vector with entries in [-B, B], the least coordinate
    magnitude of its image is delta_min (exact, rounded once).
    """

    entries: np.ndarray
    certified_bound: int
    delta_min: float

    def __post_init__(self):
        q = np.asarray(self.entries, dtype=float).copy()
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("rotation entries must be square")
        q.setflags(write=False)
        object.__setattr__(self, "entries", q)

    @property
    def is_certified(self):
        return self.delta_min > RANK_EPS


def _field_conjugates(dim):
    """Real conjugates of the field generator."""
    if dim >= 1 and dim & (dim - 1) == 0:
        return np.array([2.0 * cos(pi * k / (2 * dim)) for k in range(1, 2 * dim, 2)])
    p = 2 * dim + 1
    if all(p % q for q in range(2, p)) and p > 2:
        return np.array([2.0 * cos(2.0 * pi * j / p) for j in range(1, dim + 1)])
    raise ValueError(
        f"unsupported rotation dimension {dim}; supported: {SUPPORTED_DIMENSIONS}"
    )


def _unit_norm_vectors(gram):
    """All integer vectors (up to sign) of norm one under an integer Gram form.

    Fincke-Pohst style enumeration on the Cholesky factor; every candidate is
    re-verified exactly in integer arithmetic before acceptance.
    """
    n = gram.shape[0]
    r = np.linalg.cholesky(gram.astype(float)).T  # upper triangular
    found = []
    x = np.zeros(n, dtype=np.int64)

    def descend(i, partial):
        if i < 0:
            v = x.copy()
            nz = np.nonzero(v)[0]
            if len(nz) == 0:
                return
            if v[nz[0]] < 0:
                v = -v
            if int(v @ gram @ v) == 1 and not any(np.array_equal(v, s) for s in found):
                found.append(v)
            return
        slack = 1.0 + 1e-9 - float(np.sum(partial[i + 1:] ** 2))
        if slack < 0:
            return
        center = -partial[i] / r[i, i]
        half = np.sqrt(slack) / r[i, i]
        for v in range(int(np.ceil(center - half - 1e-9)), int(np.floor(center + half + 1e-9)) + 1):
            x[i] = v
            nxt = partial + r[:, i] * v
            descend(i - 1, nxt)
        x[i] = 0

    descend(n - 1, np.zeros(n))
    return found


@lru_cache(maxsize=None)
def build_rotation(dim):
    """Construct and certify the full-diversity rotation of a given dimension.

    The certificate covers [-CERTIFIED_BOUND, CERTIFIED_BOUND]^dim.  Raises
    ValueError for unsupported dimensions and RuntimeError if the
    construction fails its own exact or numerical verification (which would
    indicate a bug, not bad luck).
    """
    if dim == 1:
        return RotationMatrix(np.eye(1), CERTIFIED_BOUND, 1.0)
    theta = _field_conjugates(dim)
    twist = 2.0 - theta
    scale = 1.0 / (2 * dim if dim & (dim - 1) == 0 else 2 * dim + 1)
    powers = np.vander(theta, dim, increasing=True)  # powers[j, l] = theta_j ** l
    gram_f = scale * (powers.T * twist) @ powers
    gram = np.rint(gram_f).astype(np.int64)
    if np.abs(gram_f - gram).max() > 1e-6:
        raise RuntimeError(f"trace form for dimension {dim} is not integral")
    basis = _unit_norm_vectors(gram)
    if len(basis) != dim:
        raise RuntimeError(
            f"found {len(basis)} unit-norm vectors for dimension {dim}, expected {dim}"
        )
    change = np.array(sorted(basis, key=tuple), dtype=np.int64)
    if not np.array_equal(change @ gram @ change.T, np.eye(dim, dtype=np.int64)):
        raise RuntimeError("integral basis fails exact orthonormality check")
    q = np.sqrt(scale * twist)[:, None] * (powers @ change.T.astype(float))
    if np.abs(q @ q.T - np.eye(dim)).max() > ORTHOGONALITY_TOL:
        raise RuntimeError("rotation fails orthogonality tolerance")
    ok, delta = certify_rotation(q, CERTIFIED_BOUND)
    if not ok:
        raise RuntimeError(f"rotation certificate failed: delta_min={delta}")
    return RotationMatrix(q, CERTIFIED_BOUND, delta)


def _box(count, bound):
    """Every integer vector of [-bound, bound]^count, first coordinate slowest.

    The zero vector is the middle row.
    """
    side = 2 * bound + 1
    return np.indices((side,) * count).reshape(count, side ** count).T - bound


def _exact_magnitude(row, a):
    """|row . a| rounded once: fsum adds each entry |a_j| times, exactly."""
    return abs(fsum(np.repeat(row * np.sign(a), np.abs(a))))


def _least_magnitude(row, head, tail, head_sums, tail_sums, bound):
    """min |row . a| over nonzero a = (h, t) of the box, exact, rounded once.

    head_sums and tail_sums are the float dot products of row with the head
    and tail vectors.  Each is within gamma_dim * bound * ||row||_1 of its
    exact value whatever the order of its additions, so `margin` bounds the
    error of a computed pair sum plus that of the float search keys.  The
    float nearest pair of each kind gives an exact magnitude b; every pair
    whose exact magnitude is below b then has a computed sum within
    b + margin of 0, and all of those are re-evaluated exactly.
    """
    zero_h, zero_t = len(head) // 2, len(tail) // 2
    margin = (len(row) + 8) * 2.0 ** -52 * bound * np.abs(row).sum()
    order = np.argsort(tail_sums, kind="stable")
    sorted_sums = tail_sums[order]
    heads = np.delete(np.arange(len(head)), zero_h)
    hs = head_sums[heads]
    # pairs with a nonzero head: the two tails nearest -hs
    pos = np.searchsorted(sorted_sums, -hs)
    near = order[np.clip(np.stack([pos - 1, pos]), 0, len(order) - 1)]
    side, i = np.unravel_index(np.argmin(np.abs(hs + tail_sums[near])), near.shape)
    pairs = [(heads[i], near[side, i])]
    # pairs with the zero head and a nonzero tail
    tail_mags = np.abs(tail_sums)
    tail_mags[zero_t] = np.inf
    if len(tail) > 1:
        pairs.append((zero_h, np.argmin(tail_mags)))

    def exact(h, t):
        return _exact_magnitude(row, np.concatenate([head[h], tail[t]]))

    best = min(exact(h, t) for h, t in pairs)
    if best == 0.0:
        return best
    reach = best + margin
    lo = np.searchsorted(sorted_sums, -hs - reach, side="left")
    hi = np.searchsorted(sorted_sums, -hs + reach, side="right")
    for k in np.flatnonzero(hi > lo):
        best = min(best, *(exact(heads[k], t) for t in order[lo[k]:hi[k]]))
    for t in np.flatnonzero(tail_mags <= reach):
        best = min(best, exact(zero_h, t))
    return best


def certify_rotation(q, bound):
    """Full-diversity check over all nonzero integer vectors in [-B, B]^dim.

    Returns (passed, delta_min) where delta_min is the smallest coordinate
    magnitude of q @ a over those vectors, taking the entries of q as exact:
    the correctly rounded exact minimum, whatever the BLAS or the order of
    its additions.  Passing requires it to exceed RANK_EPS.

    Meet in the middle (Horowitz and Sahni, JACM 1974): each row's sums over
    the first ceil(dim/2) and the last floor(dim/2) coordinates come from one
    matmul per half; the tail sums are sorted and each head sum's nearest
    negated partners found by binary search, then the few pairs within a
    rigorous rounding margin of the least are summed exactly.  The cost is
    about (2B+1)^ceil(dim/2) * log per row, against (2B+1)^dim for a scan of
    the whole box, so 8-PAM (B = 7) at dim 8 takes a fraction of a second.
    Raises ValueError unless q is a finite non-empty
    square matrix and bound an integer of at least 1.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1] or q.size == 0:
        raise ValueError("q must be a non-empty square matrix")
    if not np.isfinite(q).all():
        raise ValueError("q must be finite")
    if isinstance(bound, bool) or not isinstance(bound, Integral):
        raise ValueError("bound must be an integer")
    if bound < 1:
        raise ValueError("bound must be at least 1")
    delta = float(least_magnitudes(q, int(bound)).min())
    return delta > RANK_EPS, delta


def least_magnitudes(forms, bound):
    """min |f . a| over the nonzero integer a of [-bound, bound]^dim, exact and
    rounded once, for each row f of the real (count, dim) array forms."""
    dim = forms.shape[1]
    half = (dim + 1) // 2
    head, tail = _box(half, bound), _box(dim - half, bound)
    head_sums = head.astype(float) @ forms[:, :half].T
    tail_sums = tail.astype(float) @ forms[:, half:].T
    return np.array([_least_magnitude(f, head, tail, head_sums[:, i], tail_sums[:, i], bound)
                     for i, f in enumerate(forms)])
