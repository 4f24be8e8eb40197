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
is what the exhaustive certificate re-checks numerically.

Supported dimensions: 1, 2, 3, 4, 5, 6 and 8 (dim 7 has neither form).
"""

from functools import lru_cache
from math import cos, pi

import numpy as np
from dataclasses import dataclass

SUPPORTED_DIMENSIONS = (1, 2, 3, 4, 5, 6, 8)

# Certified coordinates must clear this to count as nonzero.
DELTA_THRESHOLD = 1e-9
ORTHOGONALITY_TOL = 1e-10
DEFAULT_BOUND = 3  # covers 4-PAM (16-QAM) difference vectors


@dataclass(frozen=True, eq=False)
class RotationMatrix:
    """A real square rotation with its full-diversity certificate.

    certified_bound B and delta_min record the exhaustive check: every
    nonzero integer vector with entries in [-B, B] maps to a vector whose
    smallest coordinate magnitude is delta_min.
    """

    entries: np.ndarray
    construction_tag: str
    certified_bound: int
    delta_min: float

    def __post_init__(self):
        q = np.asarray(self.entries, dtype=float).copy()
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("rotation entries must be square")
        q.setflags(write=False)
        object.__setattr__(self, "entries", q)

    @property
    def dimension(self):
        return self.entries.shape[0]

    @property
    def is_certified(self):
        return self.delta_min > DELTA_THRESHOLD

    def to_json(self):
        return {
            "lambda": self.dimension,
            "entries": [[float(v) for v in row] for row in self.entries],
            "delta_min": float(self.delta_min),
            "B": int(self.certified_bound),
        }


def _field_conjugates(dim):
    """Real conjugates of the field generator, plus a construction tag."""
    if dim >= 1 and dim & (dim - 1) == 0:
        return (
            np.array([2.0 * cos(pi * k / (2 * dim)) for k in range(1, 2 * dim, 2)]),
            f"cyclotomic-real-{4 * dim}",
        )
    p = 2 * dim + 1
    if all(p % q for q in range(2, p)) and p > 2:
        return (
            np.array([2.0 * cos(2.0 * pi * j / p) for j in range(1, dim + 1)]),
            f"cyclotomic-real-{p}",
        )
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
def build_rotation(dim, bound=DEFAULT_BOUND):
    """Construct and certify the full-diversity rotation of a given dimension.

    Raises ValueError for unsupported dimensions and RuntimeError if the
    construction fails its own exact or numerical verification (which would
    indicate a bug, not bad luck).
    """
    if dim == 1:
        return RotationMatrix(np.eye(1), "scalar", bound, 1.0)
    theta, tag = _field_conjugates(dim)
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
    ok, delta = certify_rotation(q, bound)
    if not ok:
        raise RuntimeError(f"rotation certificate failed: delta_min={delta}")
    return RotationMatrix(q, tag, bound, delta)


def certify_rotation(q, bound):
    """Exhaustive full-diversity check over all nonzero integer vectors in [-B, B]^dim.

    Returns (passed, delta_min) where delta_min is the smallest coordinate
    magnitude of q @ a over the scanned vectors; passing requires it to
    exceed DELTA_THRESHOLD.  The scan is deterministic and re-runnable.
    """
    q = np.asarray(q, dtype=float)
    if bound < 1:
        raise ValueError("bound must be at least 1")
    dim = q.shape[0]
    vals = np.arange(-bound, bound + 1, dtype=np.int64)
    if dim == 1:
        delta = float(np.abs(vals[vals != 0] * q[0, 0]).min())
        return delta > DELTA_THRESHOLD, delta
    # fix the first coordinate per chunk; delta is the global minimum entry
    # magnitude, excluding the single all-zero vector in the v0 = 0 chunk.
    # a and -a have the same magnitudes, so v0 < 0 repeats v0 > 0.
    grids = np.meshgrid(*([vals] * (dim - 1)), indexing="ij")
    rest = np.stack([g.ravel() for g in grids], axis=1)  # ((2B+1)^(dim-1), dim-1)
    rest_coords = rest.astype(float) @ q[:, 1:].T
    zero_row = int(np.nonzero(~np.any(rest, axis=1))[0][0])
    buf = np.empty_like(rest_coords)
    delta = np.inf
    for v0 in vals[bound:]:
        np.add(rest_coords, v0 * q[:, 0], out=buf)
        np.abs(buf, out=buf)
        if v0 == 0:
            buf[zero_row] = np.inf
        delta = min(delta, float(buf.min()))
    return delta > DELTA_THRESHOLD, delta
