"""Linear-dispersion STBC designs, grouping schemes and the real equivalent channel.

A design is a codeword matrix that is real-linear in K information symbols:
X = power_scale * sum_i x_i A_i, with complex T x N weight matrices A_i.
A grouping scheme is an ordered partition of the symbol indices; group order
matters for successive interference cancellation.

All objects are immutable after construction and all operations are pure
functions, so everything here is safe for concurrent use.

Conventions fixed once for the whole package:
  * Complex matrices are vectorized as [vec(Re A); vec(Im A)] with
    column-major (Fortran) stacking inside each half.
  * Symbol indices are 0-based in Python; the JSON interchange format uses
    1-based indices (see design_to_json / grouping_to_json).
"""

import json

import numpy as np
from dataclasses import dataclass

# Relative singular-value threshold below which directions count as rank-null.
RANK_EPS = 1e-9


def numerical_rank(mat):
    """Count of singular values above RANK_EPS times the largest; 0 for zero input."""
    s = np.linalg.svd(np.asarray(mat), compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > RANK_EPS * s[0]))


def vec_complex(a):
    """Stack a complex matrix into a real vector [vec(Re a); vec(Im a)].

    Stacking is column-major within each half.  For a T x N input the result
    has length 2*T*N.
    """
    a = np.asarray(a, dtype=complex)
    return np.concatenate([a.real.ravel(order="F"), a.imag.ravel(order="F")])


def unvec_complex(v, rows, cols):
    """Inverse of :func:`vec_complex` for a known matrix shape."""
    v = np.asarray(v, dtype=float)
    if v.size != 2 * rows * cols:
        raise ValueError(f"expected length {2 * rows * cols}, got {v.size}")
    re = v[: rows * cols].reshape((rows, cols), order="F")
    im = v[rows * cols:].reshape((rows, cols), order="F")
    return re + 1j * im


@dataclass(frozen=True, eq=False)
class Design:
    """A linear-dispersion STBC design in K real symbols.

    weight_matrices holds the raw (unscaled) A_i; power_scale is applied by
    assemble_codeword and equivalent_channel, never baked into the matrices.
    """

    weight_matrices: np.ndarray  # (K, T, N) complex
    power_scale: float = 1.0

    def __post_init__(self):
        w = np.asarray(self.weight_matrices, dtype=complex)
        if w.ndim != 3:
            raise ValueError("weight_matrices must be a (K, T, N) array")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weight_matrices", w)
        if not self.power_scale > 0:
            raise ValueError("power_scale must be positive")
        k, t, n = w.shape
        if k > 2 * t * n:
            raise ValueError(f"K={k} exceeds 2*T*N={2 * t * n}")
        if numerical_rank(np.stack([vec_complex(m) for m in w], axis=1)) < k:
            raise ValueError("weight matrices are linearly dependent")

    @property
    def num_real_symbols(self):
        return self.weight_matrices.shape[0]

    @property
    def delay(self):
        return self.weight_matrices.shape[1]

    @property
    def antennas(self):
        return self.weight_matrices.shape[2]

    def with_power_scale(self, scale):
        return Design(self.weight_matrices, power_scale=float(scale))


@dataclass(frozen=True)
class GroupingScheme:
    """Ordered partition of the symbol indices {0..K-1} into decoding groups."""

    groups: tuple  # tuple of tuples of 0-based indices
    num_symbols: int

    def __post_init__(self):
        groups = tuple(tuple(int(i) for i in g) for g in self.groups)
        object.__setattr__(self, "groups", groups)
        seen = [i for g in groups for i in g]
        if any(len(g) == 0 for g in groups):
            raise ValueError("groups must be non-empty")
        if sorted(seen) != list(range(self.num_symbols)):
            raise ValueError("groups must partition 0..K-1 exactly")

    @property
    def num_groups(self):
        return len(self.groups)

    @property
    def n_max(self):
        return max(len(g) for g in self.groups)

    def complement(self, k):
        """Indices outside group k, ascending."""
        inside = set(self.groups[k])
        return tuple(i for i in range(self.num_symbols) if i not in inside)

    def later(self, k):
        """Indices in groups after group k, ascending (empty for the last group)."""
        idx = sorted(i for g in self.groups[k + 1:] for i in g)
        return tuple(idx)

    @classmethod
    def contiguous(cls, group_size, num_groups):
        k = group_size * num_groups
        groups = tuple(
            tuple(range(j * group_size, (j + 1) * group_size)) for j in range(num_groups)
        )
        return cls(groups, k)


def assemble_codeword(design, x):
    """Codeword matrix power_scale * sum_i x_i A_i for a symbol vector x."""
    x = np.asarray(x, dtype=float)
    k = design.num_real_symbols
    if x.shape != (k,):
        raise ValueError(f"symbol vector must have length {k}, got {x.shape}")
    return design.power_scale * np.tensordot(x, design.weight_matrices, axes=(0, 0))


def combine_subset(design, indices, u):
    """Raw dispersion combination sum_i u_i A_{j_i} over a subset of indices.

    Indices are sorted ascending and paired with u in that order.  power_scale
    is intentionally not applied: rank criteria are scale-invariant.
    """
    idx = sorted(int(i) for i in indices)
    u = np.asarray(u, dtype=float)
    k, t, n = design.weight_matrices.shape
    if any(i < 0 or i >= k for i in idx):
        raise IndexError(f"subset index out of range 0..{k - 1}")
    if u.shape != (len(idx),):
        raise ValueError("coefficient vector must match subset size")
    if not idx:
        return np.zeros((t, n), dtype=complex)
    return np.tensordot(u, design.weight_matrices[idx], axes=(0, 0))


def equivalent_channel(design, h):
    """Real equivalent channel G with columns vec(power_scale * A_i @ H).

    For every symbol vector x, vec_complex(assemble_codeword(design, x) @ H)
    equals G @ x.  H must have design.antennas rows; the result is a real
    (2 * N_r * T) x K matrix.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != design.antennas:
        raise ValueError(f"channel matrix must have {design.antennas} rows")
    prods = design.power_scale * (design.weight_matrices @ h)  # (K, T, N_r)
    k = design.num_real_symbols
    re = prods.real.transpose(2, 1, 0).reshape(-1, k)
    im = prods.imag.transpose(2, 1, 0).reshape(-1, k)
    return np.concatenate([re, im], axis=0)


def grouping_permutation(scheme):
    """Source-index permutation that lists group 0 first, then group 1, etc.

    Returns an integer array perm with x[perm] giving the grouped ordering;
    perm is a bijection of 0..K-1.
    """
    return np.array([i for g in scheme.groups for i in g], dtype=int)


def extract_design(encoder, num_symbols, delay, antennas):
    """Recover explicit weight matrices from a real-linear encoder callable.

    The encoder maps a length-K real vector to a T x N complex matrix.  Each
    A_i is obtained by probing the i-th standard basis vector; superposition
    is spot-checked on eight seeded random vector pairs and the linear
    independence of the recovered matrices is verified by the Design
    constructor.
    """
    rng = np.random.default_rng(0)
    weights = np.zeros((num_symbols, delay, antennas), dtype=complex)
    for i in range(num_symbols):
        e = np.zeros(num_symbols)
        e[i] = 1.0
        m = np.asarray(encoder(e), dtype=complex)
        if m.shape != (delay, antennas):
            raise ValueError(f"encoder output shape {m.shape} != ({delay}, {antennas})")
        weights[i] = m
    for _ in range(8):
        x, y = rng.standard_normal((2, num_symbols))
        a, b = rng.standard_normal(2)
        lhs = np.asarray(encoder(a * x + b * y), dtype=complex)
        rhs = a * np.asarray(encoder(x)) + b * np.asarray(encoder(y))
        scale = max(np.abs(rhs).max(), 1.0)
        if np.abs(lhs - rhs).max() > 1e-10 * scale:
            raise ValueError("encoder is not real-linear")
    return Design(weights)


def design_to_json(design):
    """Serialize a design to the interchange dict {K, T, N, power_scale, matrices}.

    Matrix entries are [re, im] pairs; matrices keep the raw (unscaled) values.
    """
    w = design.weight_matrices
    matrices = [
        [[[float(v.real), float(v.imag)] for v in row] for row in mat] for mat in w
    ]
    return {
        "K": design.num_real_symbols,
        "T": design.delay,
        "N": design.antennas,
        "power_scale": float(design.power_scale),
        "matrices": matrices,
    }


def design_from_json(doc):
    k, t, n = int(doc["K"]), int(doc["T"]), int(doc["N"])
    w = np.empty((k, t, n), dtype=complex)
    for i, mat in enumerate(doc["matrices"]):
        for r, row in enumerate(mat):
            for c, (re, im) in enumerate(row):
                w[i, r, c] = complex(re, im)
    return Design(w, power_scale=float(doc["power_scale"]))


def grouping_to_json(scheme):
    """Serialize a grouping scheme; indices are 1-based on the wire."""
    return {"groups": [[i + 1 for i in g] for g in scheme.groups]}


def grouping_from_json(doc):
    groups = tuple(tuple(int(i) - 1 for i in g) for g in doc["groups"])
    k = sum(len(g) for g in groups)
    return GroupingScheme(groups, k)


def save_json(obj, path):
    with open(path, "w") as f:
        json.dump(obj, f, indent=1)
        f.write("\n")


def load_json(path):
    with open(path) as f:
        return json.load(f)
