"""Linear-dispersion STBC designs, grouping schemes and the real equivalent channel.

A design is a codeword matrix that is real-linear in K information symbols:
X = power_scale * sum_i x_i A_i, with complex T x N weight matrices A_i.
A grouping scheme is an ordered partition of the symbol indices; group order
matters for successive interference cancellation.

All objects are immutable after construction and all operations are pure
functions, so everything here is safe for concurrent use.  The per-frame
functions take a stack of frames on leading axes, each frame by the same
product as alone, so a stack's results are bitwise its frames' one by one.

Conventions fixed once for the whole package:
  * Complex matrices are vectorized as [vec(Re A); vec(Im A)] with
    column-major (Fortran) stacking inside each half.
  * Symbol indices are 0-based in Python; the JSON interchange format uses
    1-based indices (see design_to_json / grouping_to_json).
"""

import numpy as np
from dataclasses import dataclass

# The one relative zero threshold: of ranks, QR pivots and certified magnitudes.
RANK_EPS = 1e-9


def numerical_rank(mat):
    """Count of singular values above RANK_EPS times the largest; 0 for zero input."""
    s = np.linalg.svd(np.asarray(mat), compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > RANK_EPS * s[0]))


def check_integer(name, value, least=None):
    """Raise ValueError naming `name` unless value is a (NumPy) integer, not a bool, >= least."""
    if type(value) is bool or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}")


def vec_complex(a):
    """Stack complex matrices (..., T, N) into real vectors [vec(Re a); vec(Im a)].

    Stacking is column-major within each half; each vector has length 2*T*N.
    """
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], -3).swapaxes(-1, -2).reshape(a.shape[:-2] + (-1,))


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
        if not np.isfinite(w).all():
            raise ValueError("weight matrices must be finite")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weight_matrices", w)
        if not self.power_scale > 0:
            raise ValueError("power_scale must be positive")
        k, t, n = w.shape
        if k > 2 * t * n:
            raise ValueError(f"K={k} exceeds 2*T*N={2 * t * n}")
        if numerical_rank(vec_complex(w).T) < k:
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
    """Codeword matrices power_scale * sum_i x_i A_i, (..., T, N), of symbol vectors (..., K)."""
    x = np.asarray(x, dtype=float)
    k, t, n = design.weight_matrices.shape
    if x.shape[-1:] != (k,):
        raise ValueError(f"symbol vector must have length {k}, got {x.shape}")
    # one (1, K) @ (K, T*N) product a frame
    rows = x[..., None, :] @ design.weight_matrices.reshape(k, -1)
    return design.power_scale * rows.reshape(x.shape[:-1] + (t, n))


def equivalent_channel(design, h):
    """Real equivalent channels G with columns vec(power_scale * A_i @ H).

    For every symbol vector x, vec_complex(assemble_codeword(design, x) @ H)
    equals G @ x.  H (..., N, N_r) must have design.antennas rows; each G is
    a real (2 * N_r * T) x K matrix.
    """
    h = np.asarray(h, dtype=complex)
    k, t, n = design.weight_matrices.shape
    if h.ndim < 2 or h.shape[-2] != n:
        raise ValueError(f"channel matrix must have {n} rows")
    # one (K*T, N) @ (N, N_r) product a frame; G in C order at every N_r
    prods = design.power_scale * (design.weight_matrices.reshape(k * t, n) @ h)
    g = np.stack([prods.real, prods.imag], -3).reshape(h.shape[:-2] + (2, k, t, -1))
    return g.swapaxes(-1, -3).reshape(h.shape[:-2] + (-1, k))


def design_to_json(design):
    """Serialize a design to the interchange dict {K, T, N, power_scale, matrices}.

    Matrix entries are [re, im] pairs; matrices keep the raw (unscaled) values.
    """
    w = design.weight_matrices
    return {
        "K": design.num_real_symbols,
        "T": design.delay,
        "N": design.antennas,
        "power_scale": float(design.power_scale),
        "matrices": np.stack([w.real, w.imag], axis=-1).tolist(),
    }


def design_from_json(doc):
    """Inverse of design_to_json; a missing key or misshaped matrices raise ValueError."""
    if missing := {"K", "T", "N", "power_scale", "matrices"} - set(doc):
        raise ValueError(f"design is missing key(s) {', '.join(sorted(missing))}")
    shape = (int(doc["K"]), int(doc["T"]), int(doc["N"]), 2)
    m = np.asarray(doc["matrices"], dtype=float)  # ragged nesting raises ValueError
    if m.shape != shape:
        raise ValueError(f"matrices must have shape {shape}, got {m.shape}")
    # the [re, im] pairs read as complex bit for bit; re + 1j*im would
    # turn a -0.0 real part into 0.0
    return Design(m.view(complex)[..., 0], power_scale=float(doc["power_scale"]))


def grouping_to_json(scheme):
    """Serialize a grouping scheme; indices are 1-based on the wire."""
    return {"groups": [[i + 1 for i in g] for g in scheme.groups]}


def grouping_from_json(doc):
    if "groups" not in doc:
        raise ValueError("grouping is missing key(s) groups")
    groups = tuple(tuple(int(i) - 1 for i in g) for g in doc["groups"])
    k = sum(len(g) for g in groups)
    return GroupingScheme(groups, k)

