"""ML, ZF, PIC and PIC-SIC decoders over the real equivalent channel.

All decoders work on the real model y = sqrt(snr) * G @ x + noise with a
finite per-symbol PAM alphabet.  The PIC decoder handles each symbol group
independently: it projects the received vector onto the orthogonal
complement of the other groups' channel columns and jointly decodes the
group.  The PIC-SIC decoder sweeps the groups in order, projecting only the
*later* groups out and subtracting each decoded group's contribution before
moving on.

Both group decoders search on an n x n triangular block rather than on the
projected 2*N_r*T-row channel.  Take the reduced QR of G with its columns in
cancellation order: the interfering groups first, the decoded group last
(PIC-SIC: all groups in reverse decode order, one QR per frame; PIC: the
other groups, then the group, one QR per group).  If the group occupies
columns s:e, then for every candidate x

    ||P (y - sqrt(snr) G_k x)||^2 = ||z[s:e] - sqrt(snr) R[s:e, s:e] x||^2 + c

with P the projector off the interfering columns, z = Q^T y and c free of
x (the sorted-QR view of SIC, Wubben et al., Electron. Lett. 2001).  So the
group search sees the same argmin through n rows.  PIC-SIC cancels a
decoded group by z[:s] -= sqrt(snr) R[:s, s:e] levels.

The triangular view needs every interfering column to be independent, so it
runs only when the QR is full rank by the rule the reference would apply:
2*N_r*T >= K and every column keeps a residual above RANK_EPS times its norm
(PIC-SIC's Gram-Schmidt skip rule), and for PIC also every singular value
of the other groups' columns above RANK_EPS times the largest
(complement_projector's rule).  Otherwise, e.g. on an overloaded link with
2*N_r*T < K, the decoders take the reference path: complement_projector for
PIC, the Gram-Schmidt bases of _later_group_bases for PIC-SIC.  The input
alone selects the path; both give the same decisions and counts.

Group search modes:
  * "exhaustive" enumerates the full alphabet product of the group.
  * "conditioned" enumerates all but the first symbol and solves that pivot
    symbol in closed form (scale by the pivot column, round to the nearest
    level, clamp); it returns the same argmin and costs a factor sqrt(M)
    fewer metric evaluations.

Ties between equal metrics always resolve to the candidate earliest in
lexicographic enumeration order, which keeps every decoder deterministic.
Decoders are pure functions; counters are returned by value.
"""

from functools import lru_cache

import numpy as np
from dataclasses import dataclass

from .lindesign import RANK_EPS, RealSymbolVector

DEGENERATE_PIVOT = 1e-12
DEFAULT_ML_CAP = 1 << 20
SEARCH_MODES = ("exhaustive", "conditioned")


@dataclass(frozen=True, eq=False)
class DecodeProblem:
    """One received vector with its equivalent channel, grouping and alphabets."""

    y: np.ndarray  # (2 * N_r * T,) real
    g: np.ndarray  # (2 * N_r * T, K) real equivalent channel
    scheme: object  # GroupingScheme
    alphabets: tuple  # one PamAlphabet per symbol
    snr: float

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        g = np.asarray(self.g, dtype=float)
        if y.shape != (g.shape[0],):
            raise ValueError("received vector length must match channel rows")
        if g.shape[1] != len(self.alphabets):
            raise ValueError("need one alphabet per channel column")
        if self.scheme is not None and self.scheme.num_symbols != g.shape[1]:
            raise ValueError("grouping scheme does not match channel columns")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "g", g)


@dataclass(frozen=True, eq=False)
class DecodeResult:
    decided: RealSymbolVector
    candidate_evaluations: int
    per_group_counts: tuple = ()


def complement_projector(b):
    """Orthogonal projector onto the complement of the column space of b.

    b may have zero columns, in which case the projector is the identity.
    Rank is decided at the package-wide relative singular value threshold.
    """
    b = np.asarray(b, dtype=float)
    dim = b.shape[0]
    if b.ndim != 2:
        raise ValueError("expected a 2-D array of spanning columns")
    if b.shape[1] == 0:
        return np.eye(dim)
    u, s, _ = np.linalg.svd(b, full_matrices=False)
    u = u[:, :_kept_rank(s)]
    return np.eye(dim) - u @ u.T


def _kept_rank(s):
    """Count of the singular values s (descending) above RANK_EPS times the largest."""
    return int(np.sum(s > RANK_EPS * s[0])) if s.size and s[0] > 0 else 0


def _ordered_qr(g, y, order):
    """Triangular factor of g's columns taken in `order`, with Q^T y.

    order is one column order (K,) or a stack of orders (B, K).  With
    g[:, order] = Q r the reduced QR, returns (r, z = Q^T y), shaped
    (..., K, K) and (..., K).  Q is never formed: r and z are the first K
    rows of the triangular factor of [g[:, order], y].  None when g has
    fewer rows than columns, or when a column keeps a residual of at most
    RANK_EPS times its norm off the columns before it (the column
    _later_group_bases would skip), in any of the orders.
    """
    rows, k = g.shape
    if rows < k:
        return None
    idx = np.concatenate([order, np.full(order.shape[:-1] + (1,), k)], axis=-1)
    cols = np.vstack([g.T, y])[idx].swapaxes(-1, -2)
    r = np.linalg.qr(cols, mode="r")[..., :k, :]
    norms = np.sqrt(np.einsum("ij,ij->j", g, g))[order]
    if not (np.abs(r.diagonal(0, -2, -1)) > RANK_EPS * norms).all():
        return None
    return r[..., :k], r[..., k]


@lru_cache(maxsize=None)
def _cancellation_orders(scheme):
    """Column orders of the triangular views (cached per scheme).

    PIC-SIC: all groups in reverse decode order, shape (K,).  PIC: for each
    group the other groups' columns, then the group's, shape (groups, K).
    """
    sic = np.array([j for group in reversed(scheme.groups) for j in group])
    pic = np.array([list(scheme.complement(k)) + list(group)
                    for k, group in enumerate(scheme.groups)])
    sic.setflags(write=False)
    pic.setflags(write=False)
    return sic, pic


@lru_cache(maxsize=None)
def _candidate_grid(sizes):
    """Lexicographic index grid over per-symbol alphabet sizes (cached)."""
    if not sizes:
        out = np.zeros((1, 0), dtype=np.int64)
    else:
        grids = np.meshgrid(*[np.arange(s) for s in sizes], indexing="ij")
        out = np.stack([g.ravel() for g in grids], axis=1)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _candidate_levels(alphabets):
    """Level-value rows matching _candidate_grid for a tuple of alphabets (cached)."""
    idx = _candidate_grid(tuple(a.size for a in alphabets))
    if not alphabets:
        return np.zeros((1, 0))
    out = np.stack([alphabets[j].levels[idx[:, j]] for j in range(len(alphabets))],
                   axis=1)
    out.setflags(write=False)
    return out


def group_joint_decode(py, pg, alphabets, snr, mode="exhaustive"):
    """Jointly decode one group from its projected observation.

    Returns (level values, level indices, metric evaluation count).  Both
    modes return the same argmin; the conditioned mode falls back to the
    exhaustive search when the pivot column is degenerate.
    """
    py = np.asarray(py, dtype=float)
    pg = np.asarray(pg, dtype=float)
    n = pg.shape[1]
    if len(alphabets) != n:
        raise ValueError("need one alphabet per group column")
    alphabets = tuple(alphabets)
    root_snr = np.sqrt(snr)

    if mode == "conditioned" and n >= 1:
        pivot = pg[:, 0]
        if float(pivot @ pivot) >= DEGENERATE_PIVOT ** 2:
            return _conditioned_search(py, pg, alphabets, root_snr)
    elif mode not in SEARCH_MODES:
        raise ValueError(f"unknown group search mode {mode!r}")

    idx = _candidate_grid(tuple(a.size for a in alphabets))
    cand = _candidate_levels(alphabets)
    resid = py[None, :] - root_snr * (cand @ pg.T)
    metrics = np.einsum("ij,ij->i", resid, resid)
    best = int(np.argmin(metrics))
    return cand[best].copy(), idx[best].copy(), len(metrics)


def _conditioned_search(py, pg, alphabets, root_snr):
    pivot = pg[:, 0]
    pivot_sq = float(pivot @ pivot)
    rest_idx = _candidate_grid(tuple(a.size for a in alphabets[1:]))
    rest_levels = _candidate_levels(alphabets[1:])  # (C, n-1); one empty row for n = 1
    resid = py[None, :] - root_snr * (rest_levels @ pg[:, 1:].T)
    ls = (resid @ pivot) / (root_snr * pivot_sq)
    piv_idx = alphabets[0].nearest_index(ls)
    piv_levels = alphabets[0].levels[piv_idx]
    # metric evaluated exactly as the exhaustive mode would for this candidate
    full = np.concatenate([piv_levels[:, None], rest_levels], axis=1)
    resid_full = py[None, :] - root_snr * (full @ pg.T)
    metrics = np.einsum("ij,ij->i", resid_full, resid_full)
    best = int(np.argmin(metrics))
    idx = np.concatenate([[piv_idx[best]], rest_idx[best]]).astype(np.int64)
    return full[best].copy(), idx, len(metrics)


def pic_decode(problem, mode="exhaustive"):
    """Decode every group independently after projecting the others out.

    One stacked QR gives every group's triangular block.  When some group's
    interfering columns are rank-deficient (by complement_projector's
    singular-value rule), the frame takes _pic_reference instead.
    """
    scheme = problem.scheme
    _, orders = _cancellation_orders(scheme)
    qr = _ordered_qr(problem.g, problem.y, orders)
    if qr is None:
        return _pic_reference(problem, mode)
    r, z = qr
    k = problem.g.shape[1]
    sizes = [k - len(group) for group in scheme.groups]
    # Dropping columns cannot raise the ratio of largest to smallest singular
    # value, so when G itself (the block r[0]) passes complement_projector's
    # rule, every group's interfering columns do.
    if (_kept_rank(np.linalg.svd(r[0], compute_uv=False)) < k
            and any(_kept_rank(np.linalg.svd(r[i, :s, :s], compute_uv=False)) < s
                    for i, s in enumerate(sizes))):
        return _pic_reference(problem, mode)
    x_hat = np.zeros(k)
    counts = []
    for i, (group, s) in enumerate(zip(scheme.groups, sizes)):
        levels, _, used = group_joint_decode(
            z[i, s:], r[i, s:, s:], tuple(problem.alphabets[j] for j in group),
            problem.snr, mode
        )
        x_hat[list(group)] = levels
        counts.append(used)
    return DecodeResult(
        RealSymbolVector(x_hat, alphabets=tuple(problem.alphabets)),
        int(sum(counts)), tuple(counts),
    )


def _pic_reference(problem, mode="exhaustive"):
    """PIC through complement_projector; it also decodes a rank-deficient G."""
    scheme = problem.scheme
    x_hat = np.zeros(problem.g.shape[1])
    counts = []
    for k in range(scheme.num_groups):
        group = list(scheme.groups[k])
        proj = complement_projector(problem.g[:, list(scheme.complement(k))])
        levels, _, used = group_joint_decode(
            proj @ problem.y, proj @ problem.g[:, group],
            tuple(problem.alphabets[j] for j in group), problem.snr, mode
        )
        x_hat[group] = levels
        counts.append(used)
    return DecodeResult(
        RealSymbolVector(x_hat, alphabets=tuple(problem.alphabets)),
        int(sum(counts)), tuple(counts),
    )


def _later_group_bases(scheme, g):
    """Orthonormal bases of the spans of each group's later channel columns.

    Built in one reverse sweep with reorthogonalized Gram-Schmidt; columns
    numerically inside the running span (relative residual below RANK_EPS)
    are skipped.  bases[k] spans exactly {g_j : j in groups after k}.
    """
    bases = [None] * scheme.num_groups
    u = np.zeros((g.shape[0], 0))
    for k in reversed(range(scheme.num_groups)):
        bases[k] = u
        for j in scheme.groups[k]:
            c = g[:, j]
            v = c - u @ (u.T @ c)
            v -= u @ (u.T @ v)
            norm_v = np.sqrt(v @ v)
            norm_c = np.sqrt(c @ c)
            if norm_c > 0 and norm_v > RANK_EPS * norm_c:
                u = np.concatenate([u, (v / norm_v)[:, None]], axis=1)
    return bases


def picsic_decode(problem, mode="exhaustive"):
    """Decode groups in order, cancelling each decoded group from the residual.

    One QR of G with the groups in reverse decode order gives every group's
    triangular block; a rank-deficient G takes _picsic_reference instead.
    """
    scheme = problem.scheme
    order, _ = _cancellation_orders(scheme)
    qr = _ordered_qr(problem.g, problem.y, order)
    if qr is None:
        return _picsic_reference(problem, mode)
    r, z = qr
    root_snr = np.sqrt(problem.snr)
    x_hat = np.zeros(problem.g.shape[1])
    counts = []
    e = problem.g.shape[1]
    for group in scheme.groups:
        s = e - len(group)
        levels, _, used = group_joint_decode(
            z[s:e], r[s:e, s:e], tuple(problem.alphabets[j] for j in group),
            problem.snr, mode
        )
        x_hat[list(group)] = levels
        counts.append(used)
        z[:s] -= root_snr * (r[:s, s:e] @ levels)
        e = s
    return DecodeResult(
        RealSymbolVector(x_hat, alphabets=tuple(problem.alphabets)),
        int(sum(counts)), tuple(counts),
    )


def _picsic_reference(problem, mode="exhaustive"):
    """PIC-SIC through the Gram-Schmidt bases of the later groups' spans.

    Projections onto the complements of those spans are applied as
    y - U (U^T y), the same map as multiplying by the complement projector.
    Columns inside the running span are skipped, so this also decodes a
    rank-deficient G.
    """
    scheme = problem.scheme
    x_hat = np.zeros(problem.g.shape[1])
    counts = []
    y_k = problem.y.copy()
    root_snr = np.sqrt(problem.snr)
    bases = _later_group_bases(scheme, problem.g)
    for k in range(scheme.num_groups):
        group = list(scheme.groups[k])
        u = bases[k]
        gk = problem.g[:, group]
        if u.shape[1]:
            py = y_k - u @ (u.T @ y_k)
            pg = gk - u @ (u.T @ gk)
        else:
            py, pg = y_k, gk
        levels, _, used = group_joint_decode(
            py, pg, tuple(problem.alphabets[j] for j in group), problem.snr, mode
        )
        x_hat[group] = levels
        counts.append(used)
        y_k = y_k - root_snr * (gk @ levels)
    return DecodeResult(
        RealSymbolVector(x_hat, alphabets=tuple(problem.alphabets)),
        int(sum(counts)), tuple(counts),
    )


def ml_decode(problem, cap=DEFAULT_ML_CAP):
    """Exhaustive maximum-likelihood search over the full alphabet product."""
    sizes = tuple(a.size for a in problem.alphabets)
    total = int(np.prod(sizes, dtype=np.int64))
    if total > cap:
        raise ValueError(f"ML search space {total} exceeds the cap {cap}")
    levels, _, used = group_joint_decode(
        problem.y, problem.g, problem.alphabets, problem.snr, mode="exhaustive"
    )
    return DecodeResult(
        RealSymbolVector(levels, alphabets=tuple(problem.alphabets)),
        used, (used,),
    )


def zf_decode(problem):
    """Zero-forcing: pseudo-inverse estimate, then per-symbol quantization."""
    estimate = np.linalg.pinv(np.sqrt(problem.snr) * problem.g,
                              rcond=RANK_EPS) @ problem.y
    x_hat = np.array([problem.alphabets[j].quantize(estimate[j])
                      for j in range(estimate.size)])
    return DecodeResult(
        RealSymbolVector(x_hat, alphabets=tuple(problem.alphabets)), 0, ()
    )


DECODERS = {
    "ml": lambda p, mode: ml_decode(p),
    "zf": lambda p, mode: zf_decode(p),
    "pic": pic_decode,
    "picsic": picsic_decode,
}


def decode(problem, name, mode="exhaustive"):
    """Dispatch by decoder name: ml | zf | pic | picsic."""
    try:
        fn = DECODERS[name]
    except KeyError:
        raise ValueError(f"unknown decoder {name!r}; choose from {sorted(DECODERS)}")
    return fn(problem, mode)
