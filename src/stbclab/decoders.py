"""ML, ZF, PIC and PIC-SIC decoders over the real equivalent channel.

All decoders work on the real model y = sqrt(snr) * G @ x + noise with
every symbol drawn from one finite PAM alphabet.  The PIC decoder handles
each symbol group independently: it projects the received vector onto the
orthogonal complement of the other groups' channel columns and jointly
decodes the group.  The PIC-SIC decoder sweeps the groups in order,
projecting only the *later* groups out and subtracting each decoded
group's contribution before moving on.  In the PIC framework of Guo and
Xia (IEEE Trans. IT 2009), ML is PIC with one group and ZF is PIC with
single-symbol groups.  ml_decode runs pic_decode on one group, always
exhaustively; zf_decode reaches the single-symbol estimates by one
triangular solve instead of K group searches.

All four decoders run on one thresholded QR (_ordered_qr).  The group
decoders search on an n x n block of it rather than on the projected
2*N_r*T-row channel.  Take the QR of G with its columns in cancellation
order: the interfering groups first, the decoded group last (PIC-SIC:
all groups in reverse decode order, one QR per frame; PIC: the other
groups, then the group, one QR per group).  If the group occupies columns
s:e, then for every candidate x

    ||P (y - sqrt(snr) G_k x)||^2 = ||z[s:e] - sqrt(snr) R[s:e, s:e] x||^2 + c

with P the projector off the interfering columns, z = Q^T y and c free of
x (the sorted-QR view of SIC, Wubben et al., Electron. Lett. 2001).  So the
group search sees the same argmin through n rows.  PIC-SIC cancels a
decoded group by z[:s] -= sqrt(snr) R[:s, s:e] levels.

One rank rule decides which columns the QR keeps, for every decoder and on
every input (_ordered_qr): a column is null when its residual off the kept
columns before it is at most RANK_EPS times its own norm.  A null column
owns no row of R; its row is zero, its entries hold its components along
the kept directions, and its residual below the threshold is dropped.  On
an overloaded link (2*N_r*T < K) every column after the 2*N_r*T-th kept one
is null.  A group with null columns keeps fewer rows than symbols: the
zero rows add nothing to any metric, candidates that differ only along the
lost directions tie, and the tie rule below picks among them.  A full-rank
G keeps every column, and its R is the plain QR's.

ZF takes the QR of sqrt(snr) G in column order, solves the kept rows'
triangular system for the kept symbols and sets every null symbol's
estimate to 0, then quantizes each entry to its nearest level.  On a
full-rank G that is the pseudo-inverse estimate.  A null column lies in
the span of the kept columns before it, so its symbol is not observed
apart from them; on an overloaded link this differs from the
minimum-norm estimate a pseudo-inverse would give (notes/decisions.md).

Group search modes:
  * "exhaustive" enumerates the full alphabet product of the group.
  * "conditioned" enumerates all but the first symbol and solves that pivot
    symbol in closed form (the level nearest its least-squares value); it
    returns the same argmin and costs a factor sqrt(M) fewer metric
    evaluations.  A degenerate pivot column sends it to the exhaustive
    search.

The metric of a candidate x is evaluated in one of two forms:
  * Gram form, for an exhaustive search whose feature table holds at most
    GRAM_MAX_TABLE doubles (_gram_form, which reads the alphabet and the
    symbol count alone): ||py||^2 - 2 sqrt(snr) (pg^T py)^T x +
    snr x^T (pg^T pg) x, all metrics from one matvec of a feature table
    cached per alphabet and symbol count (_gram_table), with the constant
    left out.  The weights are rounded so that this product is exact
    (_gram_weights).
  * residual form, for the conditioned search and an exhaustive search
    with a larger table (ML near DEFAULT_ML_CAP): ||py - sqrt(snr) pg x||^2
    from the candidates' residual vectors, with pg x summed elementwise
    (_residuals).
In both forms a candidate's computed metric depends on the candidate
alone, not on the other rows searched with it or on the BLAS build, so
x and -x tie exactly at y = 0.  The tests run each form on the other's
inputs.

Ties between equal metrics resolve to the candidate earliest in
lexicographic enumeration order (the first symbol varies slowest), in both
modes, which keeps every decoder deterministic.  Decoders are pure
functions; counters are returned by value.
"""

import dataclasses
import math
from functools import lru_cache

import numpy as np
from dataclasses import dataclass

from .lindesign import RANK_EPS, GroupingScheme

DEGENERATE_PIVOT = 1e-12
DEFAULT_ML_CAP = 1 << 20
SEARCH_MODES = ("exhaustive", "conditioned")
# Largest Gram feature table, in doubles (16 MB).  An exhaustive search
# with a larger table, such as ML near DEFAULT_ML_CAP, runs in residual form.
GRAM_MAX_TABLE = 1 << 21


@dataclass(frozen=True, eq=False)
class DecodeProblem:
    """One received vector with its equivalent channel, grouping and alphabet."""

    y: np.ndarray  # (2 * N_r * T,) real
    g: np.ndarray  # (2 * N_r * T, K) real equivalent channel
    scheme: object  # GroupingScheme
    alphabet: object  # PamAlphabet of every symbol
    snr: float

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        g = np.asarray(self.g, dtype=float)
        if y.shape != (g.shape[0],):
            raise ValueError("received vector length must match channel rows")
        if self.scheme is not None and self.scheme.num_symbols != g.shape[1]:
            raise ValueError("grouping scheme does not match channel columns")
        if not 0 <= self.snr < math.inf:
            raise ValueError("snr must be finite and non-negative")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "g", g)


@dataclass(frozen=True, eq=False)
class DecodeResult:
    decided: np.ndarray  # (K,) decided levels
    candidate_evaluations: int
    per_group_counts: tuple = ()


def _ordered_qr(g, y, order):
    """Thresholded triangular factor of g's columns taken in `order`, with Q^T y.

    order is one column order (K,) or a stack of orders (B, K).  Returns
    (r, z) shaped (..., K, K) and (..., K), rows and columns indexed by
    position in the order.  A column is null when its residual off the kept
    columns before it is at most RANK_EPS times its norm; a zero column
    always is, and so is every column after 2*N_r*T kept ones.  Each kept
    column owns the row of its own direction.  r holds every column's
    components along the kept directions and z those of y; a null column's
    row is zero, and its residual below the threshold is dropped.

    Q is never formed: r comes from the triangular factor of [g[:, order],
    y].  Each null column that factor finds is moved behind y and the factor
    taken again, so the kept directions are those of the kept columns alone.
    On a full-rank g nothing moves, and r and z are bitwise the first K rows
    of that one factor.
    """
    k = g.shape[1]
    orders = order.reshape(-1, k)
    idx = np.concatenate([orders, np.full((len(orders), 1), k)], axis=1)
    cols = np.vstack([g.T, y])
    # a column is null when |r_jj| <= limit; y and the columns behind it never are
    limit = np.append(RANK_EPS * np.sqrt(np.einsum("ij,ij->j", g, g)), -1.0)[idx]
    batch = np.arange(len(idx))[:, None]
    perm = idx
    while True:
        r = np.linalg.qr(cols[perm].swapaxes(1, 2), mode="r")
        m = r.shape[1]
        null = np.abs(r.diagonal(0, 1, 2)) <= limit[:, :m]
        if not null.any():
            break
        # Move each order's first null column behind y.  Only the first is
        # sure: the factor took its residual as a direction, which skews the
        # pivots after it.
        first = np.where(null.any(axis=1), null.argmax(axis=1), k)[:, None]
        src = np.arange(k + 1)
        src = src + (src >= first)
        src[:, -1:] = first
        perm, limit = perm[batch, src], limit[batch, src]
        limit[:, -1] = -1.0
    if perm is not idx or m < k:
        # put each kept row at its column's position; null rows stay zero
        full = np.zeros(idx.shape + (k + 1,))
        full[:, :m] = np.where(limit[:, :m, None] >= 0, r, 0.0)
        back = np.argsort(perm, axis=1)[batch, idx]
        r = full[batch[:, :, None], back[:, :, None], back[:, None, :]]
    lead = order.shape[:-1]
    return r[:, :k, :k].reshape(lead + (k, k)), r[:, :k, k].reshape(lead + (k,))


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
def _candidates(alphabet, n):
    """(level indices, level values) of every candidate of an n-symbol group (cached).

    One row per candidate, in lexicographic order: the first symbol's index
    varies slowest, so row r of a group with C candidates per first-symbol
    level has first index r // C.
    """
    idx = np.indices((alphabet.size,) * n).reshape(n, alphabet.size ** n).T
    levels = alphabet.levels[idx]
    idx.setflags(write=False)
    levels.setflags(write=False)
    return idx, levels


@lru_cache(maxsize=None)
def _gram_form(alphabet, n):
    """Whether an exhaustive search over n symbols runs in Gram form (cached)."""
    return alphabet.size ** n * n * (n + 3) // 2 <= GRAM_MAX_TABLE


@lru_cache(maxsize=None)
def _gram_table(alphabet, n):
    """The Gram form's feature table for n symbols of one alphabet (cached).

    Levels are taken in units of half the alphabet's spacing, u = x / h, so
    every feature is a small integer: a row holds one candidate's u_i, then
    u_i u_j for i <= j, with the rows in lexicographic order.  Returns the
    table, the largest |feature| of each column, the scales that turn
    (sqrt(snr) pg^T py, snr pg^T pg) into the column weights, and the
    (i, j) index arrays of the products.
    """
    levels = _candidates(alphabet, n)[1]
    h = alphabet.spacing / 2
    u = np.rint(levels / h)
    if not np.allclose(u * h, levels, rtol=1e-12, atol=0):
        raise ValueError("the Gram form needs zero-mean, equally spaced levels")
    i, j = np.triu_indices(n)
    features = np.hstack([u, u[:, i] * u[:, j]])
    scales = np.concatenate([np.full(n, -2 * h), np.where(i == j, 1.0, 2.0) * h * h])
    out = (features, np.abs(features).max(axis=0), scales, i, j)
    for a in out:
        a.setflags(write=False)
    return out


def group_joint_decode(py, pg, alphabet, snr, mode="exhaustive"):
    """Jointly decode one group of pg.shape[1] symbols from its projected observation.

    Returns (level values, level indices, metric evaluation count).  Both
    modes return the same argmin, and of equal least metrics the
    lexicographically first candidate; the conditioned mode falls back to
    the exhaustive search when the pivot column is degenerate.  An
    exhaustive search runs in Gram form unless its feature table would pass
    GRAM_MAX_TABLE (_gram_form); every other search runs in residual form.
    """
    py = np.asarray(py, dtype=float)
    pg = np.asarray(pg, dtype=float)
    n = pg.shape[1]
    if mode not in SEARCH_MODES:
        raise ValueError(f"unknown group search mode {mode!r}")
    if (mode == "conditioned" and n >= 1
            and float(pg[:, 0] @ pg[:, 0]) >= DEGENERATE_PIVOT ** 2):
        row, used = _conditioned_search(py, pg, alphabet, snr)
    elif _gram_form(alphabet, n):
        row, used = _gram_search(py, pg, alphabet, snr)
    else:
        row, used = _residual_search(py, pg, alphabet, snr)
    idx, levels = _candidates(alphabet, n)
    return levels[row].copy(), idx[row].copy(), used


@lru_cache(maxsize=None)
def _candidate_columns(alphabet, n):
    """The level values of _candidates transposed: one row per symbol (cached)."""
    levels = np.ascontiguousarray(_candidates(alphabet, n)[1].T)
    levels.setflags(write=False)
    return levels


def _residuals(py, pg, cand, root_snr):
    """py - root_snr pg x for each column x of cand, shaped (len(py), columns).

    pg x is summed symbol by symbol from elementwise products rather than
    by a matmul, whose rounding of a candidate can depend on the candidate
    count or on its place.  Each residual then depends on its candidate
    alone, and those of x and -x are exact negatives at py = 0.
    """
    acc = np.zeros((len(py), cand.shape[1]))
    for j in range(pg.shape[1]):
        acc += pg[:, j, None] * cand[j]
    return py[:, None] - root_snr * acc


def _residual_search(py, pg, alphabet, snr):
    """Exhaustive search by residual norms; returns (row, count)."""
    cand = _candidate_columns(alphabet, pg.shape[1])
    resid = _residuals(py, pg, cand, np.sqrt(snr))
    return int(np.einsum("ij,ij->j", resid, resid).argmin()), resid.shape[1]


def _conditioned_search(py, pg, alphabet, snr):
    """Search the non-pivot symbols in residual form, each with its nearest pivot level.

    Returns (row, count).  Of equal least metrics it keeps the least row,
    the lexicographically first candidate, as the exhaustive search does.
    """
    root_snr = np.sqrt(snr)
    pivot = pg[:, 0]
    # (n-1, C) non-pivot levels; one empty column for n = 1
    cand = _candidate_columns(alphabet, pg.shape[1] - 1)
    resid = _residuals(py, pg[:, 1:], cand, root_snr)
    piv = alphabet.nearest_index((pivot @ resid) / (root_snr * float(pivot @ pivot)))
    resid -= root_snr * (pivot[:, None] * alphabet.levels[piv])
    metrics = np.einsum("ij,ij->j", resid, resid)
    rows = piv * resid.shape[1] + np.arange(resid.shape[1])
    best = metrics.argmin()
    least = metrics == metrics[best]
    if np.count_nonzero(least) > 1:
        return int(rows[least].min()), len(rows)
    return int(rows[best]), len(rows)


def _gram_weights(py, pg, alphabet, snr):
    """Weights w with features @ w = ||py - sqrt(snr) pg x||^2 - ||py||^2.

    w is rounded to a power-of-two grid with sum_k fmax_k |w_k| < 2**53 grid.
    Every feature is an integer, so every partial sum of a table row times
    w is a multiple of grid that a double holds exactly.  A candidate's
    metric is then the same number in whatever order BLAS adds, and x and
    -x tie exactly at py = 0.  Unrounded, they need not: OpenBLAS sums some
    rows of a table in a different order from others.
    """
    _, fmax, scales, i, j = _gram_table(alphabet, pg.shape[1])
    gram = pg.T @ pg
    w = scales * np.concatenate([np.sqrt(snr) * (py @ pg), snr * gram[i, j]])
    grid = math.ldexp(1.0, max(math.frexp(fmax @ np.abs(w))[1] - 52, -1074))
    return np.rint(w / grid) * grid


def _gram_search(py, pg, alphabet, snr):
    """Exhaustive search by ||py||^2 - 2 sqrt(snr) (pg^T py)^T x + snr x^T (pg^T pg) x.

    The constant ||py||^2 is left out, so the metrics of all candidates are
    one matvec of the cached feature table with _gram_weights.  Returns
    (row, count).
    """
    features = _gram_table(alphabet, pg.shape[1])[0]
    metrics = features @ _gram_weights(py, pg, alphabet, snr)
    return int(metrics.argmin()), len(features)


def pic_decode(problem, mode="exhaustive"):
    """Decode every group independently after projecting the others out.

    One stacked thresholded QR gives every group's triangular block.
    """
    scheme = problem.scheme
    _, orders = _cancellation_orders(scheme)
    r, z = _ordered_qr(problem.g, problem.y, orders)
    k = problem.g.shape[1]
    x_hat = np.zeros(k)
    counts = []
    for i, group in enumerate(scheme.groups):
        s = k - len(group)
        levels, _, used = group_joint_decode(
            z[i, s:], r[i, s:, s:], problem.alphabet, problem.snr, mode)
        x_hat[list(group)] = levels
        counts.append(used)
    return DecodeResult(x_hat, int(sum(counts)), tuple(counts))


def picsic_decode(problem, mode="exhaustive"):
    """Decode groups in order, cancelling each decoded group from the residual.

    One thresholded QR of G with the groups in reverse decode order gives
    every group's triangular block.
    """
    scheme = problem.scheme
    order, _ = _cancellation_orders(scheme)
    r, z = _ordered_qr(problem.g, problem.y, order)
    root_snr = np.sqrt(problem.snr)
    x_hat = np.zeros(problem.g.shape[1])
    counts = []
    e = problem.g.shape[1]
    for group in scheme.groups:
        s = e - len(group)
        levels, _, used = group_joint_decode(
            z[s:e], r[s:e, s:e], problem.alphabet, problem.snr, mode)
        x_hat[list(group)] = levels
        counts.append(used)
        z[:s] -= root_snr * (r[:s, s:e] @ levels)
        e = s
    return DecodeResult(x_hat, int(sum(counts)), tuple(counts))


def check_ml_cap(alphabet, k, cap=DEFAULT_ML_CAP):
    """Raise ValueError when ML's alphabet.size ** k candidates exceed the cap."""
    space = alphabet.size ** k
    if space > cap:
        raise ValueError(f"ML search space {space} exceeds the cap {cap}")


def ml_decode(problem, cap=DEFAULT_ML_CAP):
    """Maximum likelihood: PIC with every symbol in one group, searched exhaustively."""
    k = problem.g.shape[1]
    check_ml_cap(problem.alphabet, k, cap)
    one_group = GroupingScheme((tuple(range(k)),), k)
    return pic_decode(dataclasses.replace(problem, scheme=one_group), "exhaustive")


def zf_decode(problem):
    """Zero-forcing: least squares on the thresholded QR, quantized symbol by symbol.

    The estimate solves the kept rows' triangular system; a null column lies
    in the span of the kept columns before it, and its estimate is 0.
    """
    k = problem.g.shape[1]
    r, z = _ordered_qr(np.sqrt(problem.snr) * problem.g, problem.y, np.arange(k))
    kept = np.diagonal(r) != 0
    estimate = np.zeros(k)
    estimate[kept] = np.linalg.solve(r[np.ix_(kept, kept)], z[kept])
    return DecodeResult(problem.alphabet.quantize(estimate), 0, ())


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
