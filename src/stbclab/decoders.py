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
decoded group by z[:s] -= sqrt(snr) R[:s, s:e] levels.  Both decoders keep
their decisions in the PIC-SIC column order, where group k's are x[s:e]
(_cancellation_orders, cached per scheme with the orders), and put them
back at the symbols' indices once per problem.

Every decoder takes one problem or a stack of problems that share the
grouping, alphabet and SNR (y (B, 2*N_r*T), G (B, 2*N_r*T, K)); one
problem is a stack with no leading axis, decoded by the same code.  A
stack takes one QR call over every frame and order, one more per round of
moved null columns, one product per PIC-SIC cancellation, one weights call
per group and ZF's one solve; the group searches run one per (frame,
group), each on its frame's row of weights and block.  LAPACK factors and
solves each matrix alone and the weights take no BLAS call, so a frame's
decisions do not depend on the frames stacked with it.

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

ZF takes the QR of sqrt(snr) G in column order and solves every frame's
triangular system in one call, each null column taken as its unit column:
the kept rows give the kept symbols, and a null symbol's zero row and zero
z give it 0.  Each entry is then quantized to its nearest level.  On a
full-rank G that is the pseudo-inverse estimate.  A null column lies in
the span of the kept columns before it, so its symbol is not observed
apart from them; on an overloaded link this differs from the
minimum-norm estimate a pseudo-inverse would give (notes/decisions.md).

Group search modes:
  * "exhaustive" evaluates every candidate of the group's alphabet product.
  * "conditioned" evaluates each candidate of all but the first symbol with
    the pivot level that minimizes its metric, one Schnorr-Euchner step
    (Viterbo and Boutros, IEEE Trans. IT 1999): the same argmin from a
    factor sqrt(M) fewer evaluations.  A pivot column that is exactly zero,
    as _ordered_qr makes every null column's, sends it to the exhaustive
    search.  No threshold is absolute, so decoding is scale-invariant.

Both evaluate one metric, ||py - sqrt(snr) pg x||^2 less ||py||^2, as
features(x) @ w (_gram_weights).  The features are the levels of x in units
of half the spacing, u_i, and their products u_i u_j, all small integers.
Each weight sums single products over the group's rows in index order,
with no BLAS call, and w is rounded to a power-of-two grid on which every
partial sum is exact.  So a candidate's metric is one number whatever the
stack, search, layout, order of summation, BLAS build or evaluation in
NumPy or in Python floats, and x and -x tie exactly at y = 0.  The
exhaustive metrics are one matvec of a feature table cached per alphabet
and symbol count, or, when that table would pass GRAM_MAX_TABLE doubles
(ML near ML_CAP), sums over a head and a tail table (_metrics).
A search plan cached per alphabet and symbol count (_search_plan) holds
the feature constants, the columns whose products make w, the indices
that split w between the head and the tail table and, for the
conditioned search, those that gather w into two columns.  One product
of the integer table of the other n - 1 symbols with those columns gives
every non-pivot candidate's own metric and, less the pivot's linear
weight, its pivot coefficient c; both are exact for the reason the
metric is.
The conditioned search (_conditioned_metrics) takes the pivot level by
np.searchsorted of -c / (2 w00) among the midpoints of the levels in
units: at a true midpoint that quotient of two grid multiples is exact,
and the lower level wins.  A conditioned search of at most
FLOAT_MAX_EVALS evaluations, such as PIC-SIC's on two 4-QAM symbols, is
cheaper without NumPy's per-call cost: _float_search evaluates the same
sums and the same bisection in Python floats on w.tolist(), keeping a
running least, with the table's rows and the getters of their weights
cached (_float_plan).  Every path numbers the candidates lexicographically,
so the winning row's level indices are its digits in base sqrt(M), the
alphabet size, taken by divmod; no table holds them.

Ties between equal metrics resolve to the candidate earliest in
lexicographic enumeration order (the first symbol varies slowest), in both
modes, which keeps every decoder deterministic.  Decoders are pure
functions and keep no state between calls.  Counters are returned by value.
"""

import dataclasses
import math
from bisect import bisect_left
from functools import lru_cache
from operator import itemgetter, mul

import numpy as np
from dataclasses import dataclass

from .lindesign import RANK_EPS, GroupingScheme

ML_CAP = 1 << 20
SEARCH_MODES = ("exhaustive", "conditioned")
# Largest feature table, in doubles (16 MB).  A search over more candidates,
# such as ML near ML_CAP, sums a head and a tail table instead.
GRAM_MAX_TABLE = 1 << 21
# Largest conditioned search, in metric evaluations, that runs in Python
# floats: the measured crossover with NumPy (notes/decisions.md).
FLOAT_MAX_EVALS = 4


@dataclass(frozen=True, eq=False)
class DecodeProblem:
    """Received vectors with their equivalent channels, grouping, alphabet and SNR.

    One problem has y (2 * N_r * T,) and g (2 * N_r * T, K); a stack of
    problems that share the rest puts leading axes on both.
    """

    y: np.ndarray  # (..., 2 * N_r * T) real
    g: np.ndarray  # (..., 2 * N_r * T, K) real equivalent channel
    scheme: object  # GroupingScheme
    alphabet: object  # PamAlphabet of every symbol
    snr: float

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        g = np.asarray(self.g, dtype=float)
        if g.ndim < 2 or y.shape != g.shape[:-1]:
            raise ValueError("received vector length must match channel rows")
        if not (np.isfinite(y).all() and np.isfinite(g).all()):
            raise ValueError("received vector and channel must be finite")
        if self.scheme is not None and self.scheme.num_symbols != g.shape[-1]:
            raise ValueError("grouping scheme does not match channel columns")
        if not 0 <= self.snr < math.inf:
            raise ValueError("snr must be finite and non-negative")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "g", g)


@dataclass(frozen=True, eq=False)
class DecodeResult:
    """Decisions and metric evaluation counts: ints and a tuple for one problem,
    arrays over the leading axes for a stack."""

    decided: np.ndarray  # (..., K) decided levels
    candidate_evaluations: object  # int, or (...) int array
    per_group_counts: object = ()  # tuple, or (..., groups) int array


def _result(decided, counts, lead):
    """The DecodeResult of decisions (frames, K) and counts (frames, groups), shaped by lead."""
    if lead:
        return DecodeResult(decided.reshape(lead + decided.shape[1:]),
                            counts.sum(axis=1).reshape(lead), counts.reshape(lead + (-1,)))
    return DecodeResult(decided[0], int(counts.sum()), tuple(counts[0].tolist()))


def _ordered_qr(g, y, order):
    """Thresholded triangular factor of g's columns taken in `order`, with Q^T y.

    g is one channel (rows, K) or a stack (..., rows, K) with y (..., rows),
    and order one column order (K,) or a stack of orders (P, K).  Returns
    (r, z) shaped (..., P, K, K) and (..., P, K), g's leading axes first,
    rows and columns indexed by position in the order.  A column is null
    when its residual off the kept columns before it is at most RANK_EPS
    times its norm; a zero column always is, and so is every column after
    2*N_r*T kept ones.  Each kept column owns the row of its own direction.
    r holds every column's components along the kept directions and z those
    of y; a null column's row is zero, and its residual below the threshold
    is dropped.

    Q is never formed: r comes from the triangular factor of [g[:, order],
    y], one np.linalg.qr call over every channel and order.  Each null
    column the factors find is moved behind y and those factors taken again,
    in one call a round, so the kept directions are those of the kept
    columns alone.  LAPACK factors each matrix of a stack on its own, so a
    channel's (r, z) are bitwise those of a call on it alone.  On a
    full-rank g, r and z are bitwise the first K rows of the first factor.
    """
    rows, k = g.shape[-2:]
    lead = g.shape[:-2] + order.shape[:-1]
    g = g.reshape(-1, rows, k)
    orders = order.reshape(-1, k)
    # [g[:, order], y] of each channel and order, one column per row
    cols = np.empty((len(g), len(orders), k + 1, rows))
    cols[:, :, :k] = g.swapaxes(1, 2)[:, orders]
    cols[:, :, k] = y.reshape(-1, 1, rows)
    # each position's limit, a column being null when |r_jj| <= it; y and
    # the columns behind it are never null
    limit = np.full(cols.shape[:3], -1.0)
    limit[:, :, :k] = (RANK_EPS * np.sqrt(np.einsum("bij,bij->bj", g, g)))[:, orders]
    cols, limit = cols.reshape(-1, k + 1, rows), limit.reshape(-1, k + 1)
    # the raw factor's diagonal is R's; R itself is needed only at the end
    h = np.linalg.qr(cols.swapaxes(1, 2), mode="raw")[0]
    m = min(rows, k + 1)
    null = np.abs(h.diagonal(0, 1, 2)) <= limit[:, :m]
    perm = np.tile(np.arange(k + 1), (len(cols), 1))
    while null.any():
        # Move the first null column of each factor that has one behind y,
        # and take those factors again.  Only the first is sure: the factor
        # took its residual as a direction, which skews the pivots after it.
        moved = np.flatnonzero(null.any(axis=1))
        first = null[moved].argmax(axis=1)[:, None]
        src = np.arange(k + 1)
        src = src + (src >= first)
        src[:, -1:] = first
        at = moved[:, None]
        perm[moved], limit[moved], cols[moved] = perm[at, src], limit[at, src], cols[at, src]
        limit[moved, -1] = -1.0
        h[moved] = np.linalg.qr(cols[moved].swapaxes(1, 2), mode="raw")[0]
        null[moved] = np.abs(h[moved].diagonal(0, 1, 2)) <= limit[moved, :m]
    # the kept rows, each at its own column's position
    full = np.zeros((len(cols), k + 1, k + 1))
    full[:, :m] = np.where(_upper(m, k + 1) & (limit[:, :m, None] >= 0),
                           h.swapaxes(1, 2)[:, :m], 0.0)
    back = np.argsort(perm, axis=1)
    r = full[np.arange(len(cols))[:, None, None], back[:, :, None], back[:, None, :]]
    return r[:, :k, :k].reshape(lead + (k, k)), r[:, :k, k].reshape(lead + (k,))


@lru_cache(maxsize=None)
def _upper(rows, cols):
    """The upper triangle of a rows x cols matrix, diagonal included, as a mask (cached)."""
    return _frozen(np.triu(np.ones((rows, cols), dtype=bool)))[0]


def _frozen(*arrays):
    """The arrays, made read-only: the cached ones are shared by every caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def _cancellation_orders(scheme):
    """(sic, pic, spans, position): the column orders of the triangular views (cached).

    sic orders all groups in reverse decode order, shape (K,), and pic, for
    each group, the other groups' columns, then the group's, shape
    (groups, K).  Group k occupies columns spans[k] = (s, e) of sic, and so
    do its decisions in a vector x kept in that order; x[position] puts
    every symbol back at its own index.
    """
    sic = np.array([j for group in reversed(scheme.groups) for j in group])
    pic = np.array([list(scheme.complement(k)) + list(group)
                    for k, group in enumerate(scheme.groups)])
    ends = np.cumsum([0] + [len(group) for group in reversed(scheme.groups)])
    spans = tuple((int(s), int(e)) for s, e in zip(ends, ends[1:]))[::-1]
    return _frozen(sic, pic) + (spans,) + _frozen(np.argsort(sic))


@lru_cache(maxsize=None)
def _units(alphabet):
    """The levels in units of half their spacing, u = x / h, and u's midpoints (cached)."""
    h = alphabet.spacing / 2
    u = np.rint(alphabet.levels / h)
    if not np.allclose(u * h, alphabet.levels, rtol=1e-12, atol=0):
        raise ValueError("the Gram form needs zero-mean, equally spaced levels")
    return _frozen(u, (u[:-1] + u[1:]) / 2)


@lru_cache(maxsize=None)
def _search_plan(alphabet, n):
    """(fmax2, scales, left, right, rest, head, tail, across): what n-symbol searches share.

    The features are u_i, then u_i u_j for i <= j.  fmax2 is twice the
    largest |feature| of each column (the largest |u|, or its square).
    left and right are, for each feature, the two columns of [py,
    sqrt(snr) pg] whose products over the rows sum to its Gram entry, and
    scales turn those sums into the weights.  rest picks, for the
    features of symbols 1..n-1, two columns of weights: their own, and in
    the first n-1 rows the pivot's products with their u_i (the rows after
    those are padding, to be zeroed).  head, tail and across pick the
    weights of the split layout (_metrics): the features of the first n // 2
    symbols, those of the rest, and the products across the two.
    """
    top = np.abs(_units(alphabet)[0]).max()
    h = alphabet.spacing / 2
    i, j = np.triu_indices(n)
    own = np.r_[1:n, 2 * n:n + len(i)]
    cross = np.zeros_like(own)
    cross[:n - 1] = np.arange(n + 1, 2 * n)
    a = n // 2
    return _frozen(np.concatenate([np.full(n, 2 * top), np.full(len(i), 2 * top * top)]),
                   np.concatenate([np.full(n, -2 * h), np.where(i == j, 1.0, 2.0) * h * h]),
                   np.r_[np.zeros(n, int), i + 1], np.r_[1:n + 1, j + 1],
                   np.stack([own, cross], axis=1),
                   np.r_[:a, n + np.flatnonzero(j < a)],
                   np.r_[a:n, n + np.flatnonzero(i >= a)],
                   n + np.flatnonzero((i < a) & (j >= a)))


@lru_cache(maxsize=None)
def _gram_table(alphabet, n):
    """The features of every candidate of n symbols, a row each in lexicographic order (cached)."""
    u = _units(alphabet)[0][np.indices((alphabet.size,) * n).reshape(n, alphabet.size ** n).T]
    i, j = np.triu_indices(n)
    return _frozen(np.hstack([u, u[:, i] * u[:, j]]))[0]


def _gram_weights(py, pg, alphabet, snr):
    """Weights w with features @ w = ||py - sqrt(snr) pg x||^2 - ||py||^2.

    py (..., rows) and pg (..., rows, n) give w (..., F); one group is a
    stack with no leading axis.  With a = [py, sqrt(snr) pg], w_k is
    scales[k] times the sum of a[:, left[k]] * a[:, right[k]] over the rows,
    in index order, so a group's w is the same bits whatever its stack,
    memory layout or BLAS build.  w is rounded to the power-of-two grid
    ulp(sum_k fmax2_k |w_k|), that sum also in index order.  fmax2 being
    twice each feature's largest magnitude, every partial sum of a table
    row times w is a multiple of grid below 2**53 grid, held exactly, so a
    candidate's metric is the same number however it is summed.
    """
    pg = np.multiply(math.sqrt(snr), pg)
    fmax2, scales, left, right = _search_plan(alphabet, pg.shape[-1])[:4]
    a = np.concatenate((py[..., None], pg), -1)
    w = np.add.accumulate(a.take(left, -1) * a.take(right, -1), -2)[..., -1, :]
    w *= scales
    t = w.T  # rounded in place: transposed, one group's grid is a scalar, cheaper to broadcast
    grid = np.spacing(np.add.accumulate(fmax2 * np.abs(w), -1)[..., -1]).T
    np.rint(np.divide(t, grid, t), t)
    t *= grid
    return w


def _metrics(w, alphabet, n):
    """features @ w for every candidate of n symbols, in lexicographic order.

    One matvec of the n-symbol table when it holds at most GRAM_MAX_TABLE
    doubles; otherwise (F_h @ w_h)[:, None] + F_t @ w_t + (U_h @ W_x) @ U_t^T
    from the tables of the first n // 2 symbols (head) and of the rest
    (tail), with U their u columns and W_x the head-tail product weights.
    """
    if alphabet.size ** n * n * (n + 3) // 2 <= GRAM_MAX_TABLE:
        return _gram_table(alphabet, n).dot(w)
    if w.ndim > 1:
        return np.stack([_metrics(v, alphabet, n) for v in w.T], axis=1)
    a = n // 2
    head, tail, across = _search_plan(alphabet, n)[5:]
    fh, ft = _gram_table(alphabet, a), _gram_table(alphabet, n - a)
    mixed = (fh[:, :a] @ w[across].reshape(a, n - a)) @ ft[:, :n - a].T
    return ((fh @ w[head])[:, None] + ft @ w[tail] + mixed).ravel()


def group_joint_decode(w, pg, alphabet, mode="exhaustive"):
    """Jointly decode one group of pg.shape[1] symbols from its weights w (_gram_weights).

    Returns (level values, level indices, metric evaluation count), the
    indices a fresh array.  Both modes evaluate the metric features @ w
    and return the same argmin, and of equal least metrics the
    lexicographically first candidate; the conditioned mode falls back to
    the exhaustive search when the pivot column of pg is exactly zero.  A
    conditioned search of at most FLOAT_MAX_EVALS evaluations runs in Python
    floats (_float_search), to the same metrics.
    """
    pg = np.asarray(pg, dtype=float)
    n = pg.shape[1]
    size = alphabet.size
    if mode not in SEARCH_MODES:
        raise ValueError(f"unknown group search mode {mode!r}")
    if mode == "conditioned" and n >= 1 and np.count_nonzero(pg[:, 0]):
        count = size ** (n - 1)
        if count <= FLOAT_MAX_EVALS:
            row = _float_search(w.tolist(), alphabet, n)
        else:
            piv, metrics = _conditioned_metrics(w, alphabet, n)
            # candidate r of the non-pivot symbols is row piv[r] * count + r
            row = int(metrics.argmin())
            least = metrics == metrics[row]
            if np.count_nonzero(least) > 1:
                least = np.flatnonzero(least)
                row = int((piv[least] * count + least).min())
            else:
                row += int(piv[row]) * count
    else:
        count = size ** n
        row = int(_metrics(w, alphabet, n).argmin())
    # every search numbers the candidates lexicographically: idx holds the digits of row
    digits = [0] * n
    for i in range(n - 1, -1, -1):
        row, digits[i] = divmod(row, size)
    idx = np.array(digits)
    return alphabet.levels[idx], idx, count


def _float_search(w, alphabet, n):
    """The least row of a conditioned search, its metrics evaluated in Python floats on w.

    w is _gram_weights' output as a list.  As in _conditioned_metrics,
    candidate r of the non-pivot symbols takes the pivot level u that
    bisect_left finds among the midpoints and scores rest + (w00 u + c) u.
    Every term is a grid multiple within the bound of _gram_weights, so each
    metric is exact and equals _conditioned_metrics', and the pivot is the
    same bisection of the same quotient.  Of equal least metrics the least
    row piv * len(rows) + r wins, as in group_joint_decode.
    """
    rows, units, mid, own, cross = _float_plan(alphabet, n)
    own, cross = own(w), cross(w)
    w0, w00 = w[0], w[n]
    least = (math.inf, 0)
    for r, row in enumerate(rows):
        c = sum(map(mul, row, cross)) + w0  # a row's first n - 1 features are its u
        if w00 > 0:
            p = bisect_left(mid, c / (-2 * w00))
        else:
            p = len(units) - 1 if c < 0 else 0
        key = (sum(map(mul, row, own)) + (w00 * units[p] + c) * units[p], p * len(rows) + r)
        if key < least:
            least = key
    return least[1]


@lru_cache(maxsize=None)
def _float_plan(alphabet, n):
    """(rows, units, midpoints, own, cross) of _float_search on n symbols (cached).

    rows are those of _gram_table(alphabet, n - 1) as tuples, and own and cross
    take from w the weights of those features, and of the pivot's products with
    their u_i, w[n + 1:2n].  At n = 1 the one row is empty and takes no weights.
    """
    u, mid = _units(alphabet)
    own = _search_plan(alphabet, n)[4][:, 0].tolist()
    return (tuple(map(tuple, _gram_table(alphabet, n - 1).tolist())), tuple(u.tolist()),
            tuple(mid.tolist()), itemgetter(*own) if n > 1 else itemgetter(slice(0)),
            itemgetter(slice(n + 1, 2 * n)))


def _conditioned_metrics(w, alphabet, n):
    """(pivot indices, metrics) of the non-pivot candidates, each with its best pivot.

    With u the pivot's level in units, the metric is the rest's own plus
    (w00 u + c) u, with c = u_rest @ w_cross + w_lin0.  The least u is the
    level nearest -c / (2 w00), the lower one at a midpoint; a w00 that
    rounds to 0 leaves c u, least at the lowest level unless c < 0.
    """
    u, mid = _units(alphabet)
    w00, both = w[n], w[_search_plan(alphabet, n)[4]]
    both[n - 1:, 1] = 0.0  # the padding of the cross weights
    rest, c = _metrics(both, alphabet, n - 1).T
    c += w[0]
    if w00 > 0:
        piv = mid.searchsorted(c / (-2 * w00))
    else:
        piv = np.where(c < 0, alphabet.size - 1, 0)
    level = u[piv]
    return piv, rest + (w00 * level + c) * level


def pic_decode(problem, mode="exhaustive"):
    """Decode every group independently after projecting the others out.

    One stacked thresholded QR gives every frame's and group's triangular
    block, in the group's last columns.
    """
    _, orders, spans, position = _cancellation_orders(problem.scheme)
    lead = problem.y.shape[:-1]
    r, z = _ordered_qr(problem.g, problem.y, orders)
    k = len(position)
    r, z = r.reshape(-1, len(spans), k, k), z.reshape(-1, len(spans), k)
    x = np.empty((len(z), k))
    counts = np.empty((len(z), len(spans)), dtype=np.int64)
    for i, (s, e) in enumerate(spans):
        b = k - (e - s)
        w = _gram_weights(z[:, i, b:], r[:, i, b:, b:], problem.alphabet, problem.snr)
        x[:, s:e], _, counts[:, i] = zip(*[group_joint_decode(
            wf, rf, problem.alphabet, mode) for rf, wf in zip(r[:, i, b:, b:], w)])
    return _result(x[:, position], counts, lead)


def picsic_decode(problem, mode="exhaustive"):
    """Decode groups in order, cancelling each decoded group from the residual.

    One thresholded QR of G with the groups in reverse decode order gives
    every frame's triangular blocks; each decoded group is cancelled from
    every frame at once.
    """
    order, _, spans, position = _cancellation_orders(problem.scheme)
    lead = problem.y.shape[:-1]
    r, z = _ordered_qr(problem.g, problem.y, order)
    k = len(order)
    r, z = r.reshape(-1, k, k), z.reshape(-1, k)
    root_snr = math.sqrt(problem.snr)
    x = np.empty(z.shape)
    counts = np.empty((len(z), len(spans)), dtype=np.int64)
    for i, (s, e) in enumerate(spans):
        w = _gram_weights(z[:, s:e], r[:, s:e, s:e], problem.alphabet, problem.snr)
        x[:, s:e], _, counts[:, i] = zip(*[group_joint_decode(
            wf, rf, problem.alphabet, mode) for rf, wf in zip(r[:, s:e, s:e], w)])
        if s:
            z[:, :s] -= root_snr * (r[:, :s, s:e] @ x[:, s:e, None])[..., 0]
    return _result(x[:, position], counts, lead)


def check_ml_cap(alphabet, k):
    """Raise ValueError when ML's alphabet.size ** k candidates exceed ML_CAP."""
    space = alphabet.size ** k
    if space > ML_CAP:
        raise ValueError(f"ML search space {space} exceeds the cap {ML_CAP}")


def ml_decode(problem):
    """Maximum likelihood: PIC with every symbol in one group, searched exhaustively."""
    k = problem.g.shape[-1]
    check_ml_cap(problem.alphabet, k)
    one_group = GroupingScheme((tuple(range(k)),), k)
    return pic_decode(dataclasses.replace(problem, scheme=one_group), "exhaustive")


def zf_decode(problem):
    """Zero-forcing: least squares on the thresholded QR, quantized symbol by symbol.

    One solve over the stack takes each null column as its unit column: its
    row of r and its z are zero, so its estimate is 0.
    """
    k = problem.g.shape[-1]
    lead = problem.y.shape[:-1]
    r, z = _ordered_qr(np.sqrt(problem.snr) * problem.g, problem.y, np.arange(k))
    r, z = r.reshape(-1, k, k), z.reshape(-1, k)
    r = np.where(np.diagonal(r, 0, 1, 2)[:, None, :] == 0, np.eye(k), r)
    estimate = np.linalg.solve(r, z[:, :, None])[:, :, 0]
    counts = np.zeros((len(z), 0), dtype=np.int64)
    return _result(problem.alphabet.quantize(estimate), counts, lead)


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
