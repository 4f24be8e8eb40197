"""Slow references: projector PIC and PIC-SIC, brute-force ML and group metrics, skip-rule ZF,
the group weights in Python floats, one frame's draw.

The decoders search each group on a block of one thresholded ordered QR.
These oracles decode the slow way instead.  PIC and PIC-SIC project the
received vector and the group's columns off an orthonormal basis of the
interfering columns, then search the group on the projected 2*N_r*T-row
channel.  The basis is built by reorthogonalized Gram-Schmidt with the
decoders' rank rule: a column whose residual off the kept columns before
it is at most RANK_EPS times its norm is skipped.  The interfering columns
are taken in the decoders' cancellation order: for PIC the other groups'
columns ascending, for PIC-SIC the later groups in reverse decode order.

ML takes the residual norm of every candidate over the raw channel, and
the group-search oracle that of every candidate of one group.  ZF
solves least squares on the columns the same rank rule keeps, with every
skipped column's estimate 0; on a full-rank channel that is the
pseudo-inverse solution.  ZF's one solve over a stack has its own
reference, the form it took before: each frame solves its own kept rows of
the thresholded QR (zf_kept_rows_estimate).

A group's Gram weights have their own reference, the fixed-order
definition written out in Python floats for one group (gram_weights_oracle).

A frame's draw has its own reference: one frame from its own generator,
the way the simulator drew it before ranges were drawn as one stack, with
every step written out for that one frame (frame_oracle).

The falsifier's inputs have their own references, the forms they were built
by before each was written in place: the screen factors by gathers and
concatenate (screen_factors_oracle), the probes from np.eye
(interference_probes_oracle), the differences by meshgrid
(enumerated_differences_oracle).

The falsifier screen has two references.  The direct screen forms every
candidate X = A_d + U_p, takes each Gram X^H X by einsum and runs the
unpivoted LDL^H on both triangles.  The determinant screen takes each
Gram's determinant by LAPACK, one matrix at a time, and flags it at or
below SCREEN_TAU times the trace to the N-th power.
"""

import itertools
import math

import numpy as np

from stbclab.decoders import DecodeResult, _gram_weights, _ordered_qr, group_joint_decode
from stbclab.diversity import SCREEN_TAU, pam_difference_values
from stbclab.lindesign import RANK_EPS


def skip_rule_kept(g, columns):
    """(orthonormal basis, kept columns) of the span of g's `columns`, swept in order.

    A column numerically inside the running span (relative residual at most
    RANK_EPS) is skipped, so the basis may have fewer columns than asked.
    """
    u, kept = np.zeros((g.shape[0], 0)), []
    for j in columns:
        c = g[:, j]
        v = c - u @ (u.T @ c)
        v -= u @ (u.T @ v)
        norm_v = np.sqrt(v @ v)
        norm_c = np.sqrt(c @ c)
        if norm_c > 0 and norm_v > RANK_EPS * norm_c:
            u = np.concatenate([u, (v / norm_v)[:, None]], axis=1)
            kept.append(j)
    return u, kept


def skip_rule_basis(g, columns):
    """Orthonormal basis of the span of g's `columns` (skip_rule_kept's first part)."""
    return skip_rule_kept(g, columns)[0]


def complement_projector(b):
    """Orthogonal projector onto the complement of the column space of b.

    b may have zero columns, in which case the projector is the identity.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 2:
        raise ValueError("expected a 2-D array of spanning columns")
    u = skip_rule_basis(b, range(b.shape[1]))
    return np.eye(b.shape[0]) - u @ u.T


def interferers(scheme, name, k):
    """Columns projected off group k, in the decoders' cancellation order."""
    if name == "pic":
        return scheme.complement(k)
    return [j for later in reversed(scheme.groups[k + 1:]) for j in later]


def group_views(problem, name, decided):
    """(group, y_k, py, pg) for each group in decode order.

    y_k is the received vector, for PIC-SIC with the earlier groups'
    entries of `decided` cancelled; py and pg are y_k and the group's
    columns projected off its interferers, with a null pivot column
    zeroed.  PIC-SIC reads decided[group] after each view is consumed, so
    a caller may fill it as it goes.
    """
    scheme, g = problem.scheme, problem.g
    y_k = problem.y.copy()
    for k, group in enumerate(scheme.groups):
        group = list(group)
        u = skip_rule_basis(g, interferers(scheme, name, k))
        gk = g[:, group]
        pg = gk - u @ (u.T @ gk)
        # the decoders' rank rule: a pivot column within RANK_EPS of the
        # interferers' span is null, and a null pivot column is exactly 0
        if np.sqrt(pg[:, 0] @ pg[:, 0]) <= RANK_EPS * np.sqrt(gk[:, 0] @ gk[:, 0]):
            pg[:, 0] = 0.0
        yield group, y_k, y_k - u @ (u.T @ y_k), pg
        if name == "picsic":
            y_k = y_k - np.sqrt(problem.snr) * (gk @ decided[group])


def oracle_decode(problem, name, mode="exhaustive"):
    """PIC (name "pic") or PIC-SIC ("picsic") through the projector views."""
    decided = np.zeros(problem.g.shape[1])
    counts = []
    for group, _, py, pg in group_views(problem, name, decided):
        w = _gram_weights(py, pg, problem.alphabet, problem.snr)
        levels, _, used = group_joint_decode(w, pg, problem.alphabet, mode)
        decided[group] = levels
        counts.append(used)
    return DecodeResult(decided, int(sum(counts)), tuple(counts))


def group_metrics(py, pg, alphabet, snr):
    """(candidates, ||py - sqrt(snr) pg x||^2 of each) over every x of the group.

    The brute-force residual metric: one row per candidate, in
    lexicographic order (the first symbol slowest).
    """
    cands = np.array(list(itertools.product(alphabet.levels, repeat=pg.shape[1])))
    resid = py[:, None] - np.sqrt(snr) * (pg @ cands.T)
    return cands, np.einsum("ij,ij->j", resid, resid)


def gram_weights_oracle(py, pg, alphabet, snr):
    """One group's weights in the fixed order, in Python floats, as an array.

    The features of x are u_i = x_i / h, with h half the level spacing,
    then u_i u_j for i <= j in row-major order.  With a = [py, sqrt(snr) pg]
    row by row, u_i's weight is -2 h times the sum over the rows of
    a[r][0] * a[r][i + 1], and u_i u_j's is h h (i = j) or 2 h h (i < j)
    times that of a[r][i + 1] * a[r][j + 1]: one multiply a product, the
    rows added in index order from the first.  The weights are rounded to
    multiples of grid = ulp(sum_k 2 fmax_k |w_k|), that sum also in index
    order from its first term, fmax_k being the largest |feature| of
    column k, half-way cases to even.
    """
    root, h = math.sqrt(snr), alphabet.spacing / 2
    a = [[float(v)] + [root * float(e) for e in row] for v, row in zip(py, pg)]
    n = len(a[0]) - 1
    top = float(round(max(abs(float(v)) for v in alphabet.levels) / h))
    columns = ([(0, i + 1, -2 * h, top) for i in range(n)]
               + [(i + 1, j + 1, (1.0 if i == j else 2.0) * h * h, top * top)
                  for i in range(n) for j in range(i, n)])
    w, bound = [], None
    for left, right, scale, fmax in columns:
        total = a[0][left] * a[0][right]
        for row in a[1:]:
            total += row[left] * row[right]
        w.append(scale * total)
        term = 2 * fmax * abs(w[-1])
        bound = term if bound is None else bound + term
    grid = math.ulp(bound)
    # round() drops the sign of a zero quotient, which np.rint keeps
    return np.array([math.copysign(round(v / grid), v / grid) * grid for v in w])


def ml_oracle(problem):
    """Brute-force ML: the least ||y - sqrt(snr) G x||^2 over every candidate.

    Of equal least metrics the lexicographically first candidate wins.
    """
    cands, metrics = group_metrics(problem.y, problem.g, problem.alphabet, problem.snr)
    return DecodeResult(cands[metrics.argmin()], len(cands), (len(cands),))


def zf_estimate(problem):
    """Least-squares estimate of x from y = sqrt(snr) G x under the rank rule.

    The columns of sqrt(snr) G that the skip rule keeps, swept in index
    order, are solved for by least squares; every skipped column's entry
    is 0.
    """
    g = np.sqrt(problem.snr) * problem.g
    _, kept = skip_rule_kept(g, range(g.shape[1]))
    estimate = np.zeros(g.shape[1])
    estimate[kept] = np.linalg.lstsq(g[:, kept], problem.y, rcond=None)[0]
    return estimate


def zf_kept_rows_estimate(problem):
    """zf_decode's estimate, one frame at a time: each frame of the stack
    solves the kept rows of its thresholded QR for its kept symbols, and
    every null symbol's estimate is 0."""
    k = problem.g.shape[-1]
    r, z = _ordered_qr(np.sqrt(problem.snr) * problem.g, problem.y, np.arange(k))
    estimate = np.zeros(z.shape)
    for rf, zf, ef in zip(r.reshape(-1, k, k), z.reshape(-1, k), estimate.reshape(-1, k)):
        kept = np.diagonal(rf) != 0
        ef[kept] = np.linalg.solve(rf[np.ix_(kept, kept)], zf[kept])
    return estimate


def zf_oracle(problem):
    """ZF through zf_estimate: each entry quantized to its nearest level."""
    return DecodeResult(problem.alphabet.quantize(zf_estimate(problem)), 0, ())


def metric_gaps(problem, name, decided):
    """(gap, scale) per group for the decisions `decided`.

    gap is the oracle metric ||py - sqrt(snr) pg x||^2 of the decided x
    less the least metric over the group's candidates; scale is
    ||y_k||^2 + snr ||G_k||_F^2 max|level|^2, which bounds the metrics of
    every candidate up to a factor of a few.  For PIC-SIC, y_k has
    `decided`'s own earlier groups cancelled.
    """
    out = []
    for group, y_k, py, pg in group_views(problem, name, decided):
        _, metrics = group_metrics(py, pg, problem.alphabet, problem.snr)
        x = decided[group]
        mine = py - np.sqrt(problem.snr) * (pg @ x)
        top = np.abs(problem.alphabet.levels).max()
        scale = (y_k @ y_k + problem.snr * np.sum(problem.g[:, group] ** 2) * top ** 2)
        out.append((float(mine @ mine - metrics.min()), float(scale)))
    return out


def pair_rows(a, u):
    """y = [Re X; Im X] of every X = A_d + U_p, shaped (2T, N, d, p), from the
    matrices held batch-last, (T, N, d) and (T, N, p)."""
    x = a[..., :, None] + u[..., None, :]
    return np.concatenate([x.real, x.imag])


def screen_factors_oracle(a_mats, u_mats):
    """diversity._screen_factors by gathers and one concatenate per factor:
    left (Q, D, 2T+2) C-contiguous, right (Q, 2T+2, P) as a strided view."""
    j, i = np.triu_indices(a_mats.shape[-1])
    a, u = np.moveaxis(a_mats, 0, -1), np.moveaxis(u_mats, 0, -1)
    ga, gu = (np.einsum("tqc,tqc->qc", x[:, i].conj(), x[:, j]) for x in (a, u))
    left = np.concatenate([a[:, i].conj(), a[:, j], ga[None], np.ones((1,) + ga.shape)])
    right = np.concatenate([u[:, j], u[:, i].conj(), np.ones((1,) + gu.shape), gu[None]])
    return np.ascontiguousarray(np.moveaxis(left, 0, -1)), np.moveaxis(right, 0, 1)


def interference_probes_oracle(count, trials, rng):
    """diversity._interference_probes from np.eye and concatenate."""
    if count == 0:
        return np.zeros((1, 0))
    eye = np.eye(count)
    det = np.concatenate([np.zeros((1, count)), eye, -eye], axis=0)
    return np.concatenate([det, rng.standard_normal((trials, count))], axis=0)


def enumerated_differences_oracle(group_size, pam_levels):
    """Every nonzero PAM difference vector over a group, by meshgrid, in
    diversity's enumeration order."""
    vals = pam_difference_values(pam_levels)
    grids = np.meshgrid(*([vals] * group_size), indexing="ij")
    a = np.stack([g.ravel() for g in grids], axis=1)
    return a[np.any(a != 0, axis=1)]


def factor_matrices(left, right):
    """A_d and U_p, batch-last, read back from diversity._screen_factors: the
    first T entries of each diagonal q = (i, i) hold conj(A_i) and U_i."""
    n = int(np.sqrt(2 * len(left)))  # Q = N(N+1)/2
    diag = [k * n - k * (k - 1) // 2 for k in range(n)]
    t = (left.shape[-1] - 2) // 2
    return np.moveaxis(left[diag, :, :t].conj(), -1, 0), np.moveaxis(right[diag, :t], 1, 0)


def direct_rank_screen(left, right):
    """The direct screen of the factors diversity._rank_screen takes: True
    unless the product of the unpivoted LDL^H pivots of each X^H X of y =
    pair_rows(*factor_matrices), each over its trace, is finite and above
    SCREEN_TAU."""
    y = pair_rows(*factor_matrices(left, right))
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


def det_rank_screen(y):
    """The determinant screen of y = [Re X; Im X], shaped (2T, N, *pairs) as
    pair_rows builds it: True where det(X^H X) <= SCREEN_TAU * tr(X^H X)^N,
    with det from LAPACK on each X^H X."""
    t = len(y) // 2
    x = np.moveaxis(y[:t] + 1j * y[t:], (0, 1), (-2, -1))
    gram = x.conj().swapaxes(-1, -2) @ x
    trace = np.einsum("...jj->...", gram).real
    return np.linalg.det(gram).real <= SCREEN_TAU * trace ** x.shape[-1]


def frame_oracle(ctx, snr_index, frame_index):
    """(bits, x, y, g) of one frame of a simharness._SimContext, drawn on its own.

    The frame's generator draws its bits, Gray-maps them, assembles the
    codeword from one (1, K) symbol row, draws h (real parts, then
    imaginary) and then w, transmits, and forms G from each A_i @ H.
    """
    cfg, design, alphabet = ctx.cfg, ctx.design, ctx.alphabet
    rng = np.random.default_rng(
        np.random.SeedSequence(cfg.master_seed, spawn_key=(snr_index, frame_index)))
    bits = rng.integers(0, 2, ctx.bits_per_frame, dtype=np.int64)
    gray = np.arange(alphabet.size)
    level_of_code = np.argsort(gray ^ (gray >> 1))
    codes = bits.reshape(-1, alphabet.bit_width) @ (1 << np.arange(alphabet.bit_width)[::-1])
    x = alphabet.levels[level_of_code[codes]]
    w = design.weight_matrices
    k, t, n = w.shape
    codeword = design.power_scale * np.dot(x[None], w.reshape(k, -1)).reshape(t, n)
    h = rng.standard_normal((2, n, cfg.receive_antennas))
    noise = rng.standard_normal((2, t, cfg.receive_antennas))
    h = np.sqrt(0.5) * (h[0] + 1j * h[1])
    noise = np.sqrt(0.5) * (noise[0] + 1j * noise[1])
    snr = float(10.0 ** (cfg.snr_grid_db[snr_index] / 10.0))
    received = np.sqrt(snr) * (codeword @ h) + noise
    y = np.concatenate([received.real.ravel(order="F"), received.imag.ravel(order="F")])
    prods = design.power_scale * (w @ h)  # (K, T, N_r)
    g = np.empty((2,) + prods.shape[::-1])
    g[0], g[1] = prods.real.T, prods.imag.T
    return bits, x, y, g.reshape(-1, k)
