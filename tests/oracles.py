"""Projector oracles for the PIC and PIC-SIC decoders.

The decoders search each group on a block of one thresholded ordered QR.
These oracles decode the slow way instead: project the received vector and
the group's columns off an orthonormal basis of the interfering columns,
then search the group on the projected 2*N_r*T-row channel.  The basis is
built by reorthogonalized Gram-Schmidt with the decoders' rank rule: a
column whose residual off the kept columns before it is at most RANK_EPS
times its norm is skipped.  The interfering columns are taken in the
decoders' cancellation order: for PIC the other groups' columns ascending,
for PIC-SIC the later groups in reverse decode order.
"""

import itertools

import numpy as np

from stbclab.decoders import DecodeResult, group_joint_decode
from stbclab.lindesign import RANK_EPS, RealSymbolVector


def skip_rule_basis(g, columns):
    """Orthonormal basis of the span of g's `columns`, swept in that order.

    A column numerically inside the running span (relative residual at most
    RANK_EPS) is skipped, so the basis may have fewer columns than asked.
    """
    u = np.zeros((g.shape[0], 0))
    for j in columns:
        c = g[:, j]
        v = c - u @ (u.T @ c)
        v -= u @ (u.T @ v)
        norm_v = np.sqrt(v @ v)
        norm_c = np.sqrt(c @ c)
        if norm_c > 0 and norm_v > RANK_EPS * norm_c:
            u = np.concatenate([u, (v / norm_v)[:, None]], axis=1)
    return u


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
    columns projected off its interferers.  PIC-SIC reads decided[group]
    after each view is consumed, so a caller may fill it as it goes.
    """
    scheme, g = problem.scheme, problem.g
    y_k = problem.y.copy()
    for k, group in enumerate(scheme.groups):
        group = list(group)
        u = skip_rule_basis(g, interferers(scheme, name, k))
        gk = g[:, group]
        yield group, y_k, y_k - u @ (u.T @ y_k), gk - u @ (u.T @ gk)
        if name == "picsic":
            y_k = y_k - np.sqrt(problem.snr) * (gk @ decided[group])


def oracle_decode(problem, name, mode="exhaustive"):
    """PIC (name "pic") or PIC-SIC ("picsic") through the projector views."""
    decided = np.zeros(problem.g.shape[1])
    counts = []
    for group, _, py, pg in group_views(problem, name, decided):
        levels, _, used = group_joint_decode(
            py, pg, tuple(problem.alphabets[j] for j in group), problem.snr, mode)
        decided[group] = levels
        counts.append(used)
    return DecodeResult(
        RealSymbolVector(decided, alphabets=tuple(problem.alphabets)),
        int(sum(counts)), tuple(counts),
    )


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
        alphabets = [problem.alphabets[j] for j in group]
        cands = np.array(list(itertools.product(*(a.levels for a in alphabets))))
        resid = py[:, None] - np.sqrt(problem.snr) * (pg @ cands.T)
        metrics = np.einsum("ij,ij->j", resid, resid)
        x = decided[group]
        mine = py - np.sqrt(problem.snr) * (pg @ x)
        top = max(np.abs(a.levels).max() for a in alphabets)
        scale = (y_k @ y_k + problem.snr * np.sum(problem.g[:, group] ** 2) * top ** 2)
        out.append((float(mine @ mine - metrics.min()), float(scale)))
    return out
