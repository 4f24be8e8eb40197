"""Property tests: the four decoders on the thresholded QR against slow oracles.

pic_decode and picsic_decode search each group on a block of one
thresholded ordered QR, whatever the channel's rank; ml_decode is PIC with
one group, and zf_decode solves the same QR's kept rows.  Over random small
channels and groupings these tests compare them with the oracles of
tests/oracles.py: projector PIC and PIC-SIC, which apply the same rank rule
through Gram-Schmidt, brute-force ML over the raw channel, and skip-rule
least-squares ZF.  Where every column keeps a residual well away from
RANK_EPS, the decisions, per-group counts and evaluations must be
identical, and so must the resolution of ties and zero pivots.  Where
a column's residual is below RANK_EPS, the QR drops it and the oracle
keeps it, so a decision may differ; it must still be an argmin of the
oracle's metric up to RANK_EPS of the metric's scale (assert_oracle_argmin).
ZF's decision there must equal the ZF oracle's, except where the oracle's
estimate sits within rounding of a quantization midpoint
(assert_ml_and_zf_near_their_oracles).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stbclab import decoders
from stbclab.channel import pam_for_qam
from stbclab.constructions import build_code
from stbclab.decoders import DecodeProblem
from stbclab.lindesign import RANK_EPS, Design, GroupingScheme, equivalent_channel
from tests.oracles import (
    metric_gaps, ml_oracle, oracle_decode, zf_estimate, zf_kept_rows_estimate, zf_oracle,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

DECODERS = {"pic": decoders.pic_decode, "picsic": decoders.picsic_decode}
decoder_names = st.sampled_from(sorted(DECODERS))
modes = st.sampled_from(decoders.SEARCH_MODES)


@st.composite
def groupings(draw, max_symbols=7):
    """A random ordered partition of 0..K-1 into groups of 1 to 3 symbols."""
    k = draw(st.integers(2, max_symbols))
    sizes, left = [], k
    while left:
        sizes.append(draw(st.integers(1, min(3, left))))
        left -= sizes[-1]
    perm = draw(st.permutations(range(k)))
    bounds = np.cumsum([0] + sizes)
    return GroupingScheme(tuple(tuple(perm[a:b]) for a, b in zip(bounds, bounds[1:])), k)


@st.composite
def channels(draw, k, overloaded):
    """A (rng, G) pair: G has >= K rows, or < K rows when overloaded.

    G is either i.i.d. Gaussian or the equivalent channel of a random
    linear-dispersion design over a Rayleigh link.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        rows = draw(st.integers(1, k - 1) if overloaded else st.integers(k, k + 4))
        return rng, rng.standard_normal((rows, k))
    delay = draw(st.integers(1, 3))
    need = -(-k // (2 * delay))  # fewest antennas with 2 * T * N >= K, the same for N_r
    antennas = draw(st.integers(need, need + 2))
    if overloaded:
        if need < 2:
            return rng, rng.standard_normal((draw(st.integers(1, k - 1)), k))
        receive = draw(st.integers(1, need - 1))
    else:
        receive = draw(st.integers(need, need + 1))
    weights = (rng.standard_normal((k, delay, antennas))
               + 1j * rng.standard_normal((k, delay, antennas)))
    h = rng.standard_normal((antennas, receive)) + 1j * rng.standard_normal(
        (antennas, receive))
    return rng, equivalent_channel(Design(weights), h)


def make_problem(rng, g, scheme, qam, snr_db):
    alpha = pam_for_qam(qam)
    snr = 10.0 ** (snr_db / 10.0)
    x = alpha.levels[rng.integers(0, alpha.size, g.shape[1])]
    y = np.sqrt(snr) * g @ x + rng.standard_normal(g.shape[0])
    return DecodeProblem(y, g, scheme, alpha, snr)


def run_both(name, problem, mode):
    """(decoder result, oracle result)."""
    return DECODERS[name](problem, mode), oracle_decode(problem, name, mode)


def assert_same(got, ref):
    assert np.array_equal(got.decided, ref.decided)
    assert got.per_group_counts == ref.per_group_counts
    assert got.candidate_evaluations == ref.candidate_evaluations


def assert_oracle_argmin(problem, name, got):
    """Each group's decision is within RANK_EPS of the least oracle metric.

    The metric's scale is ||y_k||^2 + snr ||G_k||_F^2 max|level|^2, with
    y_k cancelled by the decoder's own earlier decisions.
    """
    for gap, scale in metric_gaps(problem, name, got.decided):
        assert gap <= RANK_EPS * scale


def one_group(problem):
    """The problem with all symbols in one group, the grouping ML decodes."""
    k = problem.g.shape[1]
    return dataclasses.replace(problem, scheme=GroupingScheme((tuple(range(k)),), k))


def assert_ml_and_zf_match_their_oracles(problem):
    assert_same(decoders.ml_decode(problem), ml_oracle(problem))
    assert_same(decoders.zf_decode(problem), zf_oracle(problem))


def assert_ml_and_zf_near_their_oracles(problem):
    """ML decides an oracle argmin, and ZF the ZF oracle's levels.

    The one-group projector view is the raw channel, so assert_oracle_argmin
    bounds ML's gap to the brute-force least metric.  The ZF oracle solves
    by least squares what the decoder solves on the QR, so their estimates
    differ by rounding; where the oracle's estimate is within RANK_EPS of a
    midpoint between two levels, relative to the largest estimate entry and
    the level range, either level may be decided.
    """
    got = decoders.ml_decode(problem)
    assert got.per_group_counts == ml_oracle(problem).per_group_counts
    assert_oracle_argmin(one_group(problem), "pic", got)
    got = decoders.zf_decode(problem)
    assert (got.candidate_evaluations, got.per_group_counts) == (0, ())
    estimate = zf_estimate(problem)
    levels = problem.alphabet.levels
    midpoints = (levels[1:] + levels[:-1]) / 2
    tol = RANK_EPS * (np.abs(estimate).max() + np.abs(levels).max())
    for j in np.flatnonzero(got.decided != zf_oracle(problem).decided):
        assert np.abs(midpoints - estimate[j]).min() <= tol


@st.composite
def full_rank_problems(draw):
    scheme = draw(groupings())
    rng, g = draw(channels(scheme.num_symbols, overloaded=False))
    return make_problem(rng, g, scheme, draw(st.sampled_from((4, 16))),
                        draw(st.floats(0.0, 24.0)))


@PROPERTY
@given(full_rank_problems(), decoder_names, modes)
def test_full_rank_takes_triangular_path_and_matches_reference(problem, name, mode):
    got, ref = run_both(name, problem, mode)
    assert_same(got, ref)


@PROPERTY
@given(full_rank_problems())
def test_full_rank_ml_and_zf_match_their_oracles(problem):
    assert_ml_and_zf_match_their_oracles(problem)


@PROPERTY
@given(groupings(), st.data(), decoder_names, modes)
def test_overloaded_link_decides_an_oracle_argmin(scheme, data, name, mode):
    rng, g = data.draw(channels(scheme.num_symbols, overloaded=True))
    assert g.shape[0] < g.shape[1]
    problem = make_problem(rng, g, scheme, 4, 12.0)
    assert_oracle_argmin(problem, name, DECODERS[name](problem, mode))


@PROPERTY
@given(groupings(), st.data())
def test_overloaded_link_ml_and_zf(scheme, data):
    rng, g = data.draw(channels(scheme.num_symbols, overloaded=True))
    problem = make_problem(rng, g, scheme, 4, 12.0)
    assert_ml_and_zf_near_their_oracles(problem)


def with_near_copy(g, rng, residual):
    """G with unit columns and column 1 a copy of column 0 plus `residual` off all others.

    The added direction is orthogonal to every column, so in any column order
    the later of columns 0 and 1 keeps a relative residual within a few
    percent of `residual` off the columns before it.
    """
    g = g / np.linalg.norm(g, axis=0)
    q = np.linalg.qr(np.column_stack([g, rng.standard_normal(g.shape[0])]))[0]
    g[:, 1] = g[:, 0] + residual * q[:, -1]
    return g


@st.composite
def near_copy_problems(draw, residual):
    scheme = draw(groupings())
    k = scheme.num_symbols
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = with_near_copy(rng.standard_normal((draw(st.integers(k + 1, k + 4)), k)),
                       rng, residual)
    return make_problem(rng, g, scheme, 4, draw(st.floats(0.0, 24.0)))


@PROPERTY
@given(near_copy_problems(RANK_EPS / 100), decoder_names, modes)
def test_residual_below_rank_eps_decides_an_oracle_argmin(problem, name, mode):
    assert_oracle_argmin(problem, name, DECODERS[name](problem, mode))


@PROPERTY
@given(near_copy_problems(RANK_EPS / 100))
def test_residual_below_rank_eps_ml_and_zf(problem):
    assert_ml_and_zf_near_their_oracles(problem)


@PROPERTY
@given(near_copy_problems(RANK_EPS * 100))
def test_residual_above_rank_eps_ml_and_zf_match_their_oracles(problem):
    assert_ml_and_zf_match_their_oracles(problem)


@PROPERTY
@given(near_copy_problems(RANK_EPS * 100), decoder_names, modes)
def test_residual_above_rank_eps_keeps_triangular_path(problem, name, mode):
    got, ref = run_both(name, problem, mode)
    assert_same(got, ref)


def mixed_stack(problem):
    """(gs, ys): the problem's channel between an i.i.d. Gaussian one and a
    copy with its first column zeroed, so the frames have different null
    columns."""
    rng = np.random.default_rng(0)
    g = problem.g
    zeroed = g.copy()
    zeroed[:, 0] = 0.0
    gs = np.array([rng.standard_normal(g.shape), g, zeroed])
    return gs, np.array([problem.y, problem.y, rng.standard_normal(len(problem.y))])


def assert_stack_keeps_the_bits(problem):
    """_ordered_qr gives each frame of a mixed stack the (r, z) bits of a
    call on that frame alone, in each order a decoder uses."""
    gs, ys = mixed_stack(problem)
    g = problem.g
    sic, pic = decoders._cancellation_orders(problem.scheme)[:2]
    for order in (sic, pic, np.arange(g.shape[1])):
        r, z = decoders._ordered_qr(gs, ys, order)
        for i in range(len(gs)):
            for a, b in zip((r[i], z[i]), decoders._ordered_qr(gs[i], ys[i], order)):
                assert a.tobytes() == b.tobytes()


@PROPERTY
@given(groupings(), st.data())
def test_overloaded_link_qr_is_the_same_in_a_stack(scheme, data):
    rng, g = data.draw(channels(scheme.num_symbols, overloaded=True))
    assert_stack_keeps_the_bits(make_problem(rng, g, scheme, 4, 12.0))


@PROPERTY
@given(near_copy_problems(RANK_EPS / 100))
def test_residual_below_rank_eps_qr_is_the_same_in_a_stack(problem):
    assert_stack_keeps_the_bits(problem)


class EstimateRecorder:
    """An alphabet that records every vector it quantizes."""

    def __init__(self, alphabet):
        self.alphabet, self.seen = alphabet, []

    def quantize(self, v):
        self.seen.append(v)
        return self.alphabet.quantize(v)


def assert_zf_stack_is_the_kept_rows_solve(problem):
    """zf_decode's one solve over a mixed stack gives every frame the
    estimate and decisions, bit for bit, of its own kept-rows solve."""
    gs, ys = mixed_stack(problem)
    stack = dataclasses.replace(problem, y=ys, g=gs)
    recorder = EstimateRecorder(problem.alphabet)
    got = decoders.zf_decode(dataclasses.replace(stack, alphabet=recorder))
    want = zf_kept_rows_estimate(stack)
    (estimate,) = recorder.seen
    assert estimate.tobytes() == want.tobytes()
    assert got.decided.tobytes() == problem.alphabet.quantize(want).tobytes()


@PROPERTY
@given(full_rank_problems())
def test_full_rank_zf_stack_is_the_kept_rows_solve(problem):
    assert_zf_stack_is_the_kept_rows_solve(problem)


@PROPERTY
@given(groupings(), st.data())
def test_overloaded_link_zf_stack_is_the_kept_rows_solve(scheme, data):
    rng, g = data.draw(channels(scheme.num_symbols, overloaded=True))
    assert_zf_stack_is_the_kept_rows_solve(make_problem(rng, g, scheme, 4, 12.0))


@PROPERTY
@given(near_copy_problems(RANK_EPS / 100))
def test_residual_below_rank_eps_zf_stack_is_the_kept_rows_solve(problem):
    assert_zf_stack_is_the_kept_rows_solve(problem)


@st.composite
def scaled_column_problems(draw, scale):
    """Unit columns but one, scaled by `scale`: small against the largest
    singular value, yet far from the span of the other columns."""
    scheme = draw(groupings())
    k = scheme.num_symbols
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = rng.standard_normal((draw(st.integers(k + 1, k + 4)), k))
    g /= np.linalg.norm(g, axis=0)
    g[:, draw(st.integers(0, k - 1))] *= scale
    return make_problem(rng, g, scheme, 4, draw(st.floats(0.0, 24.0)))


@PROPERTY
@given(scaled_column_problems(RANK_EPS / 300), decoder_names, modes)
def test_column_below_rank_eps_of_the_largest(problem, name, mode):
    # The rank rule measures each column against its own norm, so the small
    # column keeps its row, and both decoders project it off where it
    # interferes, as the oracles do.
    got, ref = run_both(name, problem, mode)
    assert_same(got, ref)


@PROPERTY
@given(scaled_column_problems(RANK_EPS * 300), decoder_names, modes)
def test_column_above_rank_eps_of_the_largest(problem, name, mode):
    got, ref = run_both(name, problem, mode)
    assert_same(got, ref)


def with_duplicate(problem, src, dst):
    """The problem with column dst of G (mod K, moved off src) a copy of column src."""
    k = problem.g.shape[1]
    src, dst = src % k, dst % k
    if src == dst:
        dst = (dst + 1) % k
    g = problem.g.copy()
    g[:, dst] = g[:, src]
    return dataclasses.replace(problem, g=g)


@PROPERTY
@given(full_rank_problems(), st.integers(0, 6), st.integers(0, 6), decoder_names,
       modes)
def test_duplicated_column_decides_an_oracle_argmin(problem, src, dst, name, mode):
    problem = with_duplicate(problem, src, dst)
    assert_oracle_argmin(problem, name, DECODERS[name](problem, mode))


@PROPERTY
@given(full_rank_problems(), st.integers(0, 6), st.integers(0, 6))
def test_duplicated_column_ml_and_zf(problem, src, dst):
    problem = with_duplicate(problem, src, dst)
    assert_ml_and_zf_near_their_oracles(problem)


@PROPERTY
@given(full_rank_problems(), decoder_names, modes)
def test_exact_ties_resolve_alike(problem, name, mode):
    # y = 0: every candidate x ties with -x.  Exhaustive search keeps the
    # earlier of the two, whose first symbol is the negative one.
    problem = dataclasses.replace(problem, y=np.zeros_like(problem.y))
    got, ref = run_both(name, problem, mode)
    assert_same(got, ref)
    if mode == "exhaustive":
        zero_view = problem.scheme.groups if name == "pic" else problem.scheme.groups[:1]
        assert all(got.decided[group[0]] < 0 for group in zero_view)


@PROPERTY
@given(full_rank_problems(), decoder_names, modes)
def test_scaled_copy_decides_alike(problem, name, mode):
    # Scaling G and y by 2**-47 is exact and keeps every relative rank
    # test, and no threshold is absolute, so the decisions and per-group
    # counts are those of the problem itself.
    scale = 2.0 ** -47
    tiny = dataclasses.replace(problem, y=problem.y * scale, g=problem.g * scale)
    assert_same(DECODERS[name](tiny, mode), DECODERS[name](problem, mode))


@PROPERTY
@given(full_rank_problems(), decoder_names)
def test_zero_pivot_column_matches_oracle(problem, name):
    # A zero column is null: it owns no row and its block column is exactly
    # zero.  First in its group it is a zero pivot, and the conditioned
    # search falls back to the exhaustive one.
    g = problem.g.copy()
    g[:, problem.scheme.groups[0][0]] = 0.0
    problem = dataclasses.replace(problem, g=g)
    got, ref = run_both(name, problem, "conditioned")
    assert_same(got, ref)
    exhaustive = DECODERS[name](problem, "exhaustive")
    assert got.per_group_counts[0] == exhaustive.per_group_counts[0]
    assert np.array_equal(got.decided, exhaustive.decided)


@pytest.mark.parametrize("family, group_size", [("sec4", None), ("sec3", 4)])
def test_overloaded_code_pic_counts_match_oracle(family, group_size):
    # sec4(4,3) and sec3(4,lambda=4,3) at N_r = 1 have K = 24 symbols and
    # 16 or 12 real observations, so many pivot columns are null.  The
    # oracle zeroes a null pivot as the QR does, so both conditioned
    # searches fall back to the exhaustive one on the same groups.
    design, scheme, _ = build_code(family, 4, 3, group_size)
    rng = np.random.default_rng(40)
    for _ in range(40):
        h = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
        problem = make_problem(rng, equivalent_channel(design, h / np.sqrt(2)),
                               scheme, 4, 14.0)
        got = decoders.pic_decode(problem, "conditioned")
        assert got.per_group_counts == oracle_decode(
            problem, "pic", "conditioned").per_group_counts
        assert_oracle_argmin(problem, "pic", got)
