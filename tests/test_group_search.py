"""Property tests: the group search's metric forms make the same decisions.

group_joint_decode runs an exhaustive search in Gram form, a matvec of a
cached feature table, unless that table would pass GRAM_MAX_TABLE; the
conditioned search and larger exhaustive ones run in residual form.  Over
random projected groups these tests run the exhaustive search in both
forms, with the form forced, and the conditioned search on the same input,
and check that all three return the same indices and that each form
counts the same evaluations.  The inputs cover full-rank, triangular,
rank-1 and short (rows < n) group channels, exact ties at y = 0 and
degenerate pivot columns, on groups of 2 to 4096 candidates.
"""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stbclab import decoders
from stbclab.channel import PamAlphabet, pam_for_qam
from stbclab.decoders import group_joint_decode

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# (QAM order, symbols) of a group; the candidate count is the PAM size to
# the power of the symbol count, from 4 to 4096.
QAM_GROUPS = ((4, 2), (16, 3), (64, 1), (16, 2), (64, 2), (64, 4), (16, 5), (64, 3),
              (4, 10))


def pam(size):
    """Zero-mean PAM with spacing 2 and any number of levels (QAM's are powers of 2)."""
    return PamAlphabet(np.arange(1.0 - size, size, 2.0), bit_width=size.bit_length())


@st.composite
def group_inputs(draw, qam_sets=QAM_GROUPS):
    """(py, pg, alphabet, snr) of one projected group.

    pg is Gaussian with n to n + 4 rows, upper triangular n x n (the fast
    paths' blocks), rank 1 (a projected group on an overloaded link), or
    short with fewer rows than columns.  py is a noisy observation of a
    random candidate, or zero, where every x ties with -x.
    """
    qam, n = draw(st.sampled_from(qam_sets))
    alphabet = pam_for_qam(qam)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(("full", "triangular", "rank1", "short")))
    if kind == "full":
        pg = rng.standard_normal((draw(st.integers(n, n + 4)), n))
    elif kind == "triangular":
        pg = np.triu(rng.standard_normal((n, n)))
    elif kind == "rank1":
        pg = np.outer(rng.standard_normal(draw(st.integers(1, n + 4))),
                      rng.standard_normal(n))
    else:
        pg = rng.standard_normal((draw(st.integers(1, max(1, n - 1))), n))
    snr = 10.0 ** (draw(st.floats(0.0, 30.0)) / 10.0)
    if draw(st.booleans()):
        py = np.zeros(pg.shape[0])
    else:
        x = alphabet.levels[rng.integers(alphabet.size, size=n)]
        py = np.sqrt(snr) * pg @ x + rng.standard_normal(pg.shape[0])
    return py, pg, alphabet, snr


def search(py, pg, alphabet, snr, mode, gram):
    """group_joint_decode with the exhaustive search's form forced."""
    with mock.patch.object(decoders, "_gram_form", return_value=gram):
        return group_joint_decode(py, pg, alphabet, snr, mode)


def assert_forms_and_modes_agree(py, pg, alphabet, snr):
    """Exhaustive search in both forms and conditioned search, keyed by name."""
    results = {"gram": search(py, pg, alphabet, snr, "exhaustive", True),
               "residual": search(py, pg, alphabet, snr, "exhaustive", False),
               "conditioned": group_joint_decode(py, pg, alphabet, snr, "conditioned")}
    (levels, idx, _), *others = results.values()
    for other_levels, other_idx, _ in others:
        assert np.array_equal(other_idx, idx)
        assert np.array_equal(other_levels, levels)
    assert results["gram"][2] == results["residual"][2]
    return results


@PROPERTY
@given(group_inputs())
def test_forms_and_modes_agree(args):
    results = assert_forms_and_modes_agree(*args)
    _, pg, alphabet, _ = args
    total = alphabet.size ** pg.shape[1]
    assert results["gram"][2] == total
    assert results["conditioned"][2] == total // alphabet.size


@PROPERTY
@given(group_inputs())
def test_exact_ties_go_to_the_lexicographic_first(args):
    # At y = 0 every x ties with -x; the first of the two has a negative
    # first symbol whenever x's first symbol is not 0.
    py, pg, alphabet, snr = args
    results = assert_forms_and_modes_agree(np.zeros_like(py), pg, alphabet, snr)
    assert results["gram"][0][0] < 0


@PROPERTY
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(((3, 3), (3, 4), (3, 5), (5, 3), (5, 4), (2, 4))))
def test_metrics_do_not_depend_on_the_rows_searched(seed, size_and_symbols):
    # Alphabets of 2, 3 or 5 levels give tables of 16 to 625 rows, the odd
    # sizes 27, 81, 125, 243 and 625 among them, and conditioned searches of
    # 8 to 125.  A BLAS product may round a row differently by the row
    # count, or by the row's place in the array.
    # Row r and row N-1-r of a table are x and -x, so at y = 0 the Gram
    # metrics must read the same backwards, the residuals must read the
    # same negated, and all searches must keep the same one of x and -x.
    # Any 1 to 16 rows must get the residuals they get among all rows.
    size, n = size_and_symbols
    alphabet = pam(size)
    rng = np.random.default_rng(seed)
    pg, py = rng.standard_normal((n + 2, n)), np.zeros(n + 2)
    gram = (decoders._gram_table(alphabet, n)[0]
            @ decoders._gram_weights(py, pg, alphabet, 1.0))
    cand = decoders._candidate_columns(alphabet, n)
    resid = decoders._residuals(py, pg, cand, 1.0)
    assert np.array_equal(gram, gram[::-1]) and np.array_equal(resid, -resid[:, ::-1])
    pg_any = rng.standard_normal((rng.integers(1, 17), n))
    py_any = rng.standard_normal(len(pg_any))
    every = decoders._residuals(py_any, pg_any, cand, 2.0)
    for count in range(1, 17):
        rows = rng.choice(cand.shape[1], size=count)
        assert np.array_equal(
            decoders._residuals(py_any, pg_any, cand[:, rows], 2.0), every[:, rows])
    results = assert_forms_and_modes_agree(py, pg, alphabet, 1.0)
    if size % 2 == 0:  # no zero level, so x = -x is impossible
        assert results["gram"][0][0] < 0


@PROPERTY
@given(group_inputs(), st.booleans())
def test_degenerate_pivot_falls_back_in_both_forms(args, zero):
    # A zero pivot column, or one below DEGENERATE_PIVOT in norm (the whole
    # group scaled by 2**-47, which keeps every ratio), sends the
    # conditioned search to the exhaustive one in either form.
    py, pg, alphabet, snr = args
    if zero:
        pg = pg.copy()
        pg[:, 0] = 0.0
    else:
        py, pg = py * 2.0 ** -47, pg * 2.0 ** -47
        assert np.linalg.norm(pg[:, 0]) < decoders.DEGENERATE_PIVOT
    results = assert_forms_and_modes_agree(py, pg, alphabet, snr)
    total = alphabet.size ** pg.shape[1]
    assert all(used == total for _, _, used in results.values())


@PROPERTY
@given(group_inputs(), st.data())
def test_gram_metrics_are_exact(args, data):
    # Each metric equals the exact rational sum of its row times the weights,
    # so it is the same number in any subset of rows and in any BLAS order.
    py, pg, alphabet, snr = args
    features = decoders._gram_table(alphabet, pg.shape[1])[0]
    w = decoders._gram_weights(py, pg, alphabet, snr)
    metrics = features @ w
    rows = np.array(data.draw(st.lists(st.integers(0, len(features) - 1),
                                       min_size=1, max_size=13)))
    assert np.array_equal(features[rows] @ w, metrics[rows])
    for r in rows:
        exact = sum(Fraction(f) * Fraction(wk) for f, wk in zip(features[r], w))
        assert Fraction(metrics[r]) == exact


def searches_run(*args):
    """(Gram, residual, conditioned) call counts of one group_joint_decode."""
    patches = [mock.patch.object(decoders, name, wraps=getattr(decoders, name))
               for name in ("_gram_search", "_residual_search", "_conditioned_search")]
    spies = [p.start() for p in patches]
    try:
        group_joint_decode(*args)
    finally:
        for p in patches:
            p.stop()
    return tuple(spy.call_count for spy in spies)


@PROPERTY
@given(group_inputs(), st.booleans())
def test_mode_and_table_size_choose_the_form(args, zero_pivot):
    # Exhaustive searches here all fit the table ceiling: Gram form.  The
    # conditioned search runs in residual form, and on a zero pivot column
    # falls back to the exhaustive search, in Gram form.
    py, pg, alphabet, snr = args
    if zero_pivot:
        pg = pg.copy()
        pg[:, 0] = 0.0
    assert searches_run(py, pg, alphabet, snr, "exhaustive") == (1, 0, 0)
    assert searches_run(py, pg, alphabet, snr, "conditioned") == (
        (1, 0, 0) if zero_pivot else (0, 0, 1))


def test_table_ceiling_sends_exhaustive_search_to_residual_form():
    # 1024 candidates of 5 symbols: a 20-column table of 20480 doubles
    alphabet = pam_for_qam(16)
    rng = np.random.default_rng(7)
    pg, py = rng.standard_normal((7, 5)), rng.standard_normal(7)
    decoders._gram_form.cache_clear()
    try:
        with mock.patch.object(decoders, "GRAM_MAX_TABLE", 1024 * 20 - 1):
            assert searches_run(py, pg, alphabet, 4.0, "exhaustive") == (0, 1, 0)
            residual = group_joint_decode(py, pg, alphabet, 4.0)
    finally:
        decoders._gram_form.cache_clear()
    assert searches_run(py, pg, alphabet, 4.0, "exhaustive") == (1, 0, 0)
    gram = group_joint_decode(py, pg, alphabet, 4.0)
    assert np.array_equal(gram[1], residual[1]) and gram[2] == residual[2] == 1024


def test_table_ceiling_keeps_large_ml_in_residual_form():
    # 4**10 candidates of 10 symbols: a 65-column table of 68 M doubles
    alphabet = pam_for_qam(16)
    assert alphabet.size ** 10 <= decoders.DEFAULT_ML_CAP
    assert not decoders._gram_form(alphabet, 10)
    assert decoders._gram_form(alphabet, 5)


def test_gram_form_rejects_unequally_spaced_levels():
    # The integer feature table assumes zero-mean, equally spaced levels.
    uneven = PamAlphabet(np.array([-1.0, -0.2, 0.2, 1.0]), bit_width=2)
    assert decoders._gram_form(uneven, 5)
    with pytest.raises(ValueError, match="equally spaced"):
        group_joint_decode(np.zeros(6), np.eye(6)[:, :5], uneven, 1.0)
