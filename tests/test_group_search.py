"""Property tests: every group search evaluates one exact metric.

group_joint_decode scores a candidate x of a group by the Gram metric
features(x) @ w, with w = _gram_weights rounded so that every partial sum
is exact.  The exhaustive search evaluates it for every candidate, in one
matvec of a cached feature table or, when that table would pass
GRAM_MAX_TABLE doubles, split into a head and a tail table.  The
conditioned search evaluates it for each candidate of the non-pivot
symbols with the pivot level that minimizes it, in Python floats when it
makes at most FLOAT_MAX_EVALS evaluations and in NumPy otherwise.  These
tests check that every layout and mode gives a candidate the same metric
bit for bit, that the conditioned search's pivot level is the least one
(the lower level at an exact midpoint), and that every form (Python
floats, one table, split tables) and mode returns the same indices, ties
included, as a fresh array with the same evaluation counts (the indices
below the table ceiling are a row of a cached table, each row's digits in
base L), and that the weights of every
group in a stack are bit for bit its single call's and the fixed-order
definition's (gram_weights_oracle).  The inputs cover full-rank,
triangular, rank-1 and short (rows < n) group channels, exact ties at
y = 0, zero pivot columns and scaled copies, on groups of 2 to 4096
candidates.
"""

import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stbclab import decoders
from stbclab.channel import PamAlphabet, pam_for_qam
from stbclab.decoders import _gram_weights, group_joint_decode
from tests.oracles import gram_weights_oracle, group_metrics

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


# The forms of a search: every conditioned search in Python floats, or
# every search in NumPy on one table, or on tables split at a ceiling of 0
# doubles, so that every search with symbols splits.
FORMS = {"float": {"FLOAT_MAX_EVALS": decoders.ML_CAP},
         "table": {"FLOAT_MAX_EVALS": 0},
         "split": {"FLOAT_MAX_EVALS": 0, "GRAM_MAX_TABLE": 0}}


def form(name):
    """Patch the decoders to search in the named form of FORMS."""
    return mock.patch.multiple(decoders, **FORMS[name])


def assert_forms_and_modes_agree(py, pg, alphabet, snr):
    """Both modes in every form, keyed by (mode, form): the same decision."""
    results = {}
    for name in FORMS:
        with form(name):
            for mode in decoders.SEARCH_MODES:
                results[mode, name] = group_joint_decode(
                    _gram_weights(py, pg, alphabet, snr), pg, alphabet, mode)
    for levels, idx, _ in results.values():  # fresh indices, from a table or not
        assert idx.flags.writeable and idx.base is None
        assert np.array_equal(levels, alphabet.levels[idx])
    (levels, idx, _), *others = results.values()
    for other_levels, other_idx, _ in others:
        assert np.array_equal(other_idx, idx)
        assert np.array_equal(other_levels, levels)
    for mode in decoders.SEARCH_MODES:
        assert len({results[mode, name][2] for name in FORMS}) == 1
    return results


def both_layouts(w, alphabet, n):
    """(exhaustive metrics, conditioned (pivot indices, metrics)) in each NumPy layout."""
    out = []
    for name in ("table", "split"):
        with form(name):
            out.append((decoders._metrics(w, alphabet, n),
                        decoders._conditioned_metrics(w, alphabet, n)))
    return out


def assert_pivot_is_least(w, alphabet, n):
    """Each conditioned metric is the least over the pivot of the exhaustive ones.

    The pivot index must be the first of the least: the lower level at an
    exact midpoint.  Both layouts must give the same numbers, bit for bit.
    """
    (one, (piv, cond)), (split, (piv_s, cond_s)) = both_layouts(w, alphabet, n)
    assert np.array_equal(one, split)
    assert np.array_equal(piv, piv_s) and np.array_equal(cond, cond_s)
    by_pivot = one.reshape(alphabet.size, -1)
    assert np.array_equal(cond, by_pivot.min(axis=0))
    assert np.array_equal(piv, by_pivot.argmin(axis=0))


@PROPERTY
@given(group_inputs())
def test_forms_and_modes_agree(args):
    results = assert_forms_and_modes_agree(*args)
    _, pg, alphabet, _ = args
    total = alphabet.size ** pg.shape[1]
    assert results["exhaustive", "table"][2] == total
    assert results["conditioned", "table"][2] == total // alphabet.size


@PROPERTY
@given(group_inputs())
def test_exact_ties_go_to_the_lexicographic_first(args):
    # At y = 0 every x ties with -x; the first of the two has a negative
    # first symbol whenever x's first symbol is not 0.
    py, pg, alphabet, snr = args
    results = assert_forms_and_modes_agree(np.zeros_like(py), pg, alphabet, snr)
    assert results["exhaustive", "table"][0][0] < 0


@st.composite
def weight_stacks(draw):
    """(py, pg, alphabet, snr) of a stack of groups with leading axes (), (3,) or (2, 3).

    Each group has 1 to 16 rows and symbols, past the 8 terms at which
    NumPy sums pairwise, and its own scale; some have a zero row (py's
    entry too) or a zero column, square ones may be triangular, and the
    arrays are in C order, in Fortran order or strided views.
    """
    alphabet = pam_for_qam(draw(st.sampled_from((4, 16, 64))))
    rows, n = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    lead = draw(st.sampled_from(((), (3,), (2, 3))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pg = rng.standard_normal(lead + (rows, n)) * 10.0 ** rng.uniform(-3, 3, lead + (1, 1))
    py = rng.standard_normal(lead + (rows,))
    if draw(st.booleans()):
        r = rng.integers(rows)
        pg[..., r, :], py[..., r] = 0.0, 0.0
    if draw(st.booleans()):
        pg[..., rng.integers(n)] = 0.0
    if rows == n and draw(st.booleans()):
        pg = np.triu(pg)
    layout = draw(st.sampled_from(("C", "F", "strided")))
    if layout == "F":
        py, pg = np.asfortranarray(py), np.asfortranarray(pg)
    elif layout == "strided":
        py, pg = np.repeat(py, 2, axis=-1)[..., ::2], np.repeat(pg, 2, axis=-1)[..., ::2]
    snr = draw(st.one_of(st.just(0.0), st.floats(-10.0, 40.0).map(lambda db: 10 ** (db / 10))))
    return py, pg, alphabet, snr


@PROPERTY
@given(weight_stacks())
def test_weights_are_the_oracle_in_any_stack(args):
    # Each group's weights in a stack are bit for bit its weights alone and
    # the fixed-order definition in Python floats, whatever the layout.
    py, pg, alphabet, snr = args
    w = _gram_weights(py, pg, alphabet, snr)
    n = pg.shape[-1]
    assert w.shape == pg.shape[:-2] + (n * (n + 3) // 2,)
    for idx in np.ndindex(pg.shape[:-2]):
        one = _gram_weights(py[idx], pg[idx], alphabet, snr)
        oracle = gram_weights_oracle(py[idx], pg[idx], alphabet, snr)
        assert w[idx].tobytes() == one.tobytes() == oracle.tobytes()


@PROPERTY
@given(group_inputs())
def test_conditioned_metrics_are_the_exhaustive_minima(args):
    py, pg, alphabet, snr = args
    assert_pivot_is_least(decoders._gram_weights(py, pg, alphabet, snr),
                          alphabet, pg.shape[1])


ALPHABETS = {"4-QAM": pam_for_qam(4), "16-QAM": pam_for_qam(16),
             "64-QAM": pam_for_qam(64), "256-QAM": pam_for_qam(256),
             "3-PAM": pam(3), "5-PAM": pam(5)}


@PROPERTY
@given(st.sampled_from(sorted(ALPHABETS)), st.integers(1, 4), st.integers(0, 2 ** 32 - 1),
       st.sampled_from((0, 1, 2, 3)))
def test_pivot_rule_on_exact_midpoints(name, n, seed, w00):
    # Integer weights are exact on any grid.  With an even pivot-linear
    # weight and even cross weights, c is even, so -c / (2 w00) often
    # lands on a midpoint of the levels in units, where the two nearest
    # levels tie exactly.  w00 = 0 leaves the pivot term c u alone.
    alphabet = ALPHABETS[name]
    rng = np.random.default_rng(seed)
    w = rng.integers(-6, 7, n * (n + 3) // 2).astype(float)
    w[0] = 2 * rng.integers(-alphabet.size, alphabet.size + 1)
    w[n] = float(w00)
    w[n + 1:2 * n] = 2 * rng.integers(-2, 3, n - 1)
    assert_pivot_is_least(w, alphabet, n)


def test_pivot_midpoints_of_every_qam_alphabet():
    # One symbol, w = (-2 w00 m, w00): the pivot's least-squares level is
    # the midpoint m in units, where both neighbours tie; the lower wins.
    for qam in (4, 16, 64, 256):
        alphabet = pam_for_qam(qam)
        _, mid = decoders._units(alphabet)
        for k, m in enumerate(mid):
            for w00 in (1.0, 3.0, 2.0 ** -40):
                piv, metrics = decoders._conditioned_metrics(
                    np.array([-2 * w00 * m, w00]), alphabet, 1)
                assert piv[0] == k
            assert_pivot_is_least(np.array([-2 * m, 1.0]), alphabet, 1)


def test_one_symbol_16qam_at_zero_observation_decides_the_lower_middle_level():
    # 0 is the middle midpoint of 16-QAM; both levels beside it tie.
    alphabet = pam_for_qam(16)
    for mode in decoders.SEARCH_MODES:
        pg = [[1.0], [0.5]]
        levels, idx, _ = group_joint_decode(_gram_weights(np.zeros(2), pg, alphabet, 1.0),
                                            pg, alphabet, mode)
        assert idx[0] == 1 and levels[0] == alphabet.levels[1]


def test_zero_pivot_weight_decides_without_a_warning():
    # A kept pivot column 2**-30 of the other's norm: its weight w00 rounds
    # to 0 on the grid, and the pivot term is c u.  At py = 0, c = 0 and
    # every level ties, so the lowest wins; py along the pivot makes c < 0
    # and the highest level wins.
    alphabet = pam_for_qam(4)
    pg = np.diag([2.0 ** -30, 1.0])
    for py, first in ((np.zeros(2), 0), (np.array([2.0 ** 20, 0.0]), 1)):
        w = decoders._gram_weights(py, pg, alphabet, 1.0)
        assert w[2] == 0.0 and w[0] <= 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = assert_forms_and_modes_agree(py, pg, alphabet, 1.0)
        assert results["conditioned", "table"][1][0] == first
        assert results["conditioned", "table"][2] == 2
        assert_pivot_is_least(w, alphabet, 2)


@PROPERTY
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(((3, 3), (3, 4), (3, 5), (5, 3), (5, 4), (2, 4))))
def test_metrics_do_not_depend_on_the_rows_searched(seed, size_and_symbols):
    # Alphabets of 2, 3 or 5 levels give tables of 16 to 625 rows, the odd
    # sizes 27, 81, 125, 243 and 625 among them, and conditioned searches of
    # 8 to 125.  A BLAS product may round a row differently by the row
    # count, by the row's place in the array, or by the layout.
    # Row r and row N-1-r of a table are x and -x, so at y = 0 the metrics
    # must read the same backwards in both layouts, and all searches must
    # keep the same one of x and -x.  Any 1 to 16 rows of the table must
    # get the metrics they get among all rows.
    size, n = size_and_symbols
    alphabet = pam(size)
    rng = np.random.default_rng(seed)
    pg, py = rng.standard_normal((n + 2, n)), np.zeros(n + 2)
    w = decoders._gram_weights(py, pg, alphabet, 1.0)
    (one, _), (split, _) = both_layouts(w, alphabet, n)
    assert np.array_equal(one, one[::-1]) and np.array_equal(split, one)
    features = decoders._gram_table(alphabet, n)
    for count in range(1, 17):
        rows = rng.choice(len(features), size=count)
        assert np.array_equal(features[rows] @ w, one[rows])
    results = assert_forms_and_modes_agree(py, pg, alphabet, 1.0)
    if size % 2 == 0:  # no zero level, so x = -x is impossible
        assert results["exhaustive", "table"][0][0] < 0


@PROPERTY
@given(group_inputs())
def test_degenerate_pivot_falls_back_in_both_forms(args):
    # An exactly zero pivot column, which _ordered_qr gives every null
    # column, sends the conditioned search to the exhaustive one in every
    # form.
    py, pg, alphabet, snr = args
    pg = pg.copy()
    pg[:, 0] = 0.0
    results = assert_forms_and_modes_agree(py, pg, alphabet, snr)
    total = alphabet.size ** pg.shape[1]
    assert all(used == total for _, _, used in results.values())


@PROPERTY
@given(group_inputs())
def test_searches_are_scale_invariant(args):
    # Scaling py and pg by 2**-47 is exact and scales every weight by
    # 2**-94, so each mode decides alike with the same count: no absolute
    # threshold sends a small pivot column to the exhaustive search.
    py, pg, alphabet, snr = args
    for mode in decoders.SEARCH_MODES:
        _, idx, used = group_joint_decode(_gram_weights(py, pg, alphabet, snr), pg, alphabet,
                                          mode)
        tiny_py, tiny_pg = py * 2.0 ** -47, pg * 2.0 ** -47
        _, tiny_idx, tiny_used = group_joint_decode(
            _gram_weights(tiny_py, tiny_pg, alphabet, snr), tiny_pg, alphabet, mode)
        assert np.array_equal(tiny_idx, idx) and tiny_used == used


@PROPERTY
@given(group_inputs(), st.data())
def test_gram_metrics_are_exact(args, data):
    # Each metric equals the exact rational sum of its row times the weights,
    # so it is the same number in any subset of rows and in any BLAS order.
    py, pg, alphabet, snr = args
    features = decoders._gram_table(alphabet, pg.shape[1])
    w = decoders._gram_weights(py, pg, alphabet, snr)
    metrics = features @ w
    rows = np.array(data.draw(st.lists(st.integers(0, len(features) - 1),
                                       min_size=1, max_size=13)))
    assert np.array_equal(features[rows] @ w, metrics[rows])
    for r in rows:
        exact = sum(Fraction(f) * Fraction(wk) for f, wk in zip(features[r], w))
        assert Fraction(metrics[r]) == exact


@PROPERTY
@given(group_inputs())
def test_searches_decide_an_oracle_argmin(args):
    # The brute-force residual metric of the decided candidate is the least
    # up to the rounding of the weights, far below the metrics' scale.
    py, pg, alphabet, snr = args
    _, metrics = group_metrics(py, pg, alphabet, snr)
    scale = py @ py + snr * np.sum(pg ** 2) * np.max(np.abs(alphabet.levels)) ** 2
    for mode in decoders.SEARCH_MODES:
        _, idx, _ = group_joint_decode(_gram_weights(py, pg, alphabet, snr), pg, alphabet,
                                       mode)
        row = np.ravel_multi_index(tuple(idx), (alphabet.size,) * pg.shape[1])
        assert metrics[row] - metrics.min() <= 1e-10 * scale


def searches_run(py, pg, alphabet, snr, mode):
    """(tables read, NumPy and Python-float conditioned searches) of one group_joint_decode.

    A first call fills the caches, so that only the tables the search
    itself reads are counted: a Python-float search takes its rows from a
    cached plan and reads none.
    """
    group_joint_decode(_gram_weights(py, pg, alphabet, snr), pg, alphabet, mode)
    with mock.patch.object(decoders, "_gram_table", wraps=decoders._gram_table) as tables, \
            mock.patch.object(decoders, "_conditioned_metrics",
                              wraps=decoders._conditioned_metrics) as conditioned, \
            mock.patch.object(decoders, "_float_search",
                              wraps=decoders._float_search) as floats:
        group_joint_decode(_gram_weights(py, pg, alphabet, snr), pg, alphabet, mode)
    return (sorted(call.args[1] for call in tables.call_args_list), conditioned.call_count,
            floats.call_count)


@PROPERTY
@given(group_inputs(), st.booleans(), st.sampled_from((0, decoders.FLOAT_MAX_EVALS, 4096)))
def test_mode_and_table_size_choose_the_form(args, zero_pivot, ceiling):
    # The mode chooses the search: the exhaustive one reads the n-symbol
    # table, and the conditioned one, on a nonzero pivot column, makes
    # L**(n-1) evaluations; on a zero pivot column it falls back to the
    # exhaustive search.  That evaluation count chooses the conditioned
    # search's form: at most FLOAT_MAX_EVALS run in Python floats, more in
    # NumPy on the (n-1)-symbol table (for the rest's metrics and the
    # pivot's c).  The table size chooses only the layout.
    py, pg, alphabet, snr = args
    n = pg.shape[1]
    if zero_pivot:
        pg = pg.copy()
        pg[:, 0] = 0.0
    with mock.patch.object(decoders, "FLOAT_MAX_EVALS", ceiling):
        assert searches_run(py, pg, alphabet, snr, "exhaustive") == ([n], 0, 0)
        if zero_pivot:
            expected = ([n], 0, 0)
        elif alphabet.size ** (n - 1) <= ceiling:
            expected = ([], 0, 1)
        else:
            expected = ([n - 1], 1, 0)
        assert searches_run(py, pg, alphabet, snr, "conditioned") == expected


def test_table_ceiling_sends_exhaustive_search_to_split_layout():
    # 1024 candidates of 5 symbols: a 20-column table of 20480 doubles.
    # One double below it, the search reads the 2- and 3-symbol tables.
    alphabet = pam_for_qam(16)
    rng = np.random.default_rng(7)
    pg, py = rng.standard_normal((7, 5)), rng.standard_normal(7)
    w = decoders._gram_weights(py, pg, alphabet, 4.0)
    with mock.patch.object(decoders, "GRAM_MAX_TABLE", 1024 * 20 - 1):
        assert searches_run(py, pg, alphabet, 4.0, "exhaustive") == ([2, 3], 0, 0)
        split = group_joint_decode(_gram_weights(py, pg, alphabet, 4.0), pg, alphabet)
        split_metrics = decoders._metrics(w, alphabet, 5)
    assert searches_run(py, pg, alphabet, 4.0, "exhaustive") == ([5], 0, 0)
    one = group_joint_decode(_gram_weights(py, pg, alphabet, 4.0), pg, alphabet)
    assert np.array_equal(one[1], split[1]) and one[2] == split[2] == 1024
    assert np.array_equal(decoders._metrics(w, alphabet, 5), split_metrics)
    # Below the ceiling a search reads its row's levels and indices from a
    # cached table: row r's indices are r's digits in base L.
    for qam in (4, 16, 64):
        alphabet = pam_for_qam(qam)
        size = alphabet.size
        for n in range(1, 5):
            levels, idx = decoders._candidates(alphabet, n)
            digits = np.arange(size ** n)[:, None] // size ** np.arange(n - 1, -1, -1) % size
            assert np.array_equal(idx, digits)
            assert np.array_equal(levels, alphabet.levels[digits])


def test_large_ml_search_builds_no_large_table():
    # 4**10 candidates of 10 symbols, within the ML cap: one table would
    # hold 68 M doubles, so the search reads the two 1024-row half tables.
    alphabet = pam_for_qam(16)
    assert alphabet.size ** 10 <= decoders.ML_CAP
    rng = np.random.default_rng(8)
    pg = rng.standard_normal((12, 10))
    truth = rng.integers(alphabet.size, size=10)
    py = 10.0 * pg @ alphabet.levels[truth]
    assert searches_run(py, pg, alphabet, 100.0, "exhaustive") == ([5, 5], 0, 0)
    levels, idx, used = group_joint_decode(_gram_weights(py, pg, alphabet, 100.0), pg, alphabet)
    assert np.array_equal(idx, truth) and used == 4 ** 10


def test_split_layout_decides_the_oracle_argmin():
    # 16-QAM, 8 symbols: 65536 candidates, a table past the ceiling.
    alphabet = pam_for_qam(16)
    rng = np.random.default_rng(9)
    for _ in range(3):
        pg = rng.standard_normal((10, 8))
        py = 2.0 * pg @ alphabet.levels[rng.integers(4, size=8)] + rng.standard_normal(10)
        assert searches_run(py, pg, alphabet, 4.0, "exhaustive") == ([4, 4], 0, 0)
        _, metrics = group_metrics(py, pg, alphabet, 4.0)
        _, idx, used = group_joint_decode(_gram_weights(py, pg, alphabet, 4.0), pg, alphabet)
        assert np.ravel_multi_index(tuple(idx), (4,) * 8) == metrics.argmin()
        assert used == 65536


def test_gram_form_rejects_unequally_spaced_levels():
    # The integer feature table assumes zero-mean, equally spaced levels.
    uneven = PamAlphabet(np.array([-1.0, -0.2, 0.2, 1.0]), bit_width=2)
    for mode in decoders.SEARCH_MODES:
        with pytest.raises(ValueError, match="equally spaced"):
            pg = np.eye(6)[:, :5]
            group_joint_decode(_gram_weights(np.zeros(6), pg, uneven, 1.0), pg, uneven, mode)
