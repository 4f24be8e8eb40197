import itertools
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stbclab import rotations
from stbclab.rotations import (
    SUPPORTED_DIMENSIONS, RotationMatrix, build_rotation, certify_rotation,
)
from tests.oracles import unit_norm_vectors_oracle


def brute_force_delta(q, bound):
    """Independent oracle for the certificate: plain nested-loop scan."""
    dim = q.shape[0]
    delta = np.inf
    for a in itertools.product(range(-bound, bound + 1), repeat=dim):
        if not any(a):
            continue
        delta = min(delta, np.abs(q @ np.array(a, dtype=float)).min())
    return delta


def exact_magnitude(row, a):
    """|row . a| in exact rational arithmetic, rounded once."""
    return float(abs(sum(Fraction(float(x)) * int(v) for x, v in zip(row, a))))


def both_signs_delta(q, bound, slack=1e-12):
    """A float scan over every first coordinate, negative ones too, whose
    near-minimizers are re-evaluated exactly.

    Every (vector, row) whose float magnitude lies within `slack` of the
    float minimum is summed in Fractions; the float sums err by far less
    than slack / 2, so the exact minimizer is among them.
    """
    dim = q.shape[0]
    vals = np.arange(-bound, bound + 1)
    grids = np.meshgrid(*([vals] * (dim - 1)), indexing="ij")
    rest = (np.stack([g.ravel() for g in grids], axis=1) if grids
            else np.zeros((1, 0), dtype=vals.dtype))
    rest_coords = rest.astype(float) @ q[:, 1:].T

    def chunks():
        for v0 in vals:
            mags = np.abs(rest_coords + v0 * q[:, 0])
            if v0 == 0:
                mags[~np.any(rest, axis=1)] = np.inf
            yield v0, mags

    floor = min(float(mags.min()) for _, mags in chunks())
    return min(exact_magnitude(q[i], (v0, *rest[j]))
               for v0, mags in chunks()
               for j, i in np.argwhere(mags <= floor + slack))


def random_matrix(rng, dim, kind):
    if kind == "orthogonal":
        return np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    q = rng.integers(-3, 4, (dim, dim)) / 4.0
    if kind == "near-ties":
        q += rng.integers(-2, 3, (dim, dim)) * 2.0 ** -52
    return q


def fraction_minima(q, bound):
    """Brute force in exact arithmetic: each row's least |row . a| over every
    nonzero a of [-B, B]^dim, rounded once."""
    dim = q.shape[0]
    exact = [[Fraction(float(x)) for x in row] for row in q]
    scale = max(x.denominator for row in exact for x in row)  # a power of two
    num = np.array([[int(x * scale) for x in row] for row in exact], dtype=object)
    box = np.array(list(itertools.product(range(-bound, bound + 1), repeat=dim)),
                   dtype=object)
    box = box[np.any(box != 0, axis=1)]
    return [float(Fraction(int(m), scale)) for m in np.abs(box @ num.T).min(axis=0)]


def fraction_delta(q, bound):
    return min(fraction_minima(q, bound))


class TestBuildRotation:
    def test_scalar(self):
        r = build_rotation(1)
        assert np.array_equal(r.entries, [[1.0]])
        assert r.delta_min == 1.0

    @pytest.mark.parametrize("dim", SUPPORTED_DIMENSIONS)
    def test_invariants(self, dim):
        r = build_rotation(dim)
        q = r.entries
        assert np.abs(q @ q.T - np.eye(dim)).max() <= 1e-10
        assert abs(abs(np.linalg.det(q)) - 1.0) <= 1e-10
        assert r.certified_bound >= 3
        assert r.delta_min > 1e-9
        assert r.is_certified

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError, match="supported"):
            build_rotation(7)

    @pytest.mark.parametrize("dim", [14, 15, 16])
    def test_a_dimension_past_11_is_rejected_at_once(self, dim):
        # each has a field, but dim 14's certificate fails after seconds and
        # 15's and 16's box would need about 0.7 GB
        start = time.perf_counter()
        with pytest.raises(ValueError, match="supported"):
            build_rotation(dim)
        assert time.perf_counter() - start < 1.0

    def test_deterministic(self):
        a = build_rotation(3)
        b = build_rotation(3)
        assert np.array_equal(a.entries, b.entries)
        assert a.delta_min == b.delta_min


def trace_form(dim):
    """(twist, scale, powers, integer Gram) of build_rotation's trace form."""
    theta = rotations._field_conjugates(dim)
    twist = 2.0 - theta
    scale = 1.0 / (2 * dim if dim & (dim - 1) == 0 else 2 * dim + 1)
    powers = np.vander(theta, dim, increasing=True)
    gram = np.rint(scale * (powers.T * twist) @ powers).astype(np.int64)
    return twist, scale, powers, gram


class TestIntegralBasis:
    """The recurrence's basis is the one the norm-one enumeration finds."""

    DIMS = sorted({d for d in SUPPORTED_DIMENSIONS if d >= 2} | {9, 11})

    @pytest.mark.parametrize("dim", DIMS)
    def test_recurrence_matches_the_enumeration(self, dim):
        *_, gram = trace_form(dim)
        basis = rotations._integral_basis(dim)
        assert basis.dtype == np.int64 and basis.shape == (dim, dim)
        oracle = sorted(unit_norm_vectors_oracle(gram), key=tuple)
        assert np.array_equal(sorted(basis, key=tuple), oracle)

    @pytest.mark.parametrize("dim", DIMS)
    def test_rotation_is_the_one_built_from_the_enumeration(self, dim):
        # bitwise: the sorted oracle basis fixes every entry and column of q
        twist, scale, powers, gram = trace_form(dim)
        change = np.array(sorted(unit_norm_vectors_oracle(gram), key=tuple), dtype=np.int64)
        q = np.sqrt(scale * twist)[:, None] * (powers @ change.T.astype(float))
        assert build_rotation(dim).entries.tobytes() == q.tobytes()


class TestCertifyRotation:
    def test_identity_fails_dim2(self):
        ok, delta = certify_rotation(np.eye(2), 1)
        assert not ok
        assert delta == 0.0

    def test_scalar_passes(self):
        for bound in (1, 3, 5):
            ok, delta = certify_rotation(np.eye(1), bound)
            assert ok and delta == 1.0

    def test_built_rotation_passes_bound3(self):
        ok, delta = certify_rotation(build_rotation(2).entries, 3)
        assert ok and delta > 1e-3

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_brute_force(self, dim):
        q = build_rotation(dim).entries
        _, delta = certify_rotation(q, 2)
        assert np.isclose(delta, brute_force_delta(q, 2), atol=1e-12)

    @pytest.mark.parametrize("dim", SUPPORTED_DIMENSIONS)
    def test_half_scan_matches_both_signs(self, dim):
        # bitwise: the certificate's delta is the exact minimum rounded once
        q = build_rotation(dim).entries
        for bound in (1, 2, 3):
            assert certify_rotation(q, bound)[1] == both_signs_delta(q, bound)

    def test_brute_force_on_identity(self):
        _, delta = certify_rotation(np.eye(3), 2)
        assert delta == brute_force_delta(np.eye(3), 2) == 0.0

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            certify_rotation(np.eye(2), 0)

    @pytest.mark.parametrize("bound", [2.5, 3.0, np.float64(3.0), True, "3", None])
    def test_non_integer_bound_rejected(self, bound):
        for dim in (1, 2):
            with pytest.raises(ValueError, match="integer"):
                certify_rotation(np.eye(dim), bound)

    def test_integer_types_accepted(self):
        assert certify_rotation(build_rotation(2).entries, np.int64(3)) == \
            certify_rotation(build_rotation(2).entries, 3)

    @pytest.mark.parametrize("q", [np.zeros((2, 3)), np.ones(2), np.zeros((1, 1, 1)),
                                   np.zeros((0, 0)), np.array([[1.0, np.nan], [0, 1]])],
                             ids=["2x3", "1-D", "3-D", "empty", "nan"])
    def test_bad_matrix_rejected(self, q):
        with pytest.raises(ValueError, match="q must"):
            certify_rotation(q, 2)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_matches_fraction_brute_force(self, dim):
        q = build_rotation(dim).entries
        for bound in (1, 2, 3):
            assert certify_rotation(q, bound)[1] == fraction_delta(q, bound)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(dim=st.integers(2, 5), bound=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["orthogonal", "small", "near-ties"]))
    def test_random_matrices_match_fraction_brute_force(self, dim, bound, seed, kind):
        # "orthogonal": random rotations; "small": entries k / 4, |k| <= 3,
        # full of exact zeros and ties; "near-ties": those plus j * 2^-52,
        # |j| <= 2, so distinct exact magnitudes lie within rounding error
        if dim == 5 and bound == 3 and kind != "orthogonal":
            bound = 2  # keep the brute force under a second
        q = random_matrix(np.random.default_rng(seed), dim, kind)
        assert certify_rotation(q, bound)[1] == fraction_delta(q, bound)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(dim=st.integers(2, 4), bound=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_exact_whatever_the_float_sums(self, dim, bound, seed):
        # each half's float sums moved anywhere within the error bound of a
        # dot product of that length, as another BLAS might round them
        rng = np.random.default_rng(seed)
        q = random_matrix(rng, dim, "near-ties")
        half = (dim + 1) // 2
        head, tail = rotations._box(half, bound), rotations._box(dim - half, bound)
        least = []
        for row in q:
            sums = []
            for box, part in ((head, row[:half]), (tail, row[half:])):
                err = len(part) * 2.0 ** -53 * bound * np.abs(part).sum()
                sums.append(box @ part + rng.uniform(-err, err, len(box)))
            least.append(rotations._least_magnitude(row, head, tail, *sums, bound))
        assert least == fraction_minima(q, bound)

    def test_zero_head_minimum_behind_misleading_sums(self):
        # the least pair has a zero head: a = (0, 0, -1, 1) gives 2^-62.  Its
        # float tail sum is moved up and that of (0, 0, -2, 2) down to 0,
        # each within the error bound of a 2-term dot product (6 * 2^-62)
        row = np.array([7.0, 11.0, 2.0 ** -10 + 2.0 ** -62, 2.0 ** -10 + 2.0 ** -61])
        head, tail = rotations._box(2, 3), rotations._box(2, 3)
        tail_sums = tail @ row[2:]
        for a, value in (((-1, 1), 5 * 2.0 ** -62), ((-2, 2), 0.0)):
            for sign in (1, -1):
                j = np.flatnonzero((tail == sign * np.array(a)).all(axis=1))[0]
                tail_sums[j] = sign * value
        least = rotations._least_magnitude(row, head, tail, head @ row[:2], tail_sums, 3)
        assert least == 2.0 ** -62

    def test_exact_sums_stay_few(self, monkeypatch):
        # the float-nearest pair of each kind bounds the window, so a row
        # needs a handful of exact sums, even when its least pair has a
        # zero head and every nonzero head lies far from 0
        calls = []
        exact = rotations._exact_magnitude
        monkeypatch.setattr(rotations, "_exact_magnitude",
                            lambda row, a: calls.append(a) or exact(row, a))
        skewed = np.eye(4)
        skewed[0] = 7.0, 11.0, 2.0 ** -10 + 2.0 ** -62, 2.0 ** -10 + 2.0 ** -61
        for q, bound in [(build_rotation(d).entries, b) for d in (2, 4, 8) for b in (3, 7)]:
            calls.clear()
            certify_rotation(q, bound)
            assert len(calls) <= 4 * len(q)
        calls.clear()
        certify_rotation(skewed, 3)
        assert len(calls) <= 4 * len(skewed)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 8])
    def test_exact_zero_coordinates_give_zero(self, dim):
        # identity, a cyclic permutation and a block-diagonal pair of
        # rotations all send some nonzero a to a vector with a zero entry
        perm = np.eye(dim)[np.roll(np.arange(dim), 1)]
        blocks = np.zeros((dim, dim))
        for lo, hi in ((0, dim // 2), (dim // 2, dim)):
            blocks[lo:hi, lo:hi] = build_rotation(hi - lo).entries
        for q in (np.eye(dim), perm, blocks):
            for bound in (1, 3, 7):
                assert certify_rotation(q, bound) == (False, 0.0)

    def test_eight_pam_dim8(self):
        ok, delta = certify_rotation(build_rotation(8).entries, 7)
        assert ok
        assert np.isclose(delta, 3.394038952664e-09, rtol=1e-6, atol=0)

    def test_eight_pam_dim4_matches_fraction_brute_force(self):
        q = build_rotation(4).entries
        assert certify_rotation(q, 7)[1] == fraction_delta(q, 7)


class TestRotationMatrix:
    def test_uncertified_wrapper(self):
        r = RotationMatrix(np.eye(2), 3, 0.0)
        assert not r.is_certified

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            RotationMatrix(np.zeros((2, 3)), 3, 0.0)
