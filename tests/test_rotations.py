import itertools

import numpy as np
import pytest

from stbclab.rotations import (
    SUPPORTED_DIMENSIONS, RotationMatrix, build_rotation, certify_rotation,
)


def brute_force_delta(q, bound):
    """Independent oracle for the certificate: plain nested-loop scan."""
    dim = q.shape[0]
    delta = np.inf
    for a in itertools.product(range(-bound, bound + 1), repeat=dim):
        if not any(a):
            continue
        delta = min(delta, np.abs(q @ np.array(a, dtype=float)).min())
    return delta


def both_signs_delta(q, bound):
    """The certificate's scan over every first coordinate, negative ones too."""
    dim = q.shape[0]
    vals = np.arange(-bound, bound + 1)
    grids = np.meshgrid(*([vals] * (dim - 1)), indexing="ij")
    rest = (np.stack([g.ravel() for g in grids], axis=1) if grids
            else np.zeros((1, 0), dtype=vals.dtype))
    rest_coords = rest.astype(float) @ q[:, 1:].T
    delta = np.inf
    for v0 in vals:
        mags = np.abs(rest_coords + v0 * q[:, 0])
        if v0 == 0:
            mags[~np.any(rest, axis=1)] = np.inf
        delta = min(delta, float(mags.min()))
    return delta


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

    def test_deterministic(self):
        a = build_rotation(3)
        b = build_rotation(3)
        assert np.array_equal(a.entries, b.entries)
        assert a.delta_min == b.delta_min


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
        q = build_rotation(dim).entries
        for bound in (1, 2, 3):
            assert certify_rotation(q, bound)[1] == both_signs_delta(q, bound)

    def test_brute_force_on_identity(self):
        _, delta = certify_rotation(np.eye(3), 2)
        assert delta == brute_force_delta(np.eye(3), 2) == 0.0

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            certify_rotation(np.eye(2), 0)


class TestRotationMatrix:
    def test_json_export(self):
        r = build_rotation(2)
        doc = r.to_json()
        assert doc["lambda"] == 2 and doc["B"] == r.certified_bound
        assert np.allclose(doc["entries"], r.entries)
        assert doc["delta_min"] == r.delta_min

    def test_uncertified_wrapper(self):
        r = RotationMatrix(np.eye(2), "manual", 3, 0.0)
        assert not r.is_certified

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            RotationMatrix(np.zeros((2, 3)), "manual", 3, 0.0)
