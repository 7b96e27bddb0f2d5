"""Unit tests for the DSI voting kernels."""

import numpy as np
import pytest

from repro.core.voting import (
    VotingMethod,
    cast_votes_into,
    vote_bilinear,
    vote_bilinear_into,
    vote_nearest,
    vote_nearest_into,
)

SHAPE = (3, 8, 10)  # (Nz, H, W)


def coords(u_vals, v_vals):
    """Build (N, Nz) coordinate arrays from per-(event, plane) lists."""
    return np.asarray(u_vals, dtype=float), np.asarray(v_vals, dtype=float)


class TestNearestVoting:
    def test_single_vote_lands_on_nearest(self):
        u, v = coords([[2.3, 5.7, 0.0]], [[4.4, 1.5, 0.0]])
        volume = vote_nearest(u, v, SHAPE)
        assert volume[0, 4, 2] == 1
        assert volume[1, 2, 6] == 1  # 1.5 rounds half-up to 2, 5.7 -> 6
        assert volume[2, 0, 0] == 1
        assert volume.sum() == 3

    def test_half_up_rounding_matches_hardware(self):
        # Exact halves round up: u=2.5 -> 3, v=3.5 -> 4 (floor(x + 0.5),
        # the same convention as the accelerator's Nearest Voxel Finder).
        u, v = coords([[2.5, 0, 0]], [[3.5, 0, 0]])
        volume = vote_nearest(u, v, SHAPE)
        assert volume[0, 4, 3] == 1

    def test_out_of_bounds_dropped(self):
        u, v = coords([[-0.6, 9.6, 5.0]], [[4.0, 4.0, 8.2]])
        volume = vote_nearest(u, v, SHAPE)
        assert volume.sum() == 0

    def test_boundary_kept(self):
        # -0.4 rounds to 0 (in), 9.4 rounds to 9 (in, width 10).
        u, v = coords([[-0.4, 9.4, 0.0]], [[0.0, 7.4, 0.0]])
        volume = vote_nearest(u, v, SHAPE)
        assert volume[0, 0, 0] == 1
        assert volume[1, 7, 9] == 1

    def test_nan_coordinates_skipped(self):
        u, v = coords([[np.nan, 2.0, 3.0]], [[1.0, np.nan, 3.0]])
        volume = vote_nearest(u, v, SHAPE)
        assert volume.sum() == 1
        assert volume[2, 3, 3] == 1

    def test_duplicate_votes_accumulate(self):
        u = np.array([[2.0, 2.0, 2.0], [2.0, 2.0, 2.0]])
        v = np.array([[3.0, 3.0, 3.0], [3.0, 3.0, 3.0]])
        volume = vote_nearest(u, v, SHAPE)
        for z in range(3):
            assert volume[z, 3, 2] == 2

    def test_into_variant_returns_count(self):
        flat = np.zeros(np.prod(SHAPE), dtype=np.int64)
        u, v = coords([[1.0, 2.0, -5.0]], [[1.0, 2.0, 1.0]])
        n = vote_nearest_into(flat, u, v, SHAPE)
        assert n == 2
        assert flat.sum() == 2

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            vote_nearest(np.zeros((2, 5)), np.zeros((2, 5)), SHAPE)


class TestBilinearVoting:
    def test_integer_position_votes_single_voxel(self):
        u, v = coords([[4.0, 0.0, 0.0]], [[5.0, 0.0, 0.0]])
        volume = vote_bilinear(u, v, SHAPE)
        assert volume[0, 5, 4] == pytest.approx(1.0)

    def test_quarter_position_weights(self):
        u, v = coords([[2.25, 0, 0]], [[3.0, 0, 0]])
        volume = vote_bilinear(u, v, SHAPE)
        assert volume[0, 3, 2] == pytest.approx(0.75)
        assert volume[0, 3, 3] == pytest.approx(0.25)

    def test_total_weight_is_one_inside(self, rng):
        n = 20
        u = rng.uniform(1.0, 8.0, (n, 3))
        v = rng.uniform(1.0, 6.0, (n, 3))
        volume = vote_bilinear(u, v, SHAPE)
        assert volume.sum() == pytest.approx(n * 3)

    def test_border_point_contributes_partial_weight(self):
        # At u = -0.25 only the two x=0 corners are in bounds (the other
        # planes are pushed far out of bounds so they contribute nothing).
        u, v = coords([[-0.25, -10, -10]], [[3.0, 0, 0]])
        volume = vote_bilinear(u, v, SHAPE)
        assert volume.sum() == pytest.approx(0.75)

    def test_nan_skipped(self):
        u, v = coords([[np.nan, 1.0, 1.0]], [[1.0, 1.0, 1.0]])
        volume = vote_bilinear(u, v, SHAPE)
        assert volume.sum() == pytest.approx(2.0)

    def test_into_counts_points_not_corners(self):
        flat = np.zeros(np.prod(SHAPE))
        u, v = coords([[2.5, 3.5, -9.0]], [[2.5, 3.5, 0.0]])
        n = vote_bilinear_into(flat, u, v, SHAPE)
        assert n == 2  # two in-bounds points (each spread over 4 corners)

    def test_bilinear_spreads_nearest_concentrates(self):
        u, v = coords([[2.5, 0, 0]], [[3.5, 0, 0]])
        bil = vote_bilinear(u, v, SHAPE)
        near = vote_nearest(u, v, SHAPE)
        assert (bil[0] > 0).sum() == 4
        assert (near[0] > 0).sum() == 1


class TestDispatch:
    def test_cast_votes_into_dispatches(self):
        flat_b = np.zeros(np.prod(SHAPE))
        flat_n = np.zeros(np.prod(SHAPE), dtype=np.int64)
        u, v = coords([[2.25, -10, -10]], [[3.0, 0, 0]])
        cast_votes_into(VotingMethod.BILINEAR, flat_b, u, v, SHAPE)
        cast_votes_into(VotingMethod.NEAREST, flat_n, u, v, SHAPE)
        assert 0 < flat_b.max() < 1
        assert flat_n.max() == 1


class TestVoteTermHelpers:
    """The index/term kernels behind the reference voting entry points."""

    def test_nearest_indices_match_into_kernel(self, rng):
        from repro.core.voting import nearest_vote_indices

        u = rng.uniform(-2, 12, size=(40, 3))
        v = rng.uniform(-2, 10, size=(40, 3))
        u[rng.random((40, 3)) < 0.1] = np.nan
        flat = np.zeros(int(np.prod(SHAPE)), dtype=np.int64)
        n = vote_nearest_into(flat, u.copy(), v.copy(), SHAPE)
        lin = nearest_vote_indices(u, v, SHAPE)
        assert lin.size == n
        rebuilt = np.bincount(lin, minlength=flat.size)
        np.testing.assert_array_equal(rebuilt, flat)

    def test_bilinear_terms_reproduce_into_kernel(self, rng):
        from repro.core.voting import bilinear_vote_terms

        u = rng.uniform(-1, 11, size=(30, 3))
        v = rng.uniform(-1, 9, size=(30, 3))
        flat = np.zeros(int(np.prod(SHAPE)), dtype=np.float64)
        n = vote_bilinear_into(flat, u.copy(), v.copy(), SHAPE)
        lin, w, n_terms = bilinear_vote_terms(u, v, SHAPE)
        assert n_terms == n
        rebuilt = np.zeros_like(flat)
        np.add.at(rebuilt, lin, w)
        np.testing.assert_array_equal(rebuilt, flat)

    def test_empty_terms(self):
        from repro.core.voting import bilinear_vote_terms, nearest_vote_indices

        u = np.full((2, 3), np.nan)
        v = np.full((2, 3), np.nan)
        assert nearest_vote_indices(u, v, SHAPE).size == 0
        lin, w, n = bilinear_vote_terms(u, v, SHAPE)
        assert lin.size == 0 and w.size == 0 and n == 0


class TestBatchedNearestVoter:
    """The fused batch kernel reproduces the reference votes exactly."""

    def make_batch(self, rng, batch=6, n=40, nz=SHAPE[0]):
        # Coefficients spreading coordinates across in- and out-of-bounds.
        phi = np.stack(
            [
                np.stack(
                    [
                        rng.uniform(0.4, 1.6, nz),
                        rng.uniform(-6.0, 12.0, nz),
                        rng.uniform(-5.0, 9.0, nz),
                    ],
                    axis=1,
                )
                for _ in range(batch)
            ]
        )
        uv0 = rng.uniform(-2.0, 12.0, (batch, n, 2))
        valid = rng.random((batch, n)) > 0.1
        uv0[~valid] = 0.0  # the canonical stage zeroes miss rows
        return phi, uv0, valid

    def reference_counts(self, phi, uv0, valid):
        """Per-frame reference path: proportional + NaN misses + kernel."""
        from repro.geometry.homography import apply_proportional

        flat = np.zeros(int(np.prod(SHAPE)), dtype=np.int64)
        votes = 0
        for b in range(uv0.shape[0]):
            u, v = apply_proportional(phi[b], uv0[b])
            u[~valid[b]] = np.nan
            v[~valid[b]] = np.nan
            votes += vote_nearest_into(flat, u, v, SHAPE)
        return flat, votes

    def test_matches_reference_kernel(self):
        from repro.core.voting import BatchedNearestVoter

        rng = np.random.default_rng(42)
        phi, uv0, valid = self.make_batch(rng)
        voter = BatchedNearestVoter(SHAPE)
        votes, misses = voter.vote_batch(phi, uv0, valid)
        flat = np.zeros(int(np.prod(SHAPE)), dtype=np.int64)
        voter.materialize_into(flat)
        ref_flat, ref_votes = self.reference_counts(phi, uv0, valid)
        np.testing.assert_array_equal(flat, ref_flat)
        assert votes == ref_votes
        assert misses == int((~valid).sum())
        assert ref_flat.sum() > 0  # the fixture casts real votes
        assert votes < uv0.shape[0] * uv0.shape[1] * SHAPE[0]  # and real misses

    def test_incremental_batches_accumulate(self):
        from repro.core.voting import BatchedNearestVoter

        rng = np.random.default_rng(43)
        voter = BatchedNearestVoter(SHAPE)
        ref_flat = np.zeros(int(np.prod(SHAPE)), dtype=np.int64)
        total_votes = ref_votes = 0
        for batch in (1, 3, 2):  # uneven batch sizes, one voter
            phi, uv0, valid = self.make_batch(rng, batch=batch)
            votes, _ = voter.vote_batch(phi, uv0, valid)
            total_votes += votes
            part, part_votes = self.reference_counts(phi, uv0, valid)
            ref_flat += part
            ref_votes += part_votes
        flat = np.zeros(int(np.prod(SHAPE)), dtype=np.int64)
        voter.materialize_into(flat)
        np.testing.assert_array_equal(flat, ref_flat)
        assert total_votes == ref_votes

    def test_all_misses_cancel(self):
        from repro.core.voting import BatchedNearestVoter

        rng = np.random.default_rng(44)
        phi, uv0, _ = self.make_batch(rng, batch=2)
        valid = np.zeros(uv0.shape[:2], dtype=bool)
        uv0[...] = 0.0
        voter = BatchedNearestVoter(SHAPE)
        votes, misses = voter.vote_batch(phi, uv0, valid)
        assert votes == 0
        assert misses == valid.size
        flat = np.empty(int(np.prod(SHAPE)), dtype=np.int64)
        voter.materialize_into(flat)
        assert flat.sum() == 0

    def test_materialize_overwrites(self):
        """Re-materialization after more votes equals a fresh readout."""
        from repro.core.voting import BatchedNearestVoter

        rng = np.random.default_rng(45)
        voter = BatchedNearestVoter(SHAPE)
        phi, uv0, valid = self.make_batch(rng, batch=2)
        voter.vote_batch(phi, uv0, valid)
        early = np.zeros(int(np.prod(SHAPE)), dtype=np.int64)
        voter.materialize_into(early)
        phi2, uv02, valid2 = self.make_batch(rng, batch=2)
        voter.vote_batch(phi2, uv02, valid2)
        late = np.zeros(int(np.prod(SHAPE)), dtype=np.int64)
        voter.materialize_into(late)
        a, _ = self.reference_counts(phi, uv0, valid)
        b, _ = self.reference_counts(phi2, uv02, valid2)
        np.testing.assert_array_equal(late, a + b)
        assert (late >= early).all()
