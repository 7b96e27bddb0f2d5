"""Unit tests for sub-voxel depth refinement."""

import numpy as np
import pytest

from repro.core.config import DetectionConfig
from repro.core.detection import detect_structure, refine_subvoxel
from repro.core.dsi import DSI, depth_planes
from repro.geometry.se3 import SE3


@pytest.fixture
def dsi(small_camera):
    return DSI(small_camera, SE3.identity(), depth_planes(1.0, 4.0, 16))


class TestRefineSubvoxel:
    def test_symmetric_peak_unchanged(self, dsi):
        """A symmetric score triplet keeps the plane-centre depth."""
        dsi.scores[7, 5, 5] = 20
        dsi.scores[6, 5, 5] = 10
        dsi.scores[8, 5, 5] = 10
        _, idx = dsi.argmax_projection()
        refined = refine_subvoxel(dsi, idx)
        assert refined[5, 5] == pytest.approx(dsi.depths[7])

    def test_skewed_peak_shifts_toward_heavier_side(self, dsi):
        dsi.scores[7, 5, 5] = 20
        dsi.scores[6, 5, 5] = 5
        dsi.scores[8, 5, 5] = 15  # heavier on the far side
        _, idx = dsi.argmax_projection()
        refined = refine_subvoxel(dsi, idx)
        assert dsi.depths[7] < refined[5, 5] < dsi.depths[8]

    def test_offset_clamped_to_half_plane(self, dsi):
        dsi.scores[7, 5, 5] = 20
        dsi.scores[8, 5, 5] = 20  # plateau: vertex would be at the midpoint
        _, idx = dsi.argmax_projection()
        refined = refine_subvoxel(dsi, idx)
        assert dsi.depths[6] < refined[5, 5] < dsi.depths[9]

    def test_boundary_planes_fall_back(self, dsi):
        dsi.scores[0, 2, 2] = 10
        dsi.scores[15, 3, 3] = 10
        _, idx = dsi.argmax_projection()
        refined = refine_subvoxel(dsi, idx)
        assert refined[2, 2] == pytest.approx(dsi.depths[0])
        assert refined[3, 3] == pytest.approx(dsi.depths[15])

    def test_recovers_true_depth_between_planes(self, small_camera):
        """Votes spread between two planes by a true depth mid-way:
        refinement recovers the intermediate value."""
        depths = depth_planes(1.0, 4.0, 16)
        dsi = DSI(small_camera, SE3.identity(), depths)
        true_inv = 0.5 * (1 / depths[7] + 1 / depths[8])  # halfway in 1/z
        # Weight planes by proximity in inverse depth.
        dsi.scores[7, 5, 5] = 100
        dsi.scores[8, 5, 5] = 100
        dsi.scores[6, 5, 5] = 20
        dsi.scores[9, 5, 5] = 20
        _, idx = dsi.argmax_projection()
        refined = refine_subvoxel(dsi, idx)
        assert refined[5, 5] == pytest.approx(1.0 / true_inv, rel=0.03)


class TestDetectionIntegration:
    def test_subvoxel_config_changes_depths(self, dsi):
        dsi.scores[7, 10:15, 10:15] = 30
        dsi.scores[8, 10:15, 10:15] = 25  # asymmetric neighbourhood
        plain = detect_structure(dsi, DetectionConfig(subvoxel=False, offset=3))
        refined = detect_structure(dsi, DetectionConfig(subvoxel=True, offset=3))
        assert plain.n_points == refined.n_points
        d_plain = plain.depth[12, 12]
        d_ref = refined.depth[12, 12]
        assert d_ref != pytest.approx(d_plain)
        assert d_ref > d_plain  # shifted toward the heavier far neighbour

    def test_subvoxel_depths_stay_in_dsi_range(self, dsi, rng):
        idx = rng.integers(0, 16, size=(48, 64))
        refined = refine_subvoxel(dsi, idx)
        assert np.all(refined >= dsi.depths[0] * 0.95)
        assert np.all(refined <= dsi.depths[-1] * 1.05)


def refine_subvoxel_oracle(dsi, indices):
    """The full-volume formulation: saturate and cast every score first."""
    scores = dsi.effective_scores().astype(float)
    nz = scores.shape[0]
    inv_depths = 1.0 / dsi.depths
    idx = np.clip(indices, 1, nz - 2)
    s_prev = np.take_along_axis(scores, (idx - 1)[None], axis=0)[0]
    s_mid = np.take_along_axis(scores, idx[None], axis=0)[0]
    s_next = np.take_along_axis(scores, (idx + 1)[None], axis=0)[0]
    denom = s_prev - 2.0 * s_mid + s_next
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = 0.5 * (s_prev - s_next) / denom
    usable = (denom < 0) & np.isfinite(delta) & (indices >= 1) & (indices <= nz - 2)
    delta = np.where(usable, np.clip(delta, -0.5, 0.5), 0.0)
    lo = np.clip(idx - 1, 0, nz - 1)
    hi = np.clip(idx + 1, 0, nz - 1)
    step = 0.5 * (inv_depths[hi] - inv_depths[lo])
    return 1.0 / (inv_depths[indices] + delta * step)


class TestPlaneGatherMatchesOracle:
    """Gathering three planes equals refining over the saturated volume."""

    @pytest.mark.parametrize(
        "integer_scores, score_limit",
        [(False, None), (True, None), (True, 40)],
    )
    def test_bit_identical(self, small_camera, rng, integer_scores, score_limit):
        dsi = DSI(
            small_camera,
            SE3.identity(),
            depth_planes(1.0, 4.0, 16),
            integer_scores=integer_scores,
            score_limit=score_limit,
        )
        if integer_scores:
            dsi.scores[...] = rng.integers(0, 60, size=dsi.shape)
            # Whole saturated planes: every triplet touching them clamps.
            dsi.scores[3] = 500
            dsi.scores[4] = 80
        else:
            dsi.scores[...] = rng.random(dsi.shape) * 50.0
        _, idx = dsi.argmax_projection()
        for indices in (idx, rng.integers(0, 16, size=idx.shape)):
            np.testing.assert_array_equal(
                refine_subvoxel(dsi, indices), refine_subvoxel_oracle(dsi, indices)
            )
