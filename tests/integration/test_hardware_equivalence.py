"""Integration tests: the accelerator model vs. the software reference.

The central claim of the hardware model: running the same configuration,
:class:`repro.hardware.EventorSystem` is *bit-exact* with the software
engine under :data:`repro.core.REFORMULATED_POLICY` — identical vote streams, DSI
contents, depth maps and point clouds — while additionally producing
calibrated timing (Table 3) and traffic statistics.
"""

import numpy as np
import pytest

from repro.core import EMVSConfig, REFORMULATED_POLICY, ReconstructionEngine
from repro.hardware import EventorConfig, EventorSystem


@pytest.fixture(scope="module")
def setup(seq_3planes_fast):
    seq = seq_3planes_fast
    events = seq.events.time_slice(0.9, 1.1)
    hw_config = EventorConfig(n_planes=64)
    config = EMVSConfig(n_depth_planes=64, frame_size=1024, keyframe_distance=None)
    return seq, events, config, hw_config


@pytest.fixture(scope="module")
def sw_result(setup):
    seq, events, config, _ = setup
    return ReconstructionEngine(
        seq.camera, seq.trajectory, config, seq.depth_range,
        policy=REFORMULATED_POLICY,
    ).run(events)


@pytest.fixture(scope="module")
def hw_run(setup):
    seq, events, config, hw_config = setup
    system = EventorSystem(
        seq.camera, config, depth_range=seq.depth_range, hw_config=hw_config
    )
    return system.run(events, seq.trajectory)


class TestBitExactness:
    def test_same_vote_count(self, sw_result, hw_run):
        hw_result, report = hw_run
        assert report.votes == sw_result.profile.votes_cast

    def test_same_point_count(self, sw_result, hw_run):
        hw_result, _ = hw_run
        assert hw_result.n_points == sw_result.n_points

    def test_identical_depth_maps(self, sw_result, hw_run):
        hw_result, _ = hw_run
        for sw_kf, hw_kf in zip(sw_result.keyframes, hw_result.keyframes):
            np.testing.assert_array_equal(sw_kf.depth_map.mask, hw_kf.depth_map.mask)
            np.testing.assert_array_equal(
                sw_kf.depth_map.confidence, hw_kf.depth_map.confidence
            )
            np.testing.assert_array_equal(
                np.nan_to_num(sw_kf.depth_map.depth),
                np.nan_to_num(hw_kf.depth_map.depth),
            )

    def test_identical_clouds(self, sw_result, hw_run):
        hw_result, _ = hw_run
        np.testing.assert_allclose(
            sw_result.cloud.points, hw_result.cloud.points, atol=1e-12
        )


class TestHardwareReport:
    def test_throughput_matches_table3(self, hw_run):
        """Nz=64 over 2 PEs at 130 MHz: vote-bound ~35 cycles/event with
        full voting; with this workload's miss rate the sustained rate must
        sit between the generation bound and 2x the paper's 1.86 Mev/s."""
        _, report = hw_run
        assert report.event_rate > 1.8e6

    def test_cycles_scale_with_frames(self, hw_run):
        _, report = hw_run
        assert report.total_cycles > 0
        per_frame = report.total_cycles / report.frames
        # Nz=64: generation floor 32 cycles/event = 32768 cycles/frame.
        assert per_frame >= 32 * 1024

    def test_power_is_paper_value(self, hw_run):
        _, report = hw_run
        assert report.power_watts == pytest.approx(1.86)

    def test_dram_traffic_accounts_votes(self, hw_run):
        _, report = hw_run
        # Each vote moves at least 4 bytes (16-bit RMW).
        assert report.dram_bytes >= report.votes * 4

    def test_dma_moved_all_events(self, hw_run, setup):
        _, report = hw_run
        _, events, config, _ = setup
        n_frames = len(events) // config.frame_size
        # Each event is one 32-bit word, plus phi/H parameters per frame.
        assert report.dma_bytes >= n_frames * config.frame_size * 4

    def test_schedule_timeline_present(self, hw_run):
        _, report = hw_run
        assert report.schedule is not None
        assert len(report.schedule.timeline) == 2 * report.frames

    def test_energy_positive_and_small(self, hw_run):
        _, report = hw_run
        # ~551 us/frame at 1.86 W -> ~1 mJ per frame.
        per_frame = report.energy_joules / report.frames
        assert 1e-5 < per_frame < 1e-2


class TestKeyframeBehaviour:
    def test_keyframes_reset_dram_dsi(self, setup):
        seq, _, _, hw_config = setup
        events = seq.events.time_slice(0.4, 1.6)
        config = EMVSConfig(
            n_depth_planes=64, frame_size=1024, keyframe_distance=0.12
        )
        system = EventorSystem(
            seq.camera, config, depth_range=seq.depth_range, hw_config=hw_config
        )
        result, report = system.run(events, seq.trajectory)
        assert report.keyframes >= 2
        assert len(result.keyframes) >= 2
        assert report.dsi_reset_seconds > 0

    def test_matches_software_with_keyframes(self, setup):
        seq, _, _, hw_config = setup
        events = seq.events.time_slice(0.4, 1.6)
        config = EMVSConfig(
            n_depth_planes=64, frame_size=1024, keyframe_distance=0.12
        )
        sw = ReconstructionEngine(
            seq.camera, seq.trajectory, config, seq.depth_range,
            policy=REFORMULATED_POLICY,
        ).run(events)
        hw, report = EventorSystem(
            seq.camera, config, depth_range=seq.depth_range, hw_config=hw_config
        ).run(events, seq.trajectory)
        assert hw.n_points == sw.n_points
        assert report.votes == sw.profile.votes_cast


class TestConfigurationGuards:
    def test_frame_size_mismatch_rejected(self, seq_3planes_fast):
        with pytest.raises(ValueError):
            EventorSystem(
                seq_3planes_fast.camera,
                EMVSConfig(n_depth_planes=128, frame_size=512),
                hw_config=EventorConfig(frame_size=1024),
            )

    def test_plane_mismatch_rejected(self, seq_3planes_fast):
        with pytest.raises(ValueError):
            EventorSystem(
                seq_3planes_fast.camera,
                EMVSConfig(n_depth_planes=100, frame_size=1024),
                hw_config=EventorConfig(n_planes=128),
            )

    def test_float_schema_rejected(self, seq_3planes_fast):
        from repro.fixedpoint.quantize import FLOAT_SCHEMA

        with pytest.raises(ValueError):
            EventorSystem(
                seq_3planes_fast.camera,
                EMVSConfig(n_depth_planes=128, frame_size=1024),
                schema=FLOAT_SCHEMA,
            )
