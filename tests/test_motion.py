import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from magspy.motion import (MotionMetrics, MotionThresholds, is_disturbed,
                           motion_metrics)
from magspy.simulate import (make_class_signature, profile_for_snr,
                             random_motion_script, render_recording)
from magspy.traces import SensorRecording


class TestMotionMetrics:
    def test_all_zero(self):
        m = motion_metrics(np.zeros((10, 3)))
        assert m.mean_rate == 0.0
        assert m.max_rate == 0.0

    def test_three_four_five(self):
        m = motion_metrics([(3.0, 4.0, 0.0)])
        assert m.mean_rate == 5.0
        assert m.max_rate == 5.0

    def test_constant_unit(self):
        m = motion_metrics([(1.0, 0.0, 0.0)] * 5)
        assert m.mean_rate == pytest.approx(1.0)
        assert m.max_rate == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            motion_metrics(np.zeros((0, 3)))

    def test_mean_le_max_invariant(self):
        with pytest.raises(ValueError):
            MotionMetrics(mean_rate=2.0, max_rate=1.0)


class TestIsDisturbed:
    def test_still_device(self):
        assert not is_disturbed(MotionMetrics(0.0, 0.0), MotionThresholds(0.1, 1.0))

    def test_max_criterion(self):
        assert is_disturbed(MotionMetrics(0.01, 5.0), MotionThresholds(0.1, 1.0))

    def test_mean_criterion(self):
        assert is_disturbed(MotionMetrics(0.2, 0.3), MotionThresholds(0.1, 1.0))

    @given(st.floats(0, 2), st.floats(0, 2), st.floats(0, 2), st.floats(0, 2))
    def test_monotone_in_thresholds(self, mean_rate, extra, mean_thr, max_thr):
        metrics = MotionMetrics(mean_rate, mean_rate + extra)
        loose = MotionThresholds(mean_thr + 0.5, max_thr + 0.5)
        tight = MotionThresholds(mean_thr, max_thr)
        if not is_disturbed(metrics, tight):
            assert not is_disturbed(metrics, loose)


def _recording(gyro_scale=0.0, seed=0):
    rng = np.random.default_rng(seed)
    return SensorRecording("d", 100.0, rng.normal(50, 1, (50, 3)),
                           gyro=rng.normal(0, gyro_scale, (50, 3)) + gyro_scale)


def _flagged(recordings, thresholds):
    """``run_movement``'s movement filter: a recording is dropped when it has
    a gyroscope and its rotation rates are disturbed."""
    return [rec.gyro is not None and is_disturbed(motion_metrics(rec.gyro), thresholds)
            for rec in recordings]


class TestFilterDataset:
    def test_all_stationary(self):
        # With gyro noise the stationary render has a gyroscope, still unflagged.
        sig = make_class_signature("a", 2.0, 100.0, 0)
        recs = [render_recording(sig, profile_for_snr(12.0, gyro_noise_std=noise), seed=i)
                for i in range(5) for noise in (0.0, 0.005)]
        assert [rec.gyro is None for rec in recs] == [True, False] * 5
        assert not any(_flagged(recs, MotionThresholds()))

    def test_motion_scripted_all_flagged(self):
        profile = profile_for_snr(12.0)
        sig = make_class_signature("a", 2.0, 100.0, 0)
        recs = []
        for i in range(5):
            script = random_motion_script(200, 100.0, seed=i,
                                          peak_rate_rad_s=(2.0, 3.0))
            recs.append(render_recording(sig, profile, motion=script, seed=i))
        assert all(_flagged(recs, MotionThresholds()))

    def test_vacuous_thresholds(self):
        recs = [_recording(gyro_scale=3.0, seed=i) for i in range(4)]
        assert all(_flagged(recs, MotionThresholds()))
        assert not any(_flagged(recs, MotionThresholds(math.inf, math.inf)))

    def test_monotone_in_thresholds(self):
        recs = [_recording(gyro_scale=s, seed=i)
                for i, s in enumerate([0.0, 0.05, 0.2, 0.8, 2.0])]
        tight = _flagged(recs, MotionThresholds(0.05, 0.5))
        loose = _flagged(recs, MotionThresholds(0.5, 2.5))
        assert all(t or not lo for t, lo in zip(tight, loose))
        assert sum(loose) < sum(tight)
