import numpy as np
import pytest

from magspy.detect import (ActivityPattern, CorrelationSeries, Detection,
                           PeakThresholds, average_pattern, cross_correlate,
                           detect_and_classify, find_peaks, load_pattern,
                           match_detections, save_pattern, score_detections)
from magspy.forest import ForestConfig, extract_features, predict, train_forest
from magspy.preprocess import normalize_unit_range
from magspy.traces import Dataset, Trace1D


def series(values):
    return CorrelationSeries(np.asarray(values, dtype=float), 1.0)


class TestAveragePattern:
    def test_single_trace_centered(self):
        pattern = average_pattern([Trace1D([0.0, 1.0], 1.0, normalized=True)], "a")
        assert np.allclose(pattern.values, [-0.5, 0.5])
        assert pattern.class_label == "a"

    def test_cancellation(self):
        traces = [Trace1D([0.0, 1.0], 1.0, normalized=True),
                  Trace1D([1.0, 0.0], 1.0, normalized=True)]
        pattern = average_pattern(traces, "a")
        assert np.allclose(pattern.values, [0.0, 0.0])

    def test_mean_zero_invariant(self):
        rng = np.random.default_rng(0)
        traces = [Trace1D(rng.uniform(0, 1, 64), 1.0, normalized=True)
                  for _ in range(7)]
        pattern = average_pattern(traces, "a")
        assert abs(pattern.values.mean()) < 1e-9

    def test_noise_averages_toward_signature(self):
        rng = np.random.default_rng(1)
        clean = np.clip(np.sin(np.linspace(0, 6, 200)) * 0.4 + 0.5, 0, 1)
        clean = (clean - clean.min()) / (clean.max() - clean.min())
        traces = []
        for _ in range(50):
            noisy = np.clip(clean + rng.normal(0, 0.05, 200), 0, 1)
            traces.append(Trace1D(noisy, 1.0, normalized=True))
        pattern = average_pattern(traces, "a")
        target = clean - clean.mean()
        rms = np.sqrt(np.mean((pattern.values - target) ** 2))
        assert rms < 3 * 0.05 / np.sqrt(50)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            average_pattern([Trace1D([0.0, 1.0], 1.0, normalized=True),
                             Trace1D([0.0, 1.0, 0.5], 1.0, normalized=True)], "a")


class TestCrossCorrelate:
    def test_unit_pattern_returns_centered_stream(self):
        stream = Trace1D([1.0, 2.0, 3.0], 1.0)
        out = cross_correlate(stream, ActivityPattern([1.0], 1.0, "a"))
        assert np.allclose(out.values, [-1.0, 0.0, 1.0])

    def test_hand_computed_case(self):
        stream = Trace1D([1.0, 2.0, 3.0], 1.0)
        pattern = ActivityPattern([-0.5, 0.5], 1.0, "a")
        out = cross_correlate(stream, pattern)
        assert np.allclose(out.values, [0.5, 0.5])

    def test_matched_filter_argmax(self):
        rng = np.random.default_rng(2)
        template = rng.normal(0, 1, 50)
        template -= template.mean()
        stream_values = np.zeros(400)
        offset = 123
        stream_values[offset:offset + 50] = template
        out = cross_correlate(Trace1D(stream_values, 1.0),
                              ActivityPattern(template, 1.0, "a"))
        assert int(np.argmax(out.values)) == offset

    def test_series_length(self):
        out = cross_correlate(Trace1D(np.arange(10.0), 1.0),
                              ActivityPattern([0.5, -0.5], 1.0, "a"))
        assert len(out) == 9

    def test_pattern_longer_than_stream(self):
        with pytest.raises(ValueError):
            cross_correlate(Trace1D([1.0], 1.0),
                            ActivityPattern([0.5, -0.5], 1.0, "a"))

    def test_rate_mismatch(self):
        with pytest.raises(ValueError):
            cross_correlate(Trace1D([1.0, 2.0], 2.0),
                            ActivityPattern([1.0], 1.0, "a"))


class TestFindPeaks:
    def test_single_peak(self):
        out = find_peaks(series([0.0, 1.0, 0.0]), PeakThresholds(0.5, 0.5, 1))
        assert out == [1]

    def test_equal_twin_peaks_prominence(self):
        # Twin maxima of equal height: the first-ranked keeps prominence 1.0
        # (to the series ends); the second is only 0.1 above the joining
        # saddle and is filtered out.
        out = find_peaks(series([0.0, 1.0, 0.9, 1.0, 0.0]),
                         PeakThresholds(0.0, 0.5, 1))
        assert out == [1]

    def test_monotone_series_has_no_peaks(self):
        assert find_peaks(series([0.0, 1.0, 2.0, 3.0]),
                          PeakThresholds(0.0, 0.0, 1)) == []

    def test_plateau_center(self):
        out = find_peaks(series([0.0, 1.0, 1.0, 1.0, 0.0]),
                         PeakThresholds(0.0, 0.0, 1))
        assert out == [2]

    def test_height_filter(self):
        values = [0.0, 0.4, 0.0, 0.9, 0.0]
        assert find_peaks(series(values), PeakThresholds(0.5, 0.0, 1)) == [3]
        assert find_peaks(series(values), PeakThresholds(0.0, 0.0, 1)) == [1, 3]

    def test_width_filter(self):
        narrow = [0.0, 1.0, 0.0, 0.45, 0.5, 0.55, 0.6, 0.55, 0.5, 0.45, 0.0]
        out = find_peaks(series(narrow), PeakThresholds(0.0, 0.0, 5))
        assert 6 in out and 1 not in out

    def test_raising_height_only_removes_peaks(self):
        rng = np.random.default_rng(3)
        values = rng.normal(0, 1, 500)
        previous = None
        for height in (-1.0, 0.0, 0.5, 1.0, 2.0):
            accepted = set(find_peaks(series(values),
                                      PeakThresholds(height, 0.0, 1)))
            if previous is not None:
                assert accepted <= previous
            previous = accepted

    def test_shift_covariance(self):
        rng = np.random.default_rng(4)
        values = rng.normal(0, 1, 200)
        thr = PeakThresholds(0.5, 0.2, 1)
        base = find_peaks(series(values), thr)
        shifted = find_peaks(series(np.concatenate([np.zeros(7), values])), thr)
        interior = [p for p in base if p > 2]
        assert [p + 7 for p in interior] == [p for p in shifted if p > 9]

    def test_scale_invariance_of_locations(self):
        rng = np.random.default_rng(5)
        values = rng.normal(0, 1, 300)
        alpha = 3.7
        base = find_peaks(series(values), PeakThresholds(0.4, 0.2, 2))
        scaled = find_peaks(series(values * alpha),
                            PeakThresholds(0.4 * alpha, 0.2 * alpha, 2))
        assert base == scaled


class TestScoreDetections:
    def test_exact_match(self):
        counts = score_detections([Detection(100, 1.0)], [(100, "a")], 1.0, 10.0)
        assert (counts.tp, counts.fp, counts.fn) == (1, 0, 0)

    def test_outside_tolerance(self):
        counts = score_detections([Detection(120, 1.0)], [(100, "a")], 1.0, 10.0)
        assert (counts.tp, counts.fp, counts.fn) == (0, 1, 1)

    def test_one_to_one_matching(self):
        detections = [Detection(99, 2.0), Detection(101, 1.0)]
        counts = score_detections(detections, [(100, "a")], 1.0, 10.0)
        assert (counts.tp, counts.fp, counts.fn) == (1, 1, 0)

    def test_highest_score_claims_nearest(self):
        detections = [Detection(99, 2.0), Detection(101, 1.0)]
        matches = match_detections(detections, [(100, "a"), (102, "b")], 1.0, 10.0)
        claimed = {det.time_index: truth for det, truth in matches}
        assert claimed[99] == (100, "a")
        assert claimed[101] == (102, "b")

    def test_duplicate_truth_rejected(self):
        with pytest.raises(ValueError):
            score_detections([], [(5, "a"), (5, "b")], 1.0, 1.0)


class TestDetectAndClassify:
    def _model(self, template_a, template_b):
        rows = []
        for template, label in ((template_a, "A"), (template_b, "B")):
            trace = Trace1D(template, 1.0, normalized=True)
            from magspy.forest import extract_features
            rows.append((extract_features(trace, 10, label), label))
        data = Dataset.from_pairs(rows * 3, ("A", "B"))
        return train_forest(data, ForestConfig(n_estimators=15, max_depth=4,
                                               min_impurity_decrease=0.0, seed=0))

    def test_single_embed_detected_and_labeled(self):
        rng = np.random.default_rng(6)
        template_a = np.clip(0.5 + 0.5 * np.sin(np.linspace(0, 9, 60)), 0, 1)
        template_a = (template_a - template_a.min()) / np.ptp(template_a)
        template_b = 1.0 - template_a
        model = self._model(template_a, template_b)

        stream_values = rng.normal(0.0, 0.01, 600)
        offset = 250
        stream_values[offset:offset + 60] += template_a
        stream = Trace1D(stream_values, 1.0)
        pattern = ActivityPattern(template_a - template_a.mean(), 1.0, "A")
        # Sinusoidal templates autocorrelate with side lobes around 4.1;
        # the main peak scores about 7.1.
        thresholds = PeakThresholds(5.0, 4.5, 2)
        detections = detect_and_classify(stream, cross_correlate(stream, pattern),
                                         thresholds, model, window_s=60.0)
        assert len(detections) == 1
        assert abs(detections[0].time_index - offset) <= 1
        assert detections[0].predicted_label == "A"

    def test_pure_noise_high_threshold_empty(self):
        rng = np.random.default_rng(7)
        template = np.linspace(0, 1, 40)
        model = self._model(template, 1.0 - template)
        stream = Trace1D(rng.normal(0, 0.01, 500), 1.0)
        pattern = ActivityPattern(template - template.mean(), 1.0, "A")
        out = detect_and_classify(stream, cross_correlate(stream, pattern),
                                  PeakThresholds(100.0, 0.0, 1), model, 40.0)
        assert out == []

    def test_two_embeds_in_time_order(self):
        rng = np.random.default_rng(8)
        template = np.clip(0.5 + 0.5 * np.sin(np.linspace(0, 7, 50)), 0, 1)
        template = (template - template.min()) / np.ptp(template)
        model = self._model(template, 1.0 - template)
        stream_values = rng.normal(0.0, 0.01, 700)
        for offset in (100, 400):
            stream_values[offset:offset + 50] += template
        stream = Trace1D(stream_values, 1.0)
        pattern = ActivityPattern(template - template.mean(), 1.0, "A")
        detections = detect_and_classify(stream, cross_correlate(stream, pattern),
                                         PeakThresholds(2.0, 1.5, 2), model, 50.0)
        near = [d for d in detections
                if min(abs(d.time_index - 100), abs(d.time_index - 400)) <= 2]
        assert len(near) == 2
        assert near[0].time_index < near[1].time_index

    def test_batched_labels_match_per_window_predict(self):
        rng = np.random.default_rng(9)
        template = np.clip(0.5 + 0.5 * np.sin(np.linspace(0, 7, 50)), 0, 1)
        template = (template - template.min()) / np.ptp(template)
        model = self._model(template, 1.0 - template)
        stream = Trace1D(rng.normal(0.0, 0.2, 400), 1.0)
        pattern = ActivityPattern(template - template.mean(), 1.0, "A")
        detections = detect_and_classify(stream, cross_correlate(stream, pattern),
                                         PeakThresholds(-1e9, 0.0, 1), model, 20.0)
        assert len(detections) > 5
        for det in detections:
            k = det.time_index
            window = normalize_unit_range(Trace1D(stream.values[k:k + 20], 1.0))
            label, _ = predict(model, extract_features(window, model.n_features))
            assert det.predicted_label == label

    def test_window_past_end_dropped(self):
        template = np.concatenate([np.zeros(5), np.ones(5)])
        model = self._model(template, 1.0 - template)
        stream_values = np.zeros(30)
        stream_values[22:27] += 1.0
        stream = Trace1D(stream_values, 1.0)
        pattern = ActivityPattern(template - template.mean(), 1.0, "A")
        out = detect_and_classify(stream, cross_correlate(stream, pattern),
                                  PeakThresholds(-10.0, 0.0, 1), model, window_s=15.0)
        assert all(d.time_index + 15 <= 30 for d in out)

    def test_series_must_belong_to_the_stream(self):
        template = np.concatenate([np.zeros(5), np.ones(5)])
        model = self._model(template, 1.0 - template)
        stream = Trace1D(np.zeros(30), 1.0)
        thresholds = PeakThresholds(-10.0, 0.0, 1)
        with pytest.raises(ValueError, match="rates differ"):
            detect_and_classify(stream, CorrelationSeries(np.zeros(21), 2.0),
                                thresholds, model, window_s=10.0)
        with pytest.raises(ValueError, match="longer than the stream"):
            detect_and_classify(stream, series(np.zeros(31)), thresholds, model,
                                window_s=10.0)


class TestPatternPersistence:
    def test_round_trip(self, tmp_path):
        pattern = ActivityPattern([0.25, -0.75, 0.5], 5.0, "target")
        path = tmp_path / "pattern.json"
        save_pattern(pattern, path)
        back = load_pattern(path)
        assert back.class_label == pattern.class_label
        assert back.rate_hz == pattern.rate_hz
        assert np.array_equal(back.values, pattern.values)
