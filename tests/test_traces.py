import json
from dataclasses import fields, replace

import numpy as np
import pytest

from magspy.detect import ActivityPattern, CorrelationSeries
from magspy.traces import (CpuPattern, Dataset, SensorRecording, Trace1D,
                           load_recordings, save_recordings)


def make_recording(n=4, with_gyro=True, label="a", seed=0):
    rng = np.random.default_rng(seed)
    return SensorRecording(
        device_id="dev",
        rate_hz=100.0,
        mag=rng.normal(50.0, 1.0, (n, 3)),
        gyro=rng.normal(0.0, 0.1, (n, 3)) if with_gyro else None,
        label=label,
        meta={"k": "v"},
    )


class TestSensorRecording:
    def test_rejects_empty_mag(self):
        with pytest.raises(ValueError):
            SensorRecording("d", 100.0, np.empty((0, 3)))

    def test_rejects_gyro_length_mismatch(self):
        with pytest.raises(ValueError, match="gyro length"):
            SensorRecording("d", 100.0, np.zeros((4, 3)), gyro=np.zeros((3, 3)))

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            SensorRecording("d", 0.0, np.zeros((4, 3)))

    def test_rejects_non_finite(self):
        mag = np.zeros((4, 3))
        mag[1, 2] = np.nan
        with pytest.raises(ValueError):
            SensorRecording("d", 100.0, mag)

    def test_values_are_immutable(self):
        rec = make_recording()
        with pytest.raises(ValueError):
            rec.mag[0, 0] = 1.0


class TestCpuPattern:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CpuPattern([0.0, 1.5], 1.0)

    def test_duration(self):
        assert CpuPattern([0.0, 1.0], 2.0).duration_s == 1.0


class TestTrace1D:
    def test_normalized_flag_enforces_bounds(self):
        with pytest.raises(ValueError):
            Trace1D([-0.1, 0.5], 1.0, normalized=True)
        Trace1D([-0.1, 0.5], 1.0, normalized=False)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Trace1D([], 1.0)


@pytest.mark.parametrize("cls, names, extra", [
    (CpuPattern, ("values", "rate_hz"), ()),
    (Trace1D, ("values", "rate_hz", "normalized"), (True,)),
    (ActivityPattern, ("values", "rate_hz", "class_label"), ("a",)),
    (CorrelationSeries, ("values", "rate_hz"), ()),
], ids=["cpu-pattern", "trace", "activity-pattern", "correlation-series"])
def test_series_types_share_one_base(cls, names, extra):
    series = cls([0.0, 0.5, 1.0], 2.0, *extra)
    assert tuple(f.name for f in fields(series)) == names
    assert tuple(getattr(series, name) for name in names[2:]) == extra
    assert (len(series), series.duration_s) == (3, 1.5)
    assert not series.values.flags.writeable
    assert replace(series, rate_hz=4.0).duration_s == 0.75
    for rate in (float("nan"), 0.0, True):
        with pytest.raises(ValueError, match="rate_hz"):
            cls([0.5], rate, *extra)
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="non-finite"):
            cls([0.5, value], 2.0, *extra)


class TestDataset:
    def test_rejects_unknown_label(self):
        with pytest.raises(ValueError):
            Dataset(((1, "a"),), ("b",))

    def test_rejects_duplicate_class_names(self):
        with pytest.raises(ValueError):
            Dataset(((1, "a"),), ("a", "a"))

    def test_from_pairs_first_appearance_order(self):
        ds = Dataset.from_pairs([(1, "b"), (2, "a"), (3, "b")])
        assert ds.class_names == ("b", "a")
        assert ds.labels == ("b", "a", "b")


class TestJsonLines:
    def test_round_trip_preserves_order_and_values(self, tmp_path):
        recs = [make_recording(seed=i, with_gyro=(i % 2 == 0), label=f"c{i}")
                for i in range(5)]
        path = tmp_path / "recs.jsonl"
        save_recordings(recs, path)
        loaded = load_recordings(path)
        assert len(loaded) == len(recs)
        for orig, back in zip(recs, loaded):
            assert back.device_id == orig.device_id
            assert back.label == orig.label
            assert back.rate_hz == orig.rate_hz
            assert np.abs(back.mag - orig.mag).max() < 1e-9
            if orig.gyro is None:
                assert back.gyro is None
            else:
                assert np.abs(back.gyro - orig.gyro).max() < 1e-9
            assert back.meta == orig.meta

    def test_round_trip_is_exact(self, tmp_path):
        recs = [make_recording(seed=i) for i in range(3)]
        path = tmp_path / "recs.jsonl"
        save_recordings(recs, path)
        loaded = load_recordings(path)
        for orig, back in zip(recs, loaded):
            assert np.array_equal(back.mag, orig.mag)
            assert np.array_equal(back.gyro, orig.gyro)

    def test_empty_sequence_round_trip(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        save_recordings([], path)
        assert path.read_text() == ""
        assert load_recordings(path) == []

    def test_gyro_omitted_when_absent(self, tmp_path):
        path = tmp_path / "one.jsonl"
        save_recordings([make_recording(with_gyro=False)], path)
        obj = json.loads(path.read_text().splitlines()[0])
        assert "gyro" not in obj
        assert load_recordings(path)[0].gyro is None

    def test_deterministic_bytes(self, tmp_path):
        recs = [make_recording(seed=i) for i in range(100)]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_recordings(recs, a)
        save_recordings(recs, b)
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        save_recordings([make_recording()], path)
        path.write_text(path.read_text() + "{not json\n")
        with pytest.raises(ValueError, match="line 2"):
            load_recordings(path)

    def test_gyro_mismatch_names_line_and_rejects_file(self, tmp_path):
        good = json.dumps({"device_id": "d", "rate_hz": 100.0,
                           "mag": [[0, 0, 0], [1, 1, 1]]})
        bad = json.dumps({"device_id": "d", "rate_hz": 100.0,
                          "mag": [[0, 0, 0], [1, 1, 1]], "gyro": [[0, 0, 0]]})
        path = tmp_path / "mixed.jsonl"
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(ValueError, match="line 2"):
            load_recordings(path)

    @pytest.mark.parametrize("field", ["mag", "gyro"])
    @pytest.mark.parametrize("sample", [
        [True, 0.0, 0.0], [0.0, False, 0.0], [0.0, 0.0, "1.5"], [None, 0.0, 0.0],
        [[0.0], 0.0, 0.0], [10**400, 0.0, 0.0], 1.0, "abc", {"x": 0.0},
    ], ids=["true", "false", "numeric-string", "null", "nested", "huge-integer",
            "number-row", "string-row", "object-row"])
    def test_mistyped_sample_names_line_and_rejects_file(self, tmp_path, field,
                                                         sample):
        good = {"device_id": "d", "rate_hz": 100.0, "mag": [[0, 0, 0], [1, 2, 3]],
                "gyro": [[0, 0, 0], [0, 0, 0]]}
        bad = json.loads(json.dumps(good))
        bad[field][1] = sample
        path = tmp_path / "mixed.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ValueError, match="line 2"):
            load_recordings(path)

    @pytest.mark.parametrize("field, samples", [
        ("mag", None), ("mag", 5), ("gyro", "samples"), ("gyro", {"x": 0}),
        ("mag", []), ("gyro", []),
    ], ids=["null-mag", "number", "string", "object", "empty-mag", "empty-gyro"])
    def test_mistyped_sample_array_rejected(self, tmp_path, field, samples):
        obj = {"device_id": "d", "rate_hz": 100.0, "mag": [[0, 0, 0], [1, 2, 3]],
               field: samples}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ValueError, match="line 1"):
            load_recordings(path)

    @pytest.mark.parametrize("device_id", [5, ["x"], None], ids=["number", "list", "null"])
    def test_non_string_device_id_rejected(self, tmp_path, device_id):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"device_id": device_id, "rate_hz": 100.0,
                                    "mag": [[0, 0, 0], [1, 2, 3]]}) + "\n")
        with pytest.raises(ValueError, match="line 1: device_id"):
            load_recordings(path)

    def test_integer_samples_accepted(self, tmp_path):
        path = tmp_path / "ints.jsonl"
        path.write_text(json.dumps({"device_id": "d", "rate_hz": 100,
                                    "mag": [[0, 0, 0], [1, 2, 3]]}) + "\n")
        assert load_recordings(path)[0].mag.tolist() == [[0, 0, 0], [1, 2, 3]]

    @pytest.mark.parametrize("text", ["a\u2028b", "a\x85b", "\u2029"],
                             ids=["U+2028", "U+0085", "U+2029"])
    def test_line_separators_in_strings_round_trip(self, tmp_path, text):
        rec = replace(make_recording(), device_id=text, label=text,
                      meta={text: text})
        path = tmp_path / "recs.jsonl"
        save_recordings([rec, make_recording(seed=1)], path)
        loaded = load_recordings(path)
        assert len(loaded) == 2
        assert (loaded[0].device_id, loaded[0].label, loaded[0].meta) == \
            (text, text, {text: text})
        assert np.array_equal(loaded[0].mag, rec.mag)

    def test_crlf_line_ends_accepted(self, tmp_path):
        path = tmp_path / "crlf.jsonl"
        save_recordings([make_recording(seed=i) for i in range(2)], path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert len(load_recordings(path)) == 2

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "unknown.jsonl"
        path.write_text(json.dumps({"device_id": "d", "rate_hz": 1.0,
                                    "mag": [[0, 0, 0]], "extra": 1}) + "\n")
        with pytest.raises(ValueError, match="unknown"):
            load_recordings(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_recordings(tmp_path / "nope.jsonl")
