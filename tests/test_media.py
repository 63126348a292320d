import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stallwatch.errors import (
    InvalidBBox,
    InvalidInterval,
    MissingMetadata,
    ParseError,
    SequenceGap,
    StallwatchError,
    UnsupportedFormat,
)
from stallwatch.media import (
    BBox,
    Detection,
    Frame,
    GroundTruthEntry,
    open_sequence,
    read_detections,
    read_frame,
    read_ground_truth,
    write_detections,
    write_frame,
    write_sequence_meta,
)

from conftest import make_frame


class TestPGM:
    def test_round_trip_2x2(self, tmp_path):
        frame = make_frame([[0, 255], [128, 7]])
        path = tmp_path / "f.pgm"
        write_frame(frame, path)
        assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 255, 128, 7])
        assert read_frame(path) == frame

    def test_maxval_not_255_rejected(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(UnsupportedFormat):
            read_frame(path)

    def test_large_all_zero(self, tmp_path):
        frame = make_frame(np.zeros((410, 1920), dtype=np.uint8))
        path = tmp_path / "f.pgm"
        write_frame(frame, path)
        back = read_frame(path)
        assert back.width == 1920 and back.height == 410
        assert not back.pixels.any()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(ParseError):
            read_frame(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(ParseError):
            read_frame(path)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n255\n" + bytes([9, 10]))
        assert read_frame(path) == make_frame([[9, 10]])

    @given(w=st.integers(1, 12), h=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, tmp_path_factory, w, h, seed):
        rng = np.random.default_rng(seed)
        frame = Frame(rng.integers(0, 256, size=(h, w), dtype=np.uint8))
        path = tmp_path_factory.mktemp("rt") / "f.pgm"
        write_frame(frame, path)
        assert read_frame(path) == frame

    @given(data=st.binary(max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_parser_totality(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fz") / "f.pgm"
        path.write_bytes(data)
        try:
            read_frame(path)
        except StallwatchError:
            pass


class TestSequence:
    def _write(self, directory, count, fps=30.0, w=2, h=2):
        directory.mkdir(exist_ok=True)
        write_sequence_meta(directory, "v1", fps, count, w, h)
        for i in range(count):
            write_frame(make_frame(np.zeros((h, w), dtype=np.uint8)),
                        directory / f"frame_{i:06d}.pgm")

    def test_timestamps(self, tmp_path):
        self._write(tmp_path, 3)
        seq = open_sequence(tmp_path)
        assert [seq.timestamp(i) for i in range(3)] == [0.0, 1 / 30, 2 / 30]

    def test_timestamp_monotonic(self, tmp_path):
        self._write(tmp_path, 10, fps=7.5)
        seq = open_sequence(tmp_path)
        ts = [seq.timestamp(i) for i in range(10)]
        assert all(a < b for a, b in zip(ts, ts[1:]))

    def test_gap_detected(self, tmp_path):
        self._write(tmp_path, 4)
        (tmp_path / "frame_000002.pgm").unlink()
        with pytest.raises(SequenceGap):
            open_sequence(tmp_path)

    def test_directory_named_like_a_frame_is_a_gap(self, tmp_path):
        self._write(tmp_path, 4)
        (tmp_path / "frame_000002.pgm").unlink()
        (tmp_path / "frame_000002.pgm").mkdir()
        with pytest.raises(SequenceGap):
            open_sequence(tmp_path)

    def test_stray_entries_ignored(self, tmp_path):
        self._write(tmp_path, 3)
        (tmp_path / "notes.txt").write_text("x")
        (tmp_path / "frame_000099.pgm").write_bytes(b"")
        (tmp_path / "sub").mkdir()
        seq = open_sequence(tmp_path)
        assert seq.frame_count == 3
        assert seq.frame(2).pixels.shape == (2, 2)

    @pytest.mark.parametrize("text", [
        "{nope",
        "[]",
        '{"video_id": "v1", "fps": 30.0, "frame_count": 1, "width": 2}',
        '{"video_id": "v1", "fps": "fast", "frame_count": 1, "width": 2, "height": 2}',
        '{"video_id": "v1", "fps": 0, "frame_count": 1, "width": 2, "height": 2}',
        '{"video_id": "v1", "fps": 30.0, "frame_count": -1, "width": 2, "height": 2}',
    ])
    def test_bad_meta(self, tmp_path, text):
        self._write(tmp_path, 1)
        (tmp_path / "meta.json").write_text(text)
        with pytest.raises(ParseError):
            open_sequence(tmp_path)

    def test_missing_meta(self, tmp_path):
        with pytest.raises(MissingMetadata):
            open_sequence(tmp_path)

    def test_empty_sequence_valid(self, tmp_path):
        self._write(tmp_path, 0)
        seq = open_sequence(tmp_path)
        assert seq.frame_count == 0

    def test_dimension_mismatch_at_access(self, tmp_path):
        self._write(tmp_path, 2)
        write_frame(make_frame(np.zeros((3, 3), dtype=np.uint8)),
                    tmp_path / "frame_000001.pgm")
        seq = open_sequence(tmp_path)
        seq.frame(0)
        from stallwatch.errors import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            seq.frame(1)


class TestDetections:
    def test_single_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"frame":0,"class":"car","score":0.9,"bbox":[10,10,20,20]}\n')
        dets = read_detections(path)
        assert dets == [Detection(0, "car", 0.9, BBox(10, 10, 20, 20))]

    def test_score_out_of_range(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"frame":0,"class":"car","score":1.5,"bbox":[1,1,2,2]}\n')
        with pytest.raises(ParseError, match="score"):
            read_detections(path)

    def test_negative_box_side(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"frame":0,"class":"car","score":0.5,"bbox":[1,1,-2,2]}\n')
        with pytest.raises(InvalidBBox):
            read_detections(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("")
        assert read_detections(path) == []

    def test_error_carries_line_number(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"frame":0,"class":"a","score":0.5,"bbox":[1,1,2,2]}\nnot json\n')
        with pytest.raises(ParseError, match=":2"):
            read_detections(path)

    @given(rows=st.lists(
        st.tuples(st.integers(0, 10_000), st.sampled_from(["car", "truck", "bus"]),
                  st.floats(0, 1, allow_nan=False), st.integers(0, 500),
                  st.integers(0, 500), st.integers(1, 100), st.integers(1, 100)),
        max_size=20,
    ))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, tmp_path_factory, rows):
        dets = [Detection(f, c, s, BBox(x, y, w, h)) for f, c, s, x, y, w, h in rows]
        path = tmp_path_factory.mktemp("rt") / "d.jsonl"
        write_detections(dets, path)
        assert read_detections(path) == dets

    def test_fuzzed_lines_total(self, tmp_path, rng):
        for _ in range(100):
            blob = bytes(rng.integers(32, 127, size=rng.integers(1, 60))).decode()
            path = tmp_path / "d.jsonl"
            path.write_text(blob + "\n")
            try:
                read_detections(path)
            except StallwatchError:
                pass


class TestGroundTruth:
    def test_basic_row(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("video_id,start_seconds,end_seconds\nv1,120.0,300.0\n")
        assert read_ground_truth(path) == [GroundTruthEntry("v1", 120.0, 300.0)]

    def test_inverted_interval(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("video_id,start_seconds,end_seconds\nv1,300,120\n")
        with pytest.raises(InvalidInterval):
            read_ground_truth(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("video_id,start_seconds,end_seconds\n")
        assert read_ground_truth(path) == []

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("video_id,start_seconds,end_seconds\nv1,abc,10\n")
        with pytest.raises(ParseError):
            read_ground_truth(path)
