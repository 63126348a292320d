import ast
import json
import re
import resource
import signal
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stallwatch
from stallwatch.codec import read_json, write_atomic, write_json
from stallwatch.errors import (
    DimensionMismatch,
    InvalidBBox,
    InvalidInterval,
    InvalidParam,
    MissingMetadata,
    ParseError,
    SequenceGap,
    StallwatchError,
)
from stallwatch.media import (
    MAX_COORD,
    MAX_FRAME,
    AnomalyEvent,
    BBox,
    Detections,
    Frame,
    GroundTruthEntry,
    SequenceMeta,
    open_sequence,
    read_detections,
    read_frame,
    read_ground_truth,
    read_predictions,
    write_detections,
    write_frame,
    write_ground_truth,
    write_predictions,
    write_sequence,
    _parse_rows,
)

from conftest import Row, columns, frame_bytes, make_frame, rows_of


# the header `write_frame` writes, for positive sides
CANONICAL_HEADER = re.compile(rb"P5\n([1-9][0-9]*) ([1-9][0-9]*)\n255\n")


def oracle_read_frame(path) -> Frame:
    """A frame is read if and only if the file starts with the header
    `write_frame` writes for its sides and holds their raster."""
    data = path.read_bytes()
    m = CANONICAL_HEADER.match(data)
    if m is None:
        raise ParseError("not the header write_frame writes")
    width, height = int(m[1]), int(m[2])
    raster = data[m.end() : m.end() + width * height]
    if len(raster) < width * height:
        raise ParseError(f"truncated raster: {len(raster)} of {width * height} bytes")
    return Frame(np.frombuffer(raster, dtype=np.uint8).reshape(height, width))


def frame_outcome(read, path):
    """The pixels read, or the class of the error raised."""
    try:
        pixels = read(path).pixels
    except StallwatchError as exc:
        return ("raised", type(exc))
    return ("read", pixels.shape, pixels.tobytes())


WHITESPACE = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]


@st.composite
def pgm_headers(draw):
    """A P5 file with three header tokens, mostly sides of 1 to 7 and
    maxval 255, one in five drawn from digits, '+', '_' and letters, then
    mostly 64 raster bytes. In half the files the tokens are separated and
    ended as `write_frame` does; in the rest by the six whitespace bytes and
    '#' comments (half of them longer than any frame's header), and mostly
    ended by one whitespace byte."""

    def one_in_five(common, rare):
        return draw(common if draw(st.integers(0, 4)) else rare)

    long_text = st.integers(250, 400).map(lambda n: b"c" * n)
    comment = st.one_of(st.binary(max_size=20), long_text).map(
        lambda text: b"#" + text.replace(b"\n", b"") + b"\n")
    plain = draw(st.booleans())

    def separator(canonical: bytes) -> bytes:
        if plain:
            return canonical
        return b"".join(one_in_five(st.sampled_from(WHITESPACE), comment)
                        for _ in range(draw(st.integers(1, 3))))

    odd = st.text("0123456789+_aZ", min_size=1, max_size=4).map(str.encode)
    side = st.sampled_from([b"1", b"2", b"5", b"007"])
    maxval = st.sampled_from([b"255", b"0255"])
    tokens = [one_in_five(s, odd) for s in (side, side, maxval)]
    first = separator(b"\n") if plain or draw(st.booleans()) else b""
    end = b"\n" if plain else one_in_five(st.sampled_from(WHITESPACE),
                                           st.sampled_from([b"#", b""]))
    return (b"P5" + first + tokens[0] + separator(b" ") + tokens[1]
            + separator(b"\n") + tokens[2] + end
            + bytes(one_in_five(st.just(64), st.sampled_from([0, 3]))))


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
        with pytest.raises(ParseError):
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
        with pytest.raises(ParseError, match=re.escape(repr(b"P5\n# a comment\n2 1\n"))):
            read_frame(path)

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

    @pytest.mark.parametrize("header,token", [
        (b"P5\n+32 1\n255\n", b"+32"),
        (b"P5\n3_2 1\n255\n", b"3_2"),
        (b"P5\n32 1\n+255\n", b"+255"),
        (b"P5\n32 \xd9\xa1\n255\n", b"\xd9\xa1"),
    ])
    def test_header_token_must_be_ascii_digits(self, tmp_path, header, token):
        # int() reads the first two as 32, the third as 255; `token` names
        # the case, and the error shows the whole header found
        path = tmp_path / "f.pgm"
        path.write_bytes(header + bytes(32))
        with pytest.raises(ParseError, match=re.escape(repr(header))):
            read_frame(path)

    @given(data=pgm_headers())
    @settings(max_examples=300, deadline=None)
    def test_header_against_token_oracle(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("hdr") / "f.pgm"
        path.write_bytes(data)
        assert frame_outcome(read_frame, path) == frame_outcome(oracle_read_frame, path)

    def test_read_into_buffer_shares_its_memory(self, tmp_path):
        frame = make_frame([[0, 255, 3], [128, 7, 9]])
        path = tmp_path / "f.pgm"
        write_frame(frame, path)
        out = np.full((2, 3), 77, dtype=np.uint8)
        back = read_frame(path, out)
        assert back == frame
        assert np.array_equal(out, frame.pixels)
        assert np.shares_memory(back.pixels, out)

    @pytest.mark.parametrize("shape", [(3, 2), (2, 4), (6,), (1, 2, 3)])
    def test_buffer_of_wrong_shape(self, tmp_path, shape):
        path = tmp_path / "f.pgm"
        write_frame(make_frame(np.zeros((2, 3))), path)
        with pytest.raises(DimensionMismatch):
            read_frame(path, np.zeros(shape, dtype=np.uint8))

    @pytest.mark.parametrize("make_out,names", [
        (lambda: np.zeros((2, 3), dtype=np.uint16), "uint16"),
        (lambda: np.zeros((2, 6), dtype=np.uint8)[:, ::2], "C-contiguous"),
        (lambda: np.zeros((2, 3), dtype=np.uint8).T.copy().T, "C-contiguous"),
        (lambda: np.zeros((2, 3), dtype=np.uint8).view(np.int8), "int8"),
        (lambda: np.frombuffer(bytes(6), dtype=np.uint8).reshape(2, 3), "read-only"),
    ], ids=["uint16", "strided", "fortran", "int8", "read-only"])
    def test_unusable_buffer_rejected(self, tmp_path, make_out, names):
        path = tmp_path / "f.pgm"
        write_frame(make_frame([[1, 2, 3], [4, 5, 6]]), path)
        out = make_out()
        before = out.copy()
        with pytest.raises(InvalidParam, match=names):
            read_frame(path, out)
        assert np.array_equal(out, before)

    def test_read_at_offset(self, tmp_path):
        frames = [make_frame(np.full((2, 3), v)) for v in (5, 6, 7)]
        write_sequence(tmp_path, SequenceMeta("v", 1.0, 3, 3, 2), frames)
        path = tmp_path / "frames_000000.pgm"
        record = len(b"P5\n3 2\n255\n") + 6
        assert path.stat().st_size == 3 * record
        out = np.zeros((2, 3), dtype=np.uint8)
        assert read_frame(path, out, record) == frames[1]
        assert np.array_equal(out, frames[1].pixels)
        assert read_frame(path, offset=2 * record) == frames[2]

    def test_frame_takes_only_uint8(self):
        with pytest.raises(InvalidParam, match="frame must be uint8, got float64"):
            Frame(np.zeros((2, 3)))

    def test_read_without_buffer_is_read_only(self, tmp_path):
        path = tmp_path / "f.pgm"
        write_frame(make_frame([[1, 2]]), path)
        pixels = read_frame(path).pixels
        assert not pixels.flags.writeable
        with pytest.raises(ValueError):
            pixels[0, 0] = 5


class TestSequence:
    def _write(self, directory, count, fps=30.0, w=2, h=2):
        """A sequence whose frame i is filled with i % 256."""
        directory.mkdir(exist_ok=True)
        write_sequence(directory, SequenceMeta("v1", fps, count, w, h),
                       [make_frame(np.full((h, w), i % 256)) for i in range(count)])

    def test_timestamps(self, tmp_path):
        self._write(tmp_path, 3)
        seq = open_sequence(tmp_path)
        assert [seq.timestamp(i) for i in range(3)] == [0.0, 1 / 30, 2 / 30]

    def test_timestamp_monotonic(self, tmp_path):
        self._write(tmp_path, 10, fps=7.5)
        seq = open_sequence(tmp_path)
        ts = [seq.timestamp(i) for i in range(10)]
        assert all(a < b for a, b in zip(ts, ts[1:]))

    def test_frames_at_their_offsets(self, tmp_path):
        self._write(tmp_path, 40)
        seq = open_sequence(tmp_path)
        for i in range(40):
            assert seq.frame(i) == make_frame(np.full((2, 2), i))

    def test_gap_detected(self, tmp_path):
        self._write(tmp_path, 40)
        (tmp_path / "frames_000001.pgm").unlink()
        with pytest.raises(SequenceGap, match=r"frames_000001\.pgm: missing frame 16 "):
            open_sequence(tmp_path)

    @pytest.mark.parametrize("keep,first_missing", [
        (0, 32), (1, 32), (3 * 15, 35), (8 * 15 - 1, 39)])
    def test_truncated_segment_is_a_gap(self, tmp_path, keep, first_missing):
        # the last segment holds 8 frames of 15 bytes
        self._write(tmp_path, 40)
        segment = tmp_path / "frames_000002.pgm"
        segment.write_bytes(segment.read_bytes()[:keep])
        with pytest.raises(SequenceGap, match=rf"frames_000002\.pgm: missing frame "
                                              rf"{first_missing} "):
            open_sequence(tmp_path)

    def test_directory_named_like_a_frame_is_a_gap(self, tmp_path):
        self._write(tmp_path, 40)
        (tmp_path / "frames_000001.pgm").unlink()
        (tmp_path / "frames_000001.pgm").mkdir()
        with pytest.raises(SequenceGap, match=r"frames_000001\.pgm"):
            open_sequence(tmp_path)

    def test_stray_entries_ignored(self, tmp_path):
        self._write(tmp_path, 3)
        (tmp_path / "notes.txt").write_text("x")
        (tmp_path / "frames_000099.pgm").write_bytes(b"")
        (tmp_path / "frame_000000.pgm").write_bytes(b"")
        (tmp_path / "sub").mkdir()
        (tmp_path / "frames_000001.pgm").mkdir()
        seq = open_sequence(tmp_path)
        assert seq.frame_count == 3
        assert seq.frame(2) == make_frame(np.full((2, 2), 2))

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
        (tmp_path / "frames_000000.pgm").write_bytes(
            frame_bytes(make_frame(np.zeros((2, 2))))
            + frame_bytes(make_frame(np.zeros((3, 3)))))
        seq = open_sequence(tmp_path)
        seq.frame(0)
        with pytest.raises(DimensionMismatch, match=r"^frame 1: .*frame is 3x3, "
                                                    r"buffer is \(2, 2\)$"):
            seq.frame(1)

    def test_commented_headers_rejected_at_frame_0(self, tmp_path):
        # open_sequence sees a segment long enough for its 3 frames
        self._write(tmp_path, 3)
        segment = tmp_path / "frames_000000.pgm"
        header = b"P5\n# made by another tool\n2 2\n"
        segment.write_bytes((header + b"255\n" + bytes(4)) * 3)
        seq = open_sequence(tmp_path)
        with pytest.raises(ParseError) as info:
            seq.frame(0)
        assert str(info.value).startswith(
            f"frame 0: {segment} at byte 0: bad header {header!r}")

    @pytest.mark.parametrize("damage,error", [
        # frame 5's record of 15 bytes starts at byte 75 of segment 0
        (lambda data: data[:75] + b"X" + data[76:],
         "bad header b'X5\\n2 2\\n255\\n', expected b'P5\\n<width> <height>\\n255\\n'"),
        (lambda data: data[:75 + 11 + 2], "truncated raster: 2 of 4 bytes"),
    ], ids=["bad-magic", "truncated-raster"])
    def test_read_error_names_frame_segment_and_offset(self, tmp_path, damage,
                                                       error):
        self._write(tmp_path, 20)
        seq = open_sequence(tmp_path)
        segment = tmp_path / "frames_000000.pgm"
        segment.write_bytes(damage(segment.read_bytes()))
        with pytest.raises(ParseError) as info:
            seq.frame(5)
        assert str(info.value) == f"frame 5: {segment} at byte 75: {error}"


class TestWriteSequence:
    @staticmethod
    def frames(count):
        """Frame i of `count`, filled with i, each yielded in the one buffer
        as a renderer yields them."""
        pixels = np.empty((2, 3), dtype=np.uint8)
        for i in range(count):
            pixels.fill(i)
            yield Frame(pixels)

    def test_round_trip_of_frames_sharing_a_buffer(self, tmp_path):
        write_sequence(tmp_path, SequenceMeta("v", 5.0, 40, 3, 2), self.frames(40))
        seq = open_sequence(tmp_path)
        assert [seq.frame(i) for i in range(40)] == [
            make_frame(np.full((2, 3), i)) for i in range(40)]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "frames_000000.pgm", "frames_000001.pgm", "frames_000002.pgm", "meta.json"]

    @pytest.mark.parametrize("given, error, whole", [
        (0, "frame 0 of 19 not given", 0),
        (16, "frame 16 of 19 not given", 1),
        (18, "frame 18 of 19 not given", 1),
        (20, "more than 19 frames given", 2),
        (33, "more than 19 frames given", 2)])
    def test_count_must_be_meta_frame_count(self, tmp_path, given, error, whole):
        with pytest.raises(InvalidParam, match=f"^v: {error}$"):
            write_sequence(tmp_path, SequenceMeta("v", 5.0, 19, 3, 2), self.frames(given))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"frames_{k:06d}.pgm" for k in range(whole)]

    def test_frame_of_another_size(self, tmp_path):
        frames = [make_frame(np.zeros((2, 3)))] * 17 + [make_frame(np.zeros((3, 2)))]
        with pytest.raises(DimensionMismatch, match=r"^v: frame 17 is 2x3, not 3x2$"):
            write_sequence(tmp_path, SequenceMeta("v", 5.0, 18, 3, 2), frames)
        assert [p.name for p in tmp_path.iterdir()] == ["frames_000000.pgm"]

    @pytest.mark.parametrize("make", [
        lambda a: a[:, ::2], lambda a: a.T, lambda a: a[::-1]],
        ids=["strided", "fortran", "reversed"])
    def test_non_contiguous_frame(self, tmp_path, rng, make):
        pixels = make(rng.integers(0, 256, (4, 6), dtype=np.uint8))
        assert not pixels.flags.c_contiguous
        frame = Frame(pixels)
        write_sequence(tmp_path, SequenceMeta("v", 5.0, 1, frame.width, frame.height),
                       [frame])
        assert (tmp_path / "frames_000000.pgm").read_bytes() == frame_bytes(frame)
        assert open_sequence(tmp_path).frame(0) == frame


class TestDetections:
    def test_single_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"frame":0,"class":"car","score":0.9,"bbox":[10,10,20,20]}\n')
        dets = read_detections(path)
        assert rows_of(dets) == [Row(0, "car", 0.9, BBox(10, 10, 20, 20))]

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
        assert rows_of(read_detections(path)) == []

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
        dets = [Row(f, c, s, BBox(x, y, w, h)) for f, c, s, x, y, w, h in rows]
        path = tmp_path_factory.mktemp("rt") / "d.jsonl"
        write_detections(columns(dets), path)
        assert rows_of(read_detections(path)) == dets

    def test_fuzzed_lines_total(self, tmp_path, rng):
        for _ in range(100):
            blob = bytes(rng.integers(32, 127, size=rng.integers(1, 60))).decode()
            path = tmp_path / "d.jsonl"
            path.write_text(blob + "\n")
            try:
                read_detections(path)
            except StallwatchError:
                pass


ROW = '{"frame":0,"class":"car","score":0.5,"bbox":[1,1,2,2]}'


def row_text(frame="0", label='"car"', score="0.5", bbox="[1, 1, 2, 2]"):
    return f'{{"frame": {frame}, "class": {label}, "score": {score}, "bbox": {bbox}}}'


class TestReadJson:
    @pytest.mark.parametrize("text", ["[" * 100_000, '{"a": ' * 100_000, "1" * 5000],
                             ids=["nested-arrays", "nested-objects",
                                  "5000-digit-integer"])
    def test_json_past_the_parser_limits(self, tmp_path, text):
        path = tmp_path / "meta.json"
        path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(f"{path}: ")):
            read_json(path, SequenceMeta)

    def test_infinite_integer(self, tmp_path):
        # json reads 1e400 as inf, and int(inf) raises OverflowError
        path = tmp_path / "meta.json"
        path.write_text('{"video_id": "v1", "fps": 5, "frame_count": 1e400, '
                        '"width": 2, "height": 2}')
        with pytest.raises(ParseError, match=re.escape(f"{path}: bad int value inf")):
            read_json(path, SequenceMeta)


class TestDetectionRows:
    """Every malformed row raises a typed error naming its file and line."""

    @pytest.mark.parametrize("line", [
        row_text(frame="1" * 5000), row_text(bbox="[" * 100_000), "[" * 100_000],
        ids=["5000-digit-integer", "nested-past-the-recursion-limit",
             "nested-line"])
    def test_json_past_the_parser_limits(self, tmp_path, line):
        path = tmp_path / "d.jsonl"
        path.write_text(f"{ROW}\n{line}\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}:2: invalid JSON")):
            read_detections(path)

    @pytest.mark.parametrize("line, error", [
        (row_text(bbox='[1, 2, "3", 4]'), ParseError),
        (row_text(bbox="[[1], 2, 3, 4]"), ParseError),
        (row_text(bbox='["a", 2, 3, 4]'), ParseError),
        (row_text(bbox="[true, 2, 3, 4]"), ParseError),
        (row_text(bbox="[1, 2, 3]"), ParseError),
        (row_text(bbox='"abcd"'), ParseError),
        (row_text(bbox="[NaN, 2, 3, 4]"), InvalidBBox),
        (row_text(bbox="[1e400, 2, 3, 4]"), InvalidBBox),
        (row_text(bbox=f"[1, 2, {10**400}, 4]"), InvalidBBox),
        (row_text(bbox=f"[{MAX_COORD}, 2, 3, 4]"), InvalidBBox),
        (row_text(bbox="[1, 2, 0.5, 4]"), InvalidBBox),
        (row_text(bbox="[-1, 2, 3, 4]"), InvalidBBox),
        (row_text(frame="-1"), ParseError),
        (row_text(frame="1.0"), ParseError),
        (row_text(frame="true"), ParseError),
        (row_text(frame=str(2**63)), ParseError),
        (row_text(label='["car"]'), ParseError),
        (row_text(label="null"), ParseError),
        (row_text(score="true"), ParseError),
        (row_text(score='"0.5"'), ParseError),
        (row_text(score="NaN"), ParseError),
        (row_text(score=str(10**400)), ParseError),
        ('{"frame": 0, "class": "car", "score": 0.5}', ParseError),
        ("[]", ParseError),
        (ROW + " {}", ParseError),
        (ROW + "x", ParseError),
    ])
    def test_bad_row_named(self, tmp_path, line, error):
        path = tmp_path / "d.jsonl"
        path.write_text(ROW + "\n\n" + line + "\n" + ROW + "\n")
        with pytest.raises(error, match=f"^{path}:3: "):
            read_detections(path)

    def test_first_bad_row_wins(self, tmp_path):
        # line 2 fails the field checks, line 3 is not JSON at all
        path = tmp_path / "d.jsonl"
        path.write_text(ROW + "\n" + row_text(score="2") + "\nnot json\n")
        with pytest.raises(ParseError, match=f"^{path}:2: score"):
            read_detections(path)

    def test_float_box_truncates_toward_zero(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(row_text(bbox="[-0.5, 2.9, 3.99, 1.0]") + "\n")
        assert rows_of(read_detections(path)) == [
            Row(0, "car", 0.5, BBox(0, 2, 3, 1))]

    def test_integer_score_is_float(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(row_text(score="1") + "\r\n" + row_text(score="0"))
        dets = read_detections(path)
        assert dets.score.dtype == np.float64
        assert [d.score for d in rows_of(dets)] == [1.0, 0.0]

    def test_columns(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(row_text(frame="7", label='"bus"', score="0.25",
                                 bbox="[1, 2, 3, 4]") + "\n" + ROW + "\n")
        dets = read_detections(path)
        assert len(dets) == 2
        assert dets.frame.tolist() == [7, 0]
        assert dets.boxes.tolist() == [[1, 2, 3, 4], [1, 1, 2, 2]]
        assert dets.score.tolist() == [0.25, 0.5]
        assert dets.labels == ("bus", "car")
        assert (dets.frame.dtype, dets.boxes.dtype) == (np.int64, np.int64)
        with pytest.raises(ValueError):
            dets.boxes[0, 0] = 9

    @pytest.mark.parametrize("line, message", [
        (row_text(frame="-1"), "frame index -1 outside"),
        (row_text(score="7.0"), "score 7.0 outside [0, 1]"),
        (row_text(bbox="[1, 2.5, -3, 4]"), "box values [1, 2.5, -3, 4]: "),
    ])
    def test_range_error_names_the_value(self, tmp_path, line, message):
        path = tmp_path / "d.jsonl"
        path.write_text(ROW + "\n" + line + "\n")
        with pytest.raises(StallwatchError, match=re.escape(f"{path}:2: {message}")):
            read_detections(path)

    def test_empty_file_columns(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("\n  \n")
        dets = read_detections(path)
        assert len(dets) == 0 and dets.boxes.shape == (0, 4)

    def test_validator_shared_with_detector_replies(self):
        # the external detector parses its replies' rows with `_parse_rows`
        objs = [json.loads(ROW), {"frame": 0, "class": "car", "score": True,
                                  "bbox": [1, 1, 2, 2]}]
        with pytest.raises(ParseError, match="^response\\[1\\]: score"):
            _parse_rows(objs, lambda obj: obj, "response[{}]".format)


class TestDetectionsColumns:
    """`Detections` checks every range rule, whoever builds it."""

    def test_sequences_converted(self):
        dets = Detections([3], [2.5, -0.5, 1.9, 7], [1], ["car"])
        assert rows_of(dets) == [Row(3, "car", 1.0, BBox(2, 0, 1, 7))]
        assert (dets.frame.dtype, dets.boxes.dtype, dets.score.dtype) == \
            (np.int64, np.int64, np.float64)
        assert dets.labels == ("car",)

    def test_empty(self):
        dets = Detections()
        assert len(dets) == 0 and dets.boxes.shape == (0, 4)
        assert dets.frame.shape == dets.score.shape == (0,)

    @pytest.mark.parametrize("frame, box, score, error", [
        (-1, [1, 2, 3, 4], 0.5, ParseError),
        (MAX_FRAME + 1, [1, 2, 3, 4], 0.5, ParseError),
        (0, [1, 2, 3, 4], 1.5, ParseError),
        (0, [1, 2, 3, 4], float("nan"), ParseError),
        (0, [1, 2, 3, 4], 10**400, ParseError),
        (0, [-1, 2, 3, 4], 0.5, InvalidBBox),
        (0, [1, 2, 0.9, 4], 0.5, InvalidBBox),
        (0, [1, 2, 3, MAX_COORD], 0.5, InvalidBBox),
        (0, [1, float("inf"), 3, 4], 0.5, InvalidBBox),
        (0, [1, 2, 3, 10**400], 0.5, InvalidBBox),
    ])
    def test_range_rules(self, frame, box, score, error):
        Detections([0, 0], [1, 2, 3, 4] * 2, [0.5, 0.5], ["car"] * 2)  # valid
        with pytest.raises(error):
            Detections([0, frame], [1, 2, 3, 4] + box, [0.5, score], ["car"] * 2)

    def test_select(self):
        dets = Detections([1, 2, 3], [[i, i, 1, 1] for i in range(3)],
                          [0.1, 0.2, 0.3], ["a", "b", "c"])
        kept = dets.select([True, False, True])
        assert rows_of(kept) == [rows_of(dets)[0], rows_of(dets)[2]]
        assert len(dets.select([False] * 3)) == 0


def row_from_obj(obj: dict, where: str) -> Row:
    """One decoded detection object as a `Row`, every rule of a valid row
    checked field by field; errors name `where`.

    bool is not a number here, and box values must be finite; float box
    values truncate toward zero.
    """
    try:
        frame_index = obj["frame"]
        class_label = obj["class"]
        score = obj["score"]
        box = obj["bbox"]
    except KeyError as exc:
        raise ParseError(f"{where}: malformed detection record: {exc!r}") from exc
    if type(frame_index) is not int or not 0 <= frame_index <= MAX_FRAME:
        raise ParseError(f"{where}: frame index {frame_index!r} must be an "
                         f"integer in [0, {MAX_FRAME}]")
    if type(class_label) is not str:
        raise ParseError(f"{where}: class {class_label!r} must be a string")
    if type(score) not in (int, float) or not 0 <= score <= 1:
        raise ParseError(f"{where}: score {score!r} outside [0, 1]")
    if type(box) is not list or len(box) != 4 \
            or not all(type(v) in (int, float) for v in box):
        raise ParseError(f"{where}: bbox {box!r} must be a list of four numbers")
    # also false for nan and infinities
    if not all(abs(v) < MAX_COORD for v in box):
        raise InvalidBBox(f"{where}: box values {box!r} must be finite and "
                          f"below {MAX_COORD}")
    x, y, w, h = map(int, box)
    if x < 0 or y < 0 or w <= 0 or h <= 0:
        raise InvalidBBox(f"{where}: box {[x, y, w, h]} has a negative origin "
                          "or a side that is not positive")
    return Row(frame_index, class_label, float(score), BBox(x, y, w, h))


def loop_read_detections(path) -> list[Row]:
    """read_detections as a per-line loop building one `Row` per row, with
    `json.loads` and `row_from_obj`; kept as the oracle, sharing no code
    with the program's parser."""
    out: list[Row] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{where}: invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise ParseError(f"{where}: expected a JSON object")
            out.append(row_from_obj(obj, where))
    return out


def parse_outcome(read, path):
    """The rows `read` returns, or its error type and the line it names."""
    try:
        dets = read(path)
    except StallwatchError as exc:
        where, _, _ = str(exc).partition(": ")
        assert where.startswith(f"{path}:"), str(exc)
        return type(exc), int(where.rpartition(":")[2])
    return dets if isinstance(dets, list) else rows_of(dets)


# JSON text for each field: mostly valid, with every kind of invalid value
FRAMES = st.one_of(st.integers(0, 10**6).map(str), st.sampled_from(
    ["-1", "1.0", "true", "null", '"3"', str(2**63 - 1), str(2**63), "[0]"]))
LABELS = st.one_of(
    st.sampled_from(['"car"', '"bus"', '"a\u2028b"', '"a\\u2028b"']),
    st.sampled_from(['["car"]', "3", "null", "true"]))
SCORES = st.one_of(st.floats(0, 1).map(repr), st.sampled_from(
    ["0", "1", "1.5", "-0.1", "true", '"0.5"', "NaN", "Infinity", str(10**400)]))
COORDS = st.one_of(
    st.integers(0, 500).map(str),
    st.floats(-0.99, 600).map(repr),
    st.sampled_from(["0", "0.5", "-1", '"3"', "[1]", "true", "null", "NaN",
                     "-Infinity", "1e400", str(10**400), str(MAX_COORD),
                     str(MAX_COORD - 1), f"{MAX_COORD - 0.5!r}"]))
BOXES = st.one_of(
    st.lists(COORDS, min_size=4, max_size=4).map(lambda v: f"[{', '.join(v)}]"),
    st.lists(COORDS, max_size=5).map(lambda v: f"[{', '.join(v)}]"),
    st.sampled_from(['"abcd"', '{"a": 1, "b": 2, "c": 3, "d": 4}', "null"]))


@st.composite
def detection_lines(draw):
    fields = {"frame": draw(FRAMES), "class": draw(LABELS),
              "score": draw(SCORES), "bbox": draw(BOXES)}
    keys = draw(st.permutations(list(fields)))
    if draw(st.integers(0, 9)) == 0:
        keys = keys[1:]
    line = "{" + ", ".join(f'"{k}": {fields[k]}' for k in keys) + "}"
    tail = draw(st.sampled_from(["", "", "", " ", "\t", "\u2028", " {}", "x",
                                 ",", "\u00a0"]))
    return draw(st.sampled_from(["", " ", "\u2028"])) + line + tail


def valid_lines():
    origin = st.one_of(st.integers(0, 40), st.floats(-0.99, 40))
    side = st.one_of(st.integers(1, 40), st.floats(1, 40))
    return st.builds(
        row_text, st.integers(0, 50).map(str),
        st.sampled_from(['"car"', '"a\u2028b"']),
        st.one_of(st.floats(0, 1), st.integers(0, 1)).map(repr),
        st.tuples(origin, origin, side, side).map(
            lambda v: "[" + ", ".join(map(repr, v)) + "]"))


class TestDetectionsOracle:
    @given(lines=st.lists(st.one_of(
               valid_lines(), valid_lines(), detection_lines(),
               st.sampled_from(["", "  ", "not json", "[]", "1", "{}", "{"])),
               max_size=12),
           ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=12,
                         max_size=12))
    @settings(max_examples=400, deadline=None)
    def test_equals_loop(self, tmp_path_factory, lines, ends):
        path = tmp_path_factory.mktemp("dl") / "d.jsonl"
        path.write_bytes("".join(map(str.__add__, lines, ends)).encode())
        assert parse_outcome(read_detections, path) == \
            parse_outcome(loop_read_detections, path)

    @given(rows=st.lists(st.tuples(
               st.integers(0, 2**63 - 1), st.sampled_from(["car", "a\u2028b", ""]),
               st.floats(0, 1), st.integers(0, MAX_COORD - 1),
               st.integers(0, MAX_COORD - 1), st.integers(1, MAX_COORD - 1),
               st.integers(1, MAX_COORD - 1)), max_size=10),
           ensure_ascii=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_valid_files_equal_loop(self, tmp_path_factory, rows, ensure_ascii):
        path = tmp_path_factory.mktemp("dv") / "d.jsonl"
        path.write_text("".join(
            json.dumps({"frame": f, "class": c, "score": s, "bbox": box},
                       ensure_ascii=ensure_ascii) + "\n"
            for f, c, s, *box in rows), encoding="utf-8")
        dets = loop_read_detections(path)
        assert rows_of(read_detections(path)) == dets
        assert len(dets) == len(rows)


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

    def test_inverted_interval_names_the_line(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("video_id,start_seconds,end_seconds\nv1,1,2\n\nv2,5,3\n")
        with pytest.raises(InvalidInterval) as error:
            read_ground_truth(path)
        assert str(error.value) == f"{path}:4: end 3.0 must exceed start 5.0"

    def test_inverted_prediction_names_the_line(self, tmp_path):
        path = tmp_path / "pred.csv"
        path.write_text("video_id,start_seconds,end_seconds,confidence\n"
                        "v1,1,2,0.5\nv2,5,3,0.5\n")
        with pytest.raises(InvalidInterval) as error:
            read_predictions(path)
        assert str(error.value) == f"{path}:3: bad event interval [5.0, 3.0]"

    def test_header_only(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("video_id,start_seconds,end_seconds\n")
        assert read_ground_truth(path) == []

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("video_id,start_seconds,end_seconds\nv1,abc,10\n")
        with pytest.raises(ParseError):
            read_ground_truth(path)

    @given(st.lists(st.floats(min_value=0, allow_nan=False, allow_infinity=False),
                    min_size=2, max_size=2, unique=True).map(sorted))
    @example([40.123456, 280.0])
    @example([1234.5678, 2000.0])
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_written_times_read_back_exactly(self, tmp_path_factory, interval):
        entry = GroundTruthEntry("v1", *interval)
        path = tmp_path_factory.mktemp("gt") / "gt.csv"
        write_ground_truth([entry], path)
        assert read_ground_truth(path) == [entry]


@contextmanager
def file_size_limit(limit: int):
    """Writes past byte `limit` of any file fail with EFBIG, partway through,
    as they would on a full disk."""
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, handler)


# each writes an artifact whose size grows with n
ARTIFACT_WRITERS = {
    "write_atomic": lambda path, n: write_atomic(path, bytes(range(256)) * n),
    "write_atomic-chunks": lambda path, n: write_atomic(
        path, (bytes(range(256)) for _ in range(n))),
    "write_json": lambda path, n: write_json(path, {"values": list(range(n))}),
    "write_frame": lambda path, n: write_frame(make_frame(np.full((n, 8), 7)), path),
    "write_predictions": lambda path, n: write_predictions(
        [AnomalyEvent(f"v{i}", i, i + 1.5, BBox(0, 0, 1, 1), 0.5) for i in range(n)],
        path),
    "write_ground_truth": lambda path, n: write_ground_truth(
        [GroundTruthEntry(f"v{i}", i, i + 1.5) for i in range(n)], path),
    "write_detections": lambda path, n: write_detections(
        Detections(range(n), [(1, 2, 3, 4)] * n, [0.5] * n, ["car"] * n), path),
}


# (module, outermost function) where a file may be opened for writing: the
# one atomic write path, which every artifact, frame segments included,
# goes through
WRITE_SITES = {("codec", "write_atomic")}
OS_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}


def file_writes(node: ast.AST, func: str | None = None):
    """(call name, outermost enclosing function, line) of each call under
    `node` that opens a file for writing or appending, or writes a whole
    file through `Path.write_text` or `Path.write_bytes`."""
    for child in ast.iter_child_nodes(node):
        inner = func
        if func is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = child.name
        if isinstance(child, ast.Call):
            f = child.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            keywords = {k.arg: k.value for k in child.keywords}
            if name == "open" and getattr(getattr(f, "value", None), "id", None) == "os":
                flags = keywords.get("flags", child.args[1] if len(child.args) > 1 else None)
                writes = any(getattr(n, "attr", getattr(n, "id", None)) in OS_WRITE_FLAGS
                             for n in ast.walk(flags))
            elif name == "open":
                at = 1 if isinstance(f, ast.Name) else 0  # open(path, mode), path.open(mode)
                mode = keywords.get("mode", child.args[at] if len(child.args) > at else None)
                writes = mode is not None and (
                    not isinstance(mode, ast.Constant) or bool(set(mode.value) & set("wax+")))
            else:
                writes = name in ("write_text", "write_bytes")
            if writes:
                yield name, inner, child.lineno
        yield from file_writes(child, inner)


class TestAtomicWrites:
    def test_files_are_written_only_at_the_write_sites(self):
        found = [(path.stem, name, func, line)
                 for path in sorted(Path(stallwatch.__file__).parent.glob("*.py"))
                 for name, func, line in file_writes(ast.parse(path.read_text()))]
        assert {(module, func) for module, _, func, _ in found} == WRITE_SITES, found
        assert {name for _, name, _, _ in found} == {"open"}, found

    @pytest.mark.parametrize("writer", ARTIFACT_WRITERS.values(), ids=ARTIFACT_WRITERS)
    def test_failed_write_keeps_the_old_bytes(self, tmp_path, writer):
        path = tmp_path / "artifact"
        writer(path, 10)
        old = path.read_bytes()
        with file_size_limit(4096), pytest.raises(OSError):
            writer(path, 10_000)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]

    @pytest.mark.parametrize("writer", ARTIFACT_WRITERS.values(), ids=ARTIFACT_WRITERS)
    def test_write_replaces_the_file(self, tmp_path, writer):
        writer(tmp_path / "fresh", 20)
        path = tmp_path / "artifact"
        writer(path, 10_000)
        writer(path, 20)
        assert path.read_bytes() == (tmp_path / "fresh").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact", "fresh"]
