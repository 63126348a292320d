import hashlib
import json
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stallwatch import synth
from stallwatch.codec import decode, encode
from stallwatch.errors import InvalidParam, InvalidSpec
from stallwatch.media import (
    FRAMES_PER_FILE,
    SEGMENT_NAME,
    BBox,
    Frame,
    open_sequence,
    read_detections,
    read_ground_truth,
)
from stallwatch.sorting import LightingClass
from stallwatch.synth import (
    CORPUS_PRESETS,
    NOISE_QUANTILES,
    PALETTES,
    FrameBuffers,
    ParkedVehicle,
    RoadBand,
    SceneSpec,
    VehicleSpec,
    _base_canvas,
    _pair_table,
    corpus,
    drawn_boxes,
    generate,
    load_scene,
    make_scene,
    render_frame,
    static_boxes,
)

from conftest import rows_of


def small_scene(**overrides) -> SceneSpec:
    base = dict(
        video_id="v1", duration=10.0, fps=5.0, width=80, height=60,
        lighting=LightingClass.DAY, offroad_intensity=190.0,
        bands=(RoadBand(0, 20, 80, 20, 70.0, 3.0),),
        vehicles=(VehicleSpec(width=10, height=6, intensity=25.0, speed=6.0,
                              spawn=0.0, axis="h", lane=24, direction=1,
                              start=1.0),),
        noise_sigma=1.0, seed=3,
    )
    base.update(overrides)
    return SceneSpec(**base)


def frame_times(spec: SceneSpec) -> np.ndarray:
    return np.arange(spec.frame_count) / spec.fps


def render(spec: SceneSpec, base: np.ndarray, times, rng: np.random.Generator):
    """(frame, (box, class label) of each vehicle drawn) at each of
    `times`, rendered as `generate` renders them, drawing from `rng`, which
    has drawn `base` already: the spec's base canvas, as `_base_canvas`
    draws it from the spec's seed. Each frame is a copy."""
    assert np.array_equal(_base_canvas(spec, np.random.default_rng(spec.seed)), base)
    buffers = FrameBuffers(spec, np.random.default_rng(spec.seed))
    for drawn in drawn_boxes(spec, np.asarray(times, dtype=np.float64)):
        frame = render_frame(buffers, drawn, rng)
        yield Frame(frame.pixels.copy()), [(box, v.class_label) for box, v in drawn]


class TestVehicleKinematics:
    def _veh(self, stall=None):
        return VehicleSpec(width=10, height=6, intensity=25.0, speed=10.0,
                           spawn=2.0, axis="h", lane=24, direction=1,
                           start=5.0, stall=stall)

    def test_linear_motion(self):
        v = self._veh()
        assert v.moving_coord(2.0) == 5.0
        assert v.moving_coord(4.0) == 25.0

    def test_not_spawned_yet(self):
        assert self._veh().box_at(1.0, 200, 100) is None

    def test_frozen_during_stall(self):
        v = self._veh(stall=(4.0, 8.0))
        assert v.moving_coord(4.0) == 25.0
        assert v.moving_coord(6.0) == 25.0
        assert v.moving_coord(8.0) == 25.0
        assert v.moving_coord(9.0) == 35.0

    def test_stall_box(self):
        v = self._veh(stall=(4.0, 8.0))
        box = v.stall_box(200, 100)
        assert (box.x, box.y, box.w, box.h) == (25, 24, 10, 6)

    def test_partially_out_of_frame_hidden(self):
        v = self._veh()
        assert v.box_at(21.0, 200, 100) is None  # x=195, x2=205 > 200


def oracle_moving_coord(v: VehicleSpec, t: float) -> float:
    """`VehicleSpec.moving_coord` for one time, in scalar Python floats."""
    if v.stall is None:
        travel = t - v.spawn
    else:
        s0, s1 = v.stall
        travel = (min(t, s0) - v.spawn) + max(0.0, t - s1)
    return v.start + v.direction * v.speed * travel


def oracle_box_at(v: VehicleSpec, t: float, frame_w: int, frame_h: int):
    """The vehicle's box at time t if it is spawned and fully inside the
    frame, else None: one time at a time, rounding by Python's `round`."""
    if t < v.spawn:
        return None
    pos = int(round(oracle_moving_coord(v, t)))
    x, y = (pos, v.lane) if v.axis == "h" else (v.lane, pos)
    if x < 0 or y < 0 or x + v.width > frame_w or y + v.height > frame_h:
        return None
    return BBox(x, y, v.width, v.height)


FPS_VALUES = (1.0, 2.0, 3.0, 4.0, 7.5, 10.0, 29.97)


@st.composite
def visibility_scenes(draw):
    """Scenes of 1-4 vehicles on either axis and in either direction, most
    of them spawning, stalling and resuming on frame times, and moving a
    multiple of half a pixel a frame from a start on a half pixel, so that
    rounding meets exact halves. A scene is valid: no vehicle is larger
    than the frame, and a stall whose box would be outside the frame is
    dropped."""
    fps = draw(st.sampled_from(FPS_VALUES))
    frames = draw(st.integers(3, 62))
    width, height = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    frame_time = st.integers(0, frames).map(lambda k: k / fps)
    any_time = st.floats(0.0, frames / fps)  # the video's end
    vehicles = []
    for _ in range(draw(st.integers(1, 4))):
        axis = draw(st.sampled_from("hv"))
        extent, cross = (width, height) if axis == "h" else (height, width)
        w = draw(st.integers(1, min(8, width)))
        h = draw(st.integers(1, min(8, height)))
        step = st.integers(1, 12).map(lambda k: k * fps / 2)
        start = st.integers(-2 * extent - 8, 4 * extent + 8).map(lambda k: k / 2)
        times = st.one_of(frame_time, any_time)
        stall = st.none() | st.tuples(times, times).filter(lambda s: s[0] < s[1])
        v = VehicleSpec(
            width=w, height=h, intensity=25.0,
            speed=draw(st.one_of(step, st.floats(0.01, 50.0))),
            spawn=draw(times), axis=axis, lane=draw(st.integers(-3, cross)),
            direction=draw(st.sampled_from((1, -1))),
            start=draw(st.one_of(start, st.floats(-extent - 8.0, 2.0 * extent + 8))),
            stall=draw(stall))
        if v.stall is not None and v.stall_box(width, height) is None:
            v = replace(v, stall=None)
        vehicles.append(v)
    # the last frame time is (frames - 1) / fps: a stall may end after it
    return small_scene(width=width, height=height, fps=fps,
                       duration=frames / fps, bands=(), vehicles=tuple(vehicles))


class TestVisibility:
    @given(spec=visibility_scenes())
    @settings(max_examples=400, deadline=None)
    def test_drawn_boxes_equal_the_scalar_oracle(self, spec):
        times = frame_times(spec)
        oracle = [[oracle_box_at(v, t, spec.width, spec.height) for v in spec.vehicles]
                  for t in times.tolist()]
        assert drawn_boxes(spec, times) == [
            [(box, v) for box, v in zip(boxes, spec.vehicles) if box is not None]
            for boxes in oracle]
        assert [[v.box_at(t, spec.width, spec.height) for v in spec.vehicles]
                for t in times.tolist()] == oracle

    @pytest.mark.parametrize("start,shown", [
        (-0.5, 0), (0.5, 0), (1.5, 2), (-1.5, None), (14.5, 14), (15.5, None)])
    def test_exact_halves_round_to_even(self, start, shown):
        # a 6-pixel-wide mover at rest in a 20-pixel frame
        v = VehicleSpec(width=6, height=2, intensity=25.0, speed=1.0, spawn=0.0,
                        axis="h", lane=0, direction=1, start=start, stall=(0.0, 1.0))
        box = v.box_at(0.5, 20, 4)
        assert (None if box is None else box.x) == shown


class TestGenerate:
    def test_outputs_complete_and_readable(self, tmp_path):
        spec = small_scene()
        generate(spec, tmp_path)
        seq = open_sequence(tmp_path)
        assert seq.frame_count == 50
        assert (seq.width, seq.height) == (80, 60)
        fg = rows_of(read_detections(tmp_path / "foreground.jsonl"))
        assert fg and all(d.class_label == "car" for d in fg)
        assert load_scene(tmp_path / "scene.json") == spec

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate(small_scene(), a)
        generate(small_scene(), b)
        for name in sorted(p.name for p in a.iterdir()):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_seed_changes_pixels(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate(small_scene(seed=1), a)
        generate(small_scene(seed=2), b)
        assert (a / "frames_000000.pgm").read_bytes() != \
               (b / "frames_000000.pgm").read_bytes()

    @pytest.mark.parametrize("count", [0, 1, 15, 16, 17, 33])
    def test_segment_round_trip(self, tmp_path, count):
        spec = small_scene(duration=count / 5.0 or 0.05)
        assert spec.frame_count == count
        generate(spec, tmp_path)
        rng = np.random.default_rng(spec.seed)
        base = _base_canvas(spec, rng)
        frames = [frame for frame, _ in render(spec, base, frame_times(spec), rng)]
        seq = open_sequence(tmp_path)
        assert seq.frame_count == count
        assert [seq.frame(i) for i in range(count)] == frames
        # segment k is the single-image files of its frames, concatenated
        segments = sorted(p.name for p in tmp_path.glob("*.pgm"))
        assert segments == [SEGMENT_NAME % k for k in range(-(-count // FRAMES_PER_FILE))]
        for k, name in enumerate(segments):
            own = frames[k * FRAMES_PER_FILE:(k + 1) * FRAMES_PER_FILE]
            assert (tmp_path / name).read_bytes() == b"".join(
                b"P5\n80 60\n255\n" + frame.pixels.tobytes() for frame in own)

    def test_render_failing_mid_video_leaves_only_whole_segments(self, tmp_path,
                                                                 monkeypatch):
        # a render that raises at frame 21 of 40 leaves segment 0 whole,
        # no part of segment 1 (frames 16 to 31), no temporary file and no
        # meta.json
        spec = small_scene(duration=8.0)
        generate(spec, tmp_path / "whole")
        rendered = []

        def failing_at_21(*args):
            if len(rendered) == 21:
                raise RuntimeError("render failed at frame 21")
            rendered.append(None)
            return render_frame(*args)

        monkeypatch.setattr(synth, "render_frame", failing_at_21)
        with pytest.raises(RuntimeError, match="frame 21"):
            generate(spec, tmp_path / "failed")
        assert [p.name for p in (tmp_path / "failed").iterdir()] == ["frames_000000.pgm"]
        assert (tmp_path / "failed" / "frames_000000.pgm").read_bytes() == (
            tmp_path / "whole" / "frames_000000.pgm").read_bytes()

    def test_ground_truth_matches_stalls(self, tmp_path):
        spec = small_scene(vehicles=(VehicleSpec(
            width=10, height=6, intensity=25.0, speed=6.0, spawn=0.0,
            axis="h", lane=24, direction=1, start=1.0, stall=(3.0, 9.0)),))
        entries = generate(spec, tmp_path)
        assert [(e.start, e.end) for e in entries] == [(3.0, 9.0)]

    def test_foreground_boxes_match_pixels(self, tmp_path):
        spec = small_scene(noise_sigma=0.0)
        generate(spec, tmp_path)
        seq = open_sequence(tmp_path)
        fg = rows_of(read_detections(tmp_path / "foreground.jsonl"))
        by_frame = {}
        for d in fg:
            by_frame.setdefault(d.frame_index, []).append(d.bbox)
        for i in (0, 10, 25):
            pix = seq.frame(i).pixels
            for box in by_frame.get(i, []):
                patch = pix[box.y:box.y2, box.x:box.x2]
                assert np.all(patch == 25)


class TestSceneSerialization:
    def test_round_trip(self):
        spec = make_scene("rt", LightingClass.NIGHT, True, (40.0, 280.0),
                          False, seed=5)
        assert decode(SceneSpec, json.loads(json.dumps(encode(spec)))) == spec

    def test_static_boxes_cover_stall_and_parked(self):
        spec = make_scene("sb", LightingClass.DAY, False, (100.0, 250.0),
                          True, seed=0)
        boxes = static_boxes(spec)
        assert len(boxes) == 2
        intensities = sorted(i for _, i, _ in boxes)
        pal = PALETTES[LightingClass.DAY]
        assert intensities == sorted([pal["vehicle"], pal["parked"]])


class TestCorpusLayout:
    def test_presets_cover_the_matrix(self):
        names = [name for name, *_ in CORPUS_PRESETS]
        assert len(names) == len(set(names)) == 12
        lightings = {l for _, l, *_ in CORPUS_PRESETS}
        assert lightings == set(LightingClass)
        assert any(inter for _, _, inter, _, _ in CORPUS_PRESETS)
        assert sum(1 for *_, stall, _ in CORPUS_PRESETS if stall) == 6
        assert sum(1 for *_, parked in CORPUS_PRESETS if parked) == 3

    def test_corpus_tree(self, acceptance_corpus):
        videos = acceptance_corpus / "videos"
        assert sorted(p.name for p in videos.iterdir()) == \
               sorted(name for name, *_ in CORPUS_PRESETS)
        gt = read_ground_truth(acceptance_corpus / "gt.csv")
        assert len(gt) == 6
        assert {e.video_id for e in gt} == \
               {name for name, *_ in CORPUS_PRESETS if "stall" in name}


def short_specs() -> list[SceneSpec]:
    """Day with a stall, night intersection, snow with a parked vehicle."""
    short = dict(duration=20.0, fps=2.0)
    return [
        make_scene("day_stall", LightingClass.DAY, False, (5.0, 15.0),
                   False, seed=11, **short),
        make_scene("night_cross", LightingClass.NIGHT, True, None,
                   False, seed=12, **short),
        make_scene("snow_parked", LightingClass.SNOW, False, None,
                   True, seed=13, **short),
    ]


def tree_bytes(root) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestCorpusRun:
    def test_same_bytes_as_generate(self, tmp_path):
        specs = short_specs()
        corpus(tmp_path / "corpus", specs=specs)
        single = tmp_path / "single"
        for spec in specs:
            generate(spec, single / "videos" / spec.video_id)
        videos = tree_bytes(tmp_path / "corpus" / "videos")
        assert videos == tree_bytes(single / "videos")
        assert len(videos) == sum(-(-s.frame_count // FRAMES_PER_FILE) + 3
                                  for s in specs)

    def test_ground_truth_in_spec_order(self, tmp_path):
        # the first video is the longest, so it finishes last
        specs = short_specs()
        specs[0] = replace(specs[0], duration=60.0)
        specs[1] = make_scene("night_stall", LightingClass.NIGHT, False,
                              (4.0, 16.0), False, seed=12, duration=20.0,
                              fps=2.0)
        corpus(tmp_path, specs=specs)
        gt = read_ground_truth(tmp_path / "gt.csv")
        assert [(e.video_id, e.start, e.end) for e in gt] == \
               [("day_stall", 5.0, 15.0), ("night_stall", 4.0, 16.0)]

    def test_no_thread_left_running(self, tmp_path):
        before = threading.active_count()
        corpus(tmp_path, specs=short_specs())
        assert threading.active_count() == before

    def test_first_error_stops_the_run(self, tmp_path):
        # the second of three videos fails
        specs = short_specs()
        videos = tmp_path / "videos"
        videos.mkdir()
        (videos / "night_cross").write_text("not a directory")
        before = threading.active_count()
        with pytest.raises(FileExistsError):
            corpus(tmp_path, specs=specs)
        assert threading.active_count() == before
        assert not (tmp_path / "gt.csv").exists()
        assert (videos / "day_stall" / "scene.json").is_file()
        assert not (videos / "snow_parked").exists()

    def test_a_repeated_video_id_stops_the_run_before_any_directory(self, tmp_path):
        # the second video's files would overwrite the first's, and gt.csv
        # would list a stall that no video shows
        specs = [make_scene("v", LightingClass.DAY, False, stall, False, seed=1,
                            duration=10.0, fps=2.0) for stall in ((1.0, 8.0), None)]
        with pytest.raises(InvalidSpec, match="'v'"):
            corpus(tmp_path / "out", specs=specs)
        assert not (tmp_path / "out").exists()


class TestRenderFrame:
    def test_drawn_boxes_match_box_at(self):
        spec = make_scene("rf", LightingClass.DAY, True, (5.0, 15.0), True,
                          seed=4, duration=20.0, fps=2.0)
        spec = replace(spec, vehicles=tuple(
            replace(v, class_label=("car", "truck")[k % 2])
            for k, v in enumerate(spec.vehicles)))
        rng = np.random.default_rng(spec.seed)
        base = _base_canvas(spec, rng)
        seen = 0
        for i, (_, drawn) in enumerate(render(spec, base, frame_times(spec), rng)):
            t = i / spec.fps
            expected = [(v.box_at(t, spec.width, spec.height), v.class_label)
                        for v in spec.vehicles]
            assert drawn == [(b, c) for b, c in expected if b is not None]
            seen += len(drawn)
        assert seen > spec.frame_count


# sha256 over the names and bytes of every file `generate` writes for a
# 2-frame scene: a change to the corpus bytes must be a deliberate edit here.
GOLDEN_SCENE_SHA256 = "3592a110e2923728e1964438eab88edb65e5e9e895497784c31054a07328c767"


def segment_scene() -> SceneSpec:
    """36 frames of 23x17 (an odd pixel count), so three segments, the last
    one partial: a road cross, a parked car, a stall, and movers that
    enter and leave by every frame edge, spawning on and between frames."""
    def mover(axis, lane, direction, start, spawn=0.0, stall=None):
        w, h = (4, 3) if axis == "h" else (3, 4)
        return VehicleSpec(width=w, height=h, intensity=20.0, speed=5.0,
                           spawn=spawn, axis=axis, lane=lane, direction=direction,
                           start=start, stall=stall)
    return SceneSpec(
        video_id="segments", duration=9.0, fps=4.0, width=23, height=17,
        lighting=LightingClass.DAY, offroad_intensity=190.0,
        bands=(RoadBand(0, 6, 23, 6, 70.0, 3.0), RoadBand(9, 0, 6, 17, 70.0, 3.0)),
        vehicles=(mover("h", 6, 1, -3.0), mover("h", 9, -1, 23.0, spawn=0.5),
                  mover("v", 9, 1, -3.0, spawn=1.25), mover("v", 12, -1, 17.0, spawn=2.0),
                  mover("h", 7, 1, 0.5, spawn=0.75, stall=(2.0, 6.5))),
        offroad_parked=(ParkedVehicle(1, 1, 4, 3, 175.0),),
        noise_sigma=1.5, seed=7)


# the same over the files of `segment_scene`
GOLDEN_SEGMENTS_SHA256 = "db4f8878e2f413d6ec04c34d81df8a5c5ba619226748a915260b1326fb006ce0"


class TestNoiseDraw:
    def test_quantile_table(self):
        t = NOISE_QUANTILES
        assert t.shape == (256,) and t.dtype == np.float32
        assert np.all(np.diff(t) > 0)
        assert np.array_equal(t, -t[::-1])
        assert abs(float(t.std()) - 1.0) <= 0.005

    def test_flat_scene_residual(self):
        spec = small_scene(width=320, height=240, offroad_intensity=100.0,
                           bands=(), vehicles=(), noise_sigma=1.5)
        base = np.full((240, 320), 100.0, dtype=np.float32)
        rng = np.random.default_rng(0)
        frames = np.stack([frame.pixels for frame, _ in
                           render(spec, base, frame_times(spec)[:4], rng)])
        residual = frames.astype(np.float64) - np.rint(base)
        assert abs(residual.mean()) < 0.02
        assert abs(residual.std() / spec.noise_sigma - 1.0) <= 0.03

    def test_pair_table(self):
        table = np.random.default_rng(0).permutation(256).astype(np.uint8)
        pairs = _pair_table(table).view(np.uint8).reshape(1 << 16, 2)
        j = np.arange(1 << 16)
        assert np.array_equal(pairs[:, 0], table[j & 255])
        assert np.array_equal(pairs[:, 1], table[j >> 8])

    def test_golden_bytes(self, tmp_path):
        spec = small_scene(duration=0.4)
        generate(spec, tmp_path)
        files = tree_bytes(tmp_path)
        assert spec.frame_count == 2 and len(files) == 4
        h = hashlib.sha256()
        for name, data in files.items():
            h.update(name.encode() + b"\0" + data)
        assert h.hexdigest() == GOLDEN_SCENE_SHA256

    def test_golden_segments(self, tmp_path):
        spec = segment_scene()
        entries = generate(spec, tmp_path)
        assert spec.frame_count == 36 and spec.width * spec.height % 2 == 1
        assert [(e.start, e.end) for e in entries] == [(2.0, 6.5)]
        boxes = read_detections(tmp_path / "foreground.jsonl").boxes
        x, y, w, h = boxes.T
        assert ((x == 0).any() and (y == 0).any() and (x + w == spec.width).any()
                and (y + h == spec.height).any())
        h = hashlib.sha256()
        for name, data in tree_bytes(tmp_path).items():
            h.update(name.encode() + b"\0" + data)
        assert h.hexdigest() == GOLDEN_SEGMENTS_SHA256


def oracle_frame(spec: SceneSpec, base: np.ndarray, t: float,
                 rng: np.random.Generator) -> np.ndarray:
    """The pixels of `render_frame`, the way it once made them: vehicles
    drawn into a copy of `base`, then one uint8 draw per pixel looked up in
    the sigma-scaled quantile table and added."""
    canvas = base.copy()
    for v in spec.vehicles:
        box = v.box_at(t, spec.width, spec.height)
        if box is not None:
            canvas[box.y:box.y2, box.x:box.x2] = v.intensity
    if spec.noise_sigma > 0:
        idx = rng.integers(0, 256, size=canvas.shape, dtype=np.uint8)
        canvas += (NOISE_QUANTILES * np.float32(spec.noise_sigma))[idx]
    return np.clip(np.rint(canvas), 0, 255).astype(np.uint8)


def edge_scene(width: int, height: int, sigma: float) -> SceneSpec:
    """Vehicles on all four frame edges, two of them overlapping, with
    intensities near both ends of the pixel range."""
    def mover(w, h, intensity, axis, lane, direction, start):
        return VehicleSpec(width=w, height=h, intensity=intensity, speed=1.0,
                           spawn=0.0, axis=axis, lane=lane, direction=direction,
                           start=start)
    return small_scene(
        width=width, height=height, duration=3.0, fps=4.0, noise_sigma=sigma,
        seed=width * height,
        bands=(RoadBand(0, 1, width, 2, 70.0, 3.0),),
        vehicles=(mover(2, 2, 250.0, "h", 0, 1, 0.0),
                  mover(3, 3, 128.4, "h", 0, 1, 0.0),
                  mover(2, 2, 3.3, "h", height - 2, -1, width - 2.0),
                  mover(3, 2, 1.7, "v", width - 3, 1, 0.0)))


class TestNoiseOracle:
    # pixel counts 12, 25, 30 and 35: every residue mod 4
    @pytest.mark.parametrize("width,height", [(4, 3), (5, 5), (6, 5), (7, 5)])
    @pytest.mark.parametrize("sigma", [0.0, 1.0, 7.5])
    def test_frames_and_draws_match_the_per_pixel_draw(self, width, height, sigma):
        spec = edge_scene(width, height, sigma)
        ours, theirs = (np.random.default_rng(spec.seed) for _ in range(2))
        base = _base_canvas(spec, ours)
        _base_canvas(spec, theirs)
        edges, overlaps = set(), 0
        for i, (frame, drawn) in enumerate(render(spec, base, frame_times(spec), ours)):
            t = i / spec.fps
            assert np.array_equal(frame.pixels, oracle_frame(spec, base, t, theirs)), i
            boxes = [box for box, _ in drawn]
            for b in boxes:
                edges |= {side for side, on in (
                    ("left", b.x == 0), ("top", b.y == 0),
                    ("right", b.x2 == width), ("bottom", b.y2 == height)) if on}
            overlaps += len(boxes) > 1 and boxes[0].x == boxes[1].x
        assert edges == {"left", "top", "right", "bottom"} and overlaps > 0
        # the generators end in the same state, so every later draw agrees
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert ours.integers(0, 256, size=9).tolist() == \
               theirs.integers(0, 256, size=9).tolist()

    def test_corpus_frame(self):
        spec = make_scene("oracle", LightingClass.SNOW, True, (1.0, 2.0), True,
                          seed=5, duration=3.0, fps=2.0)
        ours, theirs = (np.random.default_rng(spec.seed) for _ in range(2))
        base = _base_canvas(spec, ours)
        _base_canvas(spec, theirs)
        for i, (frame, _) in enumerate(render(spec, base, frame_times(spec), ours)):
            t = i / spec.fps
            assert np.array_equal(frame.pixels, oracle_frame(spec, base, t, theirs)), i
        assert ours.bit_generator.state == theirs.bit_generator.state


def feature_scene(width: int, height: int, sigma: float) -> SceneSpec:
    """A band crossed by an untextured one, a parked vehicle inside the
    first band, and vehicles over both bands, at levels near 0 and 255;
    `width` >= 4 and `height` >= 3. At sigma 1e-3 the two smallest noise
    values are below half a float32 step at 254.5: their float32 sum with
    the off-road level is 254.5, which rounds to even, where the exact sum
    does not."""
    def mover(w, h, intensity, axis, lane):
        return VehicleSpec(width=w, height=h, intensity=intensity, speed=4.0,
                           spawn=0.0, axis=axis, lane=lane, direction=1, start=0.0)
    return small_scene(
        width=width, height=height, duration=2.0, fps=4.0, noise_sigma=sigma,
        seed=width * height, offroad_intensity=254.5,
        bands=(RoadBand(0, 1, width, 2, 1.2, 3.0), RoadBand(1, 0, 2, height, 253.7, 0.0)),
        offroad_parked=(ParkedVehicle(0, 1, 1, 2, 0.4),),
        vehicles=(mover(2, 2, 0.3, "h", 1), mover(1, 2, 255.2, "v", 2)))


LEVELS = st.one_of(st.sampled_from((-0.6, 0.0, 0.4, 0.5, 1.5, 253.5, 254.5, 255.0, 255.6)),
                   st.floats(-4.0, 259.0))


@st.composite
def table_scenes(draw):
    """Small scenes of overlapping bands, parked vehicles and movers at any
    level, most of them near the ends of the pixel range."""
    width, height = draw(st.integers(1, 9)), draw(st.integers(1, 9))

    def rect():
        x, y = draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1))
        return x, y, draw(st.integers(1, width - x)), draw(st.integers(1, height - y))

    bands = [RoadBand(*rect(), draw(LEVELS), draw(st.sampled_from((0.0, 0.7, 3.0))))
             for _ in range(draw(st.integers(0, 3)))]
    parked = [ParkedVehicle(*rect(), draw(LEVELS)) for _ in range(draw(st.integers(0, 2)))]
    vehicles = []
    for _ in range(draw(st.integers(0, 3))):
        axis = draw(st.sampled_from("hv"))
        w, h = draw(st.integers(1, width)), draw(st.integers(1, height))
        extent, length, cross = (width, w, height - h) if axis == "h" else (height, h, width - w)
        vehicles.append(VehicleSpec(
            width=w, height=h, intensity=draw(LEVELS), speed=draw(st.sampled_from((2.0, 4.0))),
            spawn=0.0, axis=axis, lane=draw(st.integers(0, cross)),
            direction=draw(st.sampled_from((1, -1))),
            start=float(draw(st.integers(-length, extent)))))
    return small_scene(
        width=width, height=height, duration=draw(st.integers(1, 4)) / 4.0, fps=4.0,
        offroad_intensity=draw(LEVELS), bands=tuple(bands), offroad_parked=tuple(parked),
        vehicles=tuple(vehicles), noise_sigma=draw(st.sampled_from((0.0, 1e-3, 0.4, 1.5, 7.5))),
        seed=draw(st.integers(0, 2**32)))


class TestTableRenderer:
    # pixel counts 12, 25, 30 and 35: every residue mod 4
    @given(spec=table_scenes())
    @example(spec=feature_scene(4, 3, 1.5))
    @example(spec=feature_scene(5, 5, 0.0))
    @example(spec=feature_scene(6, 5, 7.5))
    @example(spec=feature_scene(7, 5, 1e-3))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_frames_and_draws_equal_the_oracle(self, spec):
        ours, theirs = (np.random.default_rng(spec.seed) for _ in range(2))
        base = _base_canvas(spec, ours)
        _base_canvas(spec, theirs)
        for i, (frame, _) in enumerate(render(spec, base, frame_times(spec), ours)):
            t = i / spec.fps
            assert np.array_equal(frame.pixels, oracle_frame(spec, base, t, theirs)), i
        assert ours.bit_generator.state == theirs.bit_generator.state


class TestDrawWords:
    """A frame's draws are stitched from whole 64-bit outputs, and equal,
    with the generator state after them, the uint16 draw they stand for."""

    @given(pixels=st.integers(1, 64), frames=st.integers(1, 6),
           buffered=st.booleans(), seed=st.integers(0, 2**32))
    @example(pixels=1, frames=6, buffered=True, seed=0)  # all lead, then none
    @example(pixels=2, frames=3, buffered=False, seed=0)
    @example(pixels=61, frames=6, buffered=True, seed=1)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_draws_and_state_equal_the_uint16_draw(self, pixels, frames, buffered, seed):
        # pixels 1-64: every residue mod 4, so of words per frame mod 2
        spec = small_scene(width=pixels, height=1, bands=(RoadBand(0, 0, 1, 1, 70.0, 3.0),),
                           vehicles=(), seed=seed)
        ours, theirs = (np.random.default_rng(seed) for _ in range(2))
        if buffered:  # each holds the high half of a 64-bit output
            for rng in (ours, theirs):
                rng.integers(0, 1 << 32, dtype=np.uint32)
            assert ours.bit_generator.state["has_uint32"] == 1
        buffers = FrameBuffers(spec, ours)
        _base_canvas(spec, theirs)
        for i in range(frames):
            render_frame(buffers, [], ours)
            expected = theirs.integers(0, 1 << 16, (pixels + 1) // 2, dtype=np.uint16)
            assert np.array_equal(buffers.draws, expected), i
            assert ours.bit_generator.state == theirs.bit_generator.state, i

    def test_another_bit_generator_is_refused_before_any_draw(self):
        rng, twin = (np.random.Generator(np.random.MT19937(0)) for _ in range(2))
        with pytest.raises(InvalidParam, match="PCG64 generator, not MT19937"):
            FrameBuffers(small_scene(), rng)
        assert rng.integers(0, 1 << 32, size=4).tolist() == \
               twin.integers(0, 1 << 32, size=4).tolist()
