"""
Deterministic synthetic traffic scenes for end-to-end validation.

Scenes are flat rectangles: textured road bands on a plain background,
moving vehicle rectangles, optional stalls and off-road parked distractors.
The pipeline's math only ever sees pixels-vs-median and boxes, so nothing
fancier is needed. Every output (frames, foreground detections, ground
truth) is byte-identical for a given spec and seed.

`generate` works out where every vehicle is on every frame first, as one
array per vehicle (`VehicleSpec.track`), and renders each frame into
buffers allocated once per video (`FrameBuffers`): the frame is cast
straight into its PGM record, which is written as it is. Per frame, only
the noise draw allocates.

`corpus` renders its videos concurrently on a thread pool of the standard
library's default size, min(32, CPUs + 4), which on a small host is one
thread per video of a short corpus. Each video draws from its own generator
and writes only into its own directory, and ground truth is collected in
spec order, so the corpus is byte-identical whatever the thread scheduling.
The per-frame numpy calls run without the GIL: the uint16 pair draw
(`Generator.integers`), its copy to intp, the pair table `take`, the
float32 multiply and add, `rint`, `clip` and the cast to uint8. Checked,
not assumed, on numpy 2.4: while one thread makes one such call on a
100-frame array (13-35 ms), a second thread running Python code is never
stalled for more than 8 ms (the interpreter's 5 ms switch interval plus
scheduling), where a call that holds the GIL (`sorted` on a list,
65-95 ms) stalls it for the whole call. The threads gain little on a
small host all the same: each frame's calls are short and memory-bound.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

import numpy as np

from .codec import read_json, write_json
from .errors import InvalidSpec
from .media import (
    FRAMES_PER_FILE,
    SEGMENT_NAME,
    BBox,
    Detections,
    Frame,
    GroundTruthEntry,
    frame_record,
    write_detections,
    write_ground_truth,
    write_sequence_meta,
)
from .sorting import LightingClass

SCENE_FILE = "scene.json"
FOREGROUND_FILE = "foreground.jsonl"

# Per-pixel frame noise in units of sigma: the 256 standard-normal quantiles
# at (i + 0.5) / 256, indexed by one uniform uint8 draw per pixel. Std 0.9975,
# bounded at +-2.89.
NOISE_QUANTILES = np.array(
    [NormalDist().inv_cdf((i + 0.5) / 256) for i in range(256)], dtype=np.float32)


@functools.cache
def _noise_pairs() -> np.ndarray:
    """The noise of two pixels for each uint16 value j, as one 8-byte item:
    float32 `NOISE_QUANTILES[j & 255]`, then `NOISE_QUANTILES[j >> 8]`
    (512 KiB, built on first use).

    numpy fills a uint8 or uint16 draw of the full range from 32-bit words,
    low bits first, and drops the rest of the last word of each call. So
    the low byte of uint16 draw j is uint8 draw 2j, its high byte is uint8
    draw 2j + 1, and both draws leave the generator in the same state:
    `render_frame` draws half as many uint16 values as it has pixels
    (rounded up) and gets the pixels of a one-per-pixel uint8 draw.
    """
    pairs = np.empty((256, 256, 2), dtype=np.float32)  # [high, low, pixel]
    pairs[:, :, 0] = NOISE_QUANTILES
    pairs[:, :, 1] = NOISE_QUANTILES[:, None]
    return pairs.view(np.uint64).reshape(1 << 16)


@dataclass(frozen=True)
class RoadBand:
    x: int
    y: int
    w: int
    h: int
    intensity: float
    texture_sigma: float


@dataclass(frozen=True)
class ParkedVehicle:
    x: int
    y: int
    w: int
    h: int
    intensity: float
    class_label: str = field(default="car", metadata={"key": "class"})

    @property
    def bbox(self) -> BBox:
        return BBox(self.x, self.y, self.w, self.h)


@dataclass(frozen=True)
class VehicleSpec:
    """A rectangle moving along one axis, optionally frozen during a stall.

    ``lane`` is the fixed cross-axis coordinate (y for horizontal movers,
    x for vertical ones); ``start`` is the moving coordinate at spawn time.
    """

    width: int
    height: int
    intensity: float
    speed: float            # px/s, > 0
    spawn: float            # seconds
    axis: str               # "h" or "v"
    lane: int
    direction: int          # +1 or -1
    start: float
    stall: tuple[float, float] | None = None
    class_label: str = field(default="car", metadata={"key": "class"})

    def moving_coord(self, t: float | np.ndarray) -> float | np.ndarray:
        """Position along the travel axis at time t, a float or a float64
        array (before visibility clip)."""
        if self.stall is None:
            travel = t - self.spawn
        else:
            s0, s1 = self.stall
            travel = (np.minimum(t, s0) - self.spawn) + np.maximum(0.0, t - s1)
        return self.start + self.direction * self.speed * travel

    def track(self, t: np.ndarray, frame_w: int,
              frame_h: int) -> tuple[np.ndarray, np.ndarray]:
        """The indices of the times in the float64 array `t` at which the
        vehicle shows, spawned and fully inside the frame, and the moving
        coordinate of its box there: `moving_coord` rounded half to even,
        as int64."""
        pos = np.rint(self.moving_coord(t))
        extent, length, cross_extent, cross = (
            (frame_w, self.width, frame_h, self.height) if self.axis == "h"
            else (frame_h, self.height, frame_w, self.width))
        # nan and infinities fail every comparison
        shown = ((t >= self.spawn) & (pos >= 0) & (pos <= extent - length)
                 & (0 <= self.lane <= cross_extent - cross))
        index = np.flatnonzero(shown)
        return index, pos[index].astype(np.int64)

    def box(self, pos: int) -> BBox:
        """The box with moving coordinate `pos`."""
        x, y = (pos, self.lane) if self.axis == "h" else (self.lane, pos)
        return BBox(x, y, self.width, self.height)

    def box_at(self, t: float, frame_w: int, frame_h: int) -> BBox | None:
        """Box if the vehicle is spawned and fully inside the frame, else None."""
        index, pos = self.track(np.array([t], dtype=np.float64), frame_w, frame_h)
        return self.box(int(pos[0])) if index.size else None

    def stall_box(self, frame_w: int, frame_h: int) -> BBox | None:
        if self.stall is None:
            return None
        return self.box_at(self.stall[0], frame_w, frame_h)


@dataclass(frozen=True)
class SceneSpec:
    video_id: str
    duration: float
    fps: float
    width: int
    height: int
    lighting: LightingClass
    offroad_intensity: float
    bands: tuple[RoadBand, ...]
    vehicles: tuple[VehicleSpec, ...] = ()
    offroad_parked: tuple[ParkedVehicle, ...] = ()
    noise_sigma: float = 1.5
    seed: int = 0

    @property
    def frame_count(self) -> int:
        return int(round(self.duration * self.fps))


def load_scene(path: str | Path) -> SceneSpec:
    return read_json(path, SceneSpec)


def _validate(spec: SceneSpec) -> None:
    if spec.seed < 0:
        raise InvalidSpec(f"scene seed must be non-negative, got {spec.seed}")
    if not (0 < spec.duration < math.inf and 0 < spec.fps < math.inf):
        raise InvalidSpec(f"duration and fps must be positive and finite, got "
                          f"{spec.duration} and {spec.fps}")
    if not 0 <= spec.noise_sigma < math.inf:
        raise InvalidSpec(f"noise_sigma must be non-negative and finite, got "
                          f"{spec.noise_sigma}")
    for kind, rects in (("road band", spec.bands),
                        ("parked vehicle", spec.offroad_parked)):
        for r in rects:
            if not (r.w > 0 and r.h > 0 and 0 <= r.x and r.x + r.w <= spec.width
                    and 0 <= r.y and r.y + r.h <= spec.height):
                raise InvalidSpec(f"{kind} {r.w}x{r.h} at ({r.x}, {r.y}) empty or "
                                  f"not fully inside the {spec.width}x{spec.height} "
                                  f"frame")
    for v in spec.vehicles:
        if not (0 < v.width <= spec.width and 0 < v.height <= spec.height):
            raise InvalidSpec(f"vehicle {v.width}x{v.height} empty or larger than frame")
        if v.axis not in ("h", "v"):
            raise InvalidSpec(f"vehicle axis must be 'h' or 'v', got {v.axis!r}")
        if v.speed <= 0:
            raise InvalidSpec("vehicle speed must be positive")
        if v.stall is not None:
            s0, s1 = v.stall
            if not (0 <= s0 < s1 <= spec.duration):
                raise InvalidSpec(f"stall ({s0}, {s1}) outside video duration")
            if v.stall_box(spec.width, spec.height) is None:
                raise InvalidSpec("stalled vehicle not fully inside frame")
    if spec.lighting is LightingClass.NIGHT and spec.offroad_intensity > 50:
        raise InvalidSpec("night scene baseline must stay in the 0-50 range")
    if spec.lighting is LightingClass.SNOW and spec.offroad_intensity < 200:
        raise InvalidSpec("snow scene baseline must sit in the 200-250 range")


def static_boxes(spec: SceneSpec) -> list[tuple[BBox, float, str]]:
    """All boxes that are stationary at some point: stalls plus parked."""
    out: list[tuple[BBox, float, str]] = []
    for v in spec.vehicles:
        box = v.stall_box(spec.width, spec.height)
        if box is not None:
            out.append((box, v.intensity, v.class_label))
    for p in spec.offroad_parked:
        out.append((p.bbox, p.intensity, p.class_label))
    return out


def _base_canvas(spec: SceneSpec, rng: np.random.Generator) -> np.ndarray:
    """Static content: background, textured bands, parked vehicles."""
    canvas = np.full((spec.height, spec.width), spec.offroad_intensity, dtype=np.float32)
    for band in spec.bands:
        patch = np.full((band.h, band.w), band.intensity, dtype=np.float32)
        if band.texture_sigma > 0:
            patch += rng.normal(0.0, band.texture_sigma, size=patch.shape).astype(np.float32)
        canvas[band.y : band.y + band.h, band.x : band.x + band.w] = patch
    for p in spec.offroad_parked:
        canvas[p.y : p.y + p.h, p.x : p.x + p.w] = p.intensity
    return canvas


def drawn_boxes(spec: SceneSpec,
                t: np.ndarray) -> list[list[tuple[BBox, VehicleSpec]]]:
    """For each time of the float64 array `t`, the box of every vehicle
    that shows then, in spec order, which is the order they are drawn in."""
    drawn: list[list[tuple[BBox, VehicleSpec]]] = [[] for _ in range(len(t))]
    for v in spec.vehicles:
        index, pos = v.track(t, spec.width, spec.height)
        for i, p in zip(index.tolist(), pos.tolist()):
            drawn[i].append((v.box(p), v))
    return drawn


class FrameBuffers:
    """The memory `render_frame` works in, allocated once per video: the
    intp pair indices, the float32 canvas (its pixel count rounded up to
    even) and the frame's PGM record (`media.frame_record`), whose pixels
    take the finished frame. Each frame overwrites them all."""

    def __init__(self, width: int, height: int):
        n = width * height
        self.index = np.empty((n + 1) // 2, dtype=np.intp)
        self.noise = np.empty(n + n % 2, dtype=np.float32)
        self.canvas = self.noise[:n].reshape(height, width)
        self.record, self.pixels = frame_record(width, height)


def render_frame(spec: SceneSpec, base: np.ndarray,
                 drawn: list[tuple[BBox, VehicleSpec]], rng: np.random.Generator,
                 buffers: FrameBuffers) -> Frame:
    """The next frame, with the vehicles `drawn` (see `drawn_boxes`) drawn
    in, rendered into `buffers`; the frame shares `buffers.pixels`, so the
    next call overwrites it.

    Its pixels are those of one uint8 draw per pixel looked up in
    `NOISE_QUANTILES`, scaled by the spec's sigma and added to `base` with
    the vehicles drawn in, but the draw and the lookup go two pixels at a
    time: see `_noise_pairs`.
    """
    canvas = buffers.canvas
    if spec.noise_sigma > 0:
        pairs = rng.integers(0, 1 << 16, size=buffers.index.size, dtype=np.uint16)
        np.copyto(buffers.index, pairs)
        # `take`, not indexing: 40% faster here. Given intp indices and
        # "wrap", which cannot change a uint16 index, it gathers straight
        # into `out`; the default "raise" copies through a second buffer
        np.take(_noise_pairs(), buffers.index, out=buffers.noise.view(np.uint64),
                mode="wrap")
        canvas *= np.float32(spec.noise_sigma)
    else:  # no noise and no draw: `rng` is left as it was
        canvas.fill(0.0)
    # a vehicle's pixels are its intensity plus their noise, as if it
    # had been drawn into `base`; the last one drawn wins
    patches = [canvas[box.y : box.y2, box.x : box.x2] + np.float32(v.intensity)
               for box, v in drawn]
    canvas += base
    for (box, _), patch in zip(drawn, patches):
        canvas[box.y : box.y2, box.x : box.x2] = patch
    np.rint(canvas, out=canvas)
    np.clip(canvas, 0, 255, out=canvas)
    np.copyto(buffers.pixels, canvas, casting="unsafe")
    return Frame(buffers.pixels)


def generate(spec: SceneSpec, out_dir: str | Path) -> list[GroundTruthEntry]:
    """Render a scene to a frame directory; returns its ground-truth stalls.

    Writes meta.json, the frames in segment files frames_NNNNNN.pgm of
    FRAMES_PER_FILE frames each (see `stallwatch.media`), foreground.jsonl
    (oracle detections for every visible vehicle on every frame, score 1.0)
    and scene.json.
    """
    _validate(spec)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    base = _base_canvas(spec, rng)
    buffers = FrameBuffers(spec.width, spec.height)

    parked = [(p.bbox, p.class_label) for p in spec.offroad_parked]
    frames, boxes, labels = [], [], []  # the foreground's columns
    n = spec.frame_count
    drawn = drawn_boxes(spec, np.arange(n) / spec.fps)
    for first in range(0, n, FRAMES_PER_FILE):
        with open(out / (SEGMENT_NAME % (first // FRAMES_PER_FILE)), "wb") as segment:
            for i in range(first, min(first + FRAMES_PER_FILE, n)):
                render_frame(spec, base, drawn[i], rng, buffers)
                segment.write(buffers.record)
                shown = [(box, v.class_label) for box, v in drawn[i]] + parked
                frames += [i] * len(shown)
                boxes += [(box.x, box.y, box.w, box.h) for box, _ in shown]
                labels += [label for _, label in shown]

    write_sequence_meta(out, spec.video_id, spec.fps, n, spec.width, spec.height)
    write_detections(Detections(frames, boxes, [1.0] * len(frames), labels),
                     out / FOREGROUND_FILE)
    write_json(out / SCENE_FILE, spec)

    return [
        GroundTruthEntry(video_id=spec.video_id, start=v.stall[0], end=v.stall[1])
        for v in spec.vehicles
        if v.stall is not None
    ]


# ---------------------------------------------------------------------------
# Standard acceptance corpus
# ---------------------------------------------------------------------------

# Scene palettes per lighting class. Road vehicles are darker than the road
# so a stalled vehicle baked into a background image still satisfies the
# road-mask inequality; parked distractors are near the off-road level so
# they never do. Road bands are narrower than twice the mask block radius,
# keeping local contrast high across the whole band.
PALETTES = {
    LightingClass.DAY: dict(road=70.0, offroad=190.0, vehicle=25.0, parked=175.0,
                            texture=5.0),
    LightingClass.NIGHT: dict(road=15.0, offroad=45.0, vehicle=5.0, parked=38.0,
                              texture=2.5),
    LightingClass.SNOW: dict(road=110.0, offroad=240.0, vehicle=40.0, parked=225.0,
                             texture=4.0),
}

CORPUS_WIDTH = 320
CORPUS_HEIGHT = 240
CORPUS_FPS = 10.0
CORPUS_DURATION = 300.0

BAND_H = 24
VEH_W, VEH_H = 16, 6
SPEED = 30.0

# lane offsets inside a band: stall lane has no through traffic, so a
# stalled box never collects foreground support before the stall begins
STALL_LANE = 2
FWD_LANE = 9
BWD_LANE = 16


def _traffic(axis: str, band_origin: int, extent: int, veh: dict,
             duration: float, phase: float) -> list[VehicleSpec]:
    """Opposing flows in the two through lanes of one band."""
    w, h = (VEH_W, VEH_H) if axis == "h" else (VEH_H, VEH_W)
    length = w if axis == "h" else h
    out = []
    for direction, lane_off, offset in ((1, FWD_LANE, phase), (-1, BWD_LANE, phase + 11.0)):
        start = 1.0 if direction == 1 else float(extent - length - 1)
        t = offset
        while t < duration - 5.0:
            out.append(
                VehicleSpec(width=w, height=h, intensity=veh["vehicle"],
                            speed=SPEED, spawn=t, axis=axis,
                            lane=band_origin + lane_off, direction=direction,
                            start=start)
            )
            t += 25.0
    return out


def _stall_vehicle(axis: str, band_origin: int, veh: dict,
                   stall: tuple[float, float], stall_pos: float) -> VehicleSpec:
    w, h = (VEH_W, VEH_H) if axis == "h" else (VEH_H, VEH_W)
    travel = (stall_pos - 1.0) / SPEED
    return VehicleSpec(
        width=w, height=h, intensity=veh["vehicle"], speed=SPEED,
        spawn=stall[0] - travel, axis=axis, lane=band_origin + STALL_LANE,
        direction=1, start=1.0, stall=stall,
    )


def make_scene(
    video_id: str,
    lighting: LightingClass,
    intersection: bool,
    stall: tuple[float, float] | None,
    parked: bool,
    seed: int,
    duration: float = CORPUS_DURATION,
    fps: float = CORPUS_FPS,
) -> SceneSpec:
    pal = PALETTES[lighting]
    band_y = (CORPUS_HEIGHT - BAND_H) // 2
    bands = [RoadBand(0, band_y, CORPUS_WIDTH, BAND_H, pal["road"], pal["texture"])]
    vehicles = _traffic("h", band_y, CORPUS_WIDTH, pal, duration, phase=2.0)
    if intersection:
        band_x = (CORPUS_WIDTH - BAND_H) // 2
        bands.append(RoadBand(band_x, 0, BAND_H, CORPUS_HEIGHT, pal["road"], pal["texture"]))
        vehicles += _traffic("v", band_x, CORPUS_HEIGHT, pal, duration, phase=8.0)
    if stall is not None:
        vehicles.append(_stall_vehicle("h", band_y, pal, stall, stall_pos=60.0))
    parked_list = (
        [ParkedVehicle(x=40, y=30, w=VEH_W, h=VEH_H, intensity=pal["parked"])]
        if parked else []
    )
    return SceneSpec(
        video_id=video_id,
        duration=duration,
        fps=fps,
        width=CORPUS_WIDTH,
        height=CORPUS_HEIGHT,
        lighting=lighting,
        offroad_intensity=pal["offroad"],
        bands=tuple(bands),
        vehicles=tuple(vehicles),
        offroad_parked=tuple(parked_list),
        seed=seed,
    )


# (name, lighting, intersection, stall interval, parked distractor).
# Day freeways run on 30 s background windows so their stall can be short;
# everything else gets a single 300 s window and needs the vehicle static
# for most of it.
CORPUS_PRESETS: list[tuple[str, LightingClass, bool, tuple[float, float] | None, bool]] = [
    ("day_freeway_stall", LightingClass.DAY, False, (100.0, 250.0), False),
    ("day_freeway_clean", LightingClass.DAY, False, None, False),
    ("day_freeway_parked", LightingClass.DAY, False, None, True),
    ("day_intersection_stall", LightingClass.DAY, True, (40.0, 280.0), False),
    ("day_intersection_parked", LightingClass.DAY, True, None, True),
    ("night_freeway_stall", LightingClass.NIGHT, False, (40.0, 280.0), False),
    ("night_freeway_clean", LightingClass.NIGHT, False, None, False),
    ("night_intersection_stall", LightingClass.NIGHT, True, (40.0, 280.0), False),
    ("snow_freeway_stall", LightingClass.SNOW, False, (40.0, 280.0), False),
    ("snow_freeway_parked", LightingClass.SNOW, False, None, True),
    ("snow_intersection_clean", LightingClass.SNOW, True, None, False),
    ("snow_intersection_stall", LightingClass.SNOW, True, (40.0, 280.0), False),
]


def corpus_specs(seed: int) -> list[SceneSpec]:
    return [
        make_scene(name, lighting, intersection, stall, parked,
                   seed=seed * 1000 + i)
        for i, (name, lighting, intersection, stall, parked) in enumerate(CORPUS_PRESETS)
    ]


def corpus(out_dir: str | Path, seed: int = 0,
           specs: list[SceneSpec] | None = None) -> Path:
    """Generate the full synthetic corpus: videos/<id>/... plus gt.csv.

    Every spec is validated before any video is rendered, so an invalid one
    raises InvalidSpec with no video written. The videos then render
    concurrently, one `generate` call per video on a thread pool; an error
    in one of them is raised here, as its own type, once every thread has
    finished.
    """
    if specs is None:
        specs = corpus_specs(seed)
    for spec in specs:
        _validate(spec)
    root = Path(out_dir)
    videos = root / "videos"
    videos.mkdir(parents=True, exist_ok=True)
    with ThreadPoolExecutor() as pool:
        per_video = list(pool.map(generate, specs,
                                  [videos / spec.video_id for spec in specs]))
    write_ground_truth([e for entries in per_video for e in entries],
                       root / "gt.csv")
    return root
