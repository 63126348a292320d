"""
Deterministic synthetic traffic scenes for end-to-end validation.

Scenes are flat rectangles: textured road bands on a plain background,
moving vehicle rectangles, optional stalls and off-road parked distractors.
The pipeline's math only ever sees pixels-vs-median and boxes, so nothing
fancier is needed. Every output (frames, foreground detections, ground
truth) is byte-identical for a given spec and seed.

`generate` works out where every vehicle is on every frame first, as one
array per vehicle (`VehicleSpec.track`), and renders each frame into
buffers built once per video (`FrameBuffers`). `media.write_sequence`
writes each frame to its segment as it is rendered.

A pixel is its float32 level plus its noise, `NOISE_QUANTILES[u]` scaled
by the spec's sigma for one uniform uint8 draw `u`, rounded and clipped to
uint8. Off-road ground and each vehicle have one constant level, so their
pixels are a function of `u` alone: `FrameBuffers` tabulates that function
once per level, and a frame looks those pixels up instead of computing
them. The tables are exact: an entry is computed from the same float32
operands by the same float32 operations as the pixel it stands for, and
each operation rounds the same way on one value as on a whole frame. Only
the static rectangles of the base canvas, the textured road bands and the
parked vehicles, keep the float path, a few thousand pixels a frame.

A frame's draws are numpy's uint16 draw of half as many values as it has
pixels, but made as whole 64-bit outputs of the PCG64 generator: see
`_draw_words`. The bytes and the generator state after every frame are
those of the one-value-at-a-time draw, which `TestNoiseOracle`,
`TestTableRenderer`, `TestDrawWords` and the golden digests pin.

Each spec type checks its rules in `__post_init__`, raising `InvalidSpec`,
so a spec is valid however it was built; `load_scene`'s error names the
file. A scene's `video_id` names its directory, so it must be one path
component. `generate` checks nothing; `corpus` checks only that no two
of its specs share a `video_id`, whose files would overwrite each other.

`corpus` renders its videos one after another in the calling thread.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

import numpy as np

from .codec import read_json, write_json
from .errors import (AT_LEAST_1, FINITE, NON_NEGATIVE, POSITIVE, InvalidParam,
                     InvalidSpec, check)
from .media import (
    BBox,
    Detections,
    Frame,
    GroundTruthEntry,
    SequenceMeta,
    write_detections,
    write_ground_truth,
    write_sequence,
)
from .sorting import LightingClass

SCENE_FILE = "scene.json"
FOREGROUND_FILE = "foreground.jsonl"

# Per-pixel frame noise in units of sigma: the 256 standard-normal quantiles
# at (i + 0.5) / 256, indexed by one uniform uint8 draw per pixel. Std 0.9975,
# bounded at +-2.89.
NOISE_QUANTILES = np.array(
    [NormalDist().inv_cdf((i + 0.5) / 256) for i in range(256)], dtype=np.float32)

# a video id names the video's directory under videos/: one path component
_ONE_PATH_COMPONENT = (
    lambda v: isinstance(v, str) and v not in ("", ".", "..")
    and not any(c in v for c in ("/", os.sep, "\0")),
    "one path component: not empty, '.' or '..', without '/' or NUL")


@dataclass(frozen=True)
class RoadBand:
    x: int
    y: int
    w: int
    h: int
    intensity: float
    texture_sigma: float

    def __post_init__(self):
        check(InvalidSpec, self, "road band ", x=NON_NEGATIVE, y=NON_NEGATIVE,
              w=POSITIVE, h=POSITIVE, intensity=FINITE, texture_sigma=NON_NEGATIVE)


@dataclass(frozen=True)
class ParkedVehicle:
    x: int
    y: int
    w: int
    h: int
    intensity: float
    class_label: str = field(default="car", metadata={"key": "class"})

    def __post_init__(self):
        check(InvalidSpec, self, "parked vehicle ", x=NON_NEGATIVE, y=NON_NEGATIVE,
              w=POSITIVE, h=POSITIVE, intensity=FINITE)

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

    def __post_init__(self):
        check(InvalidSpec, self, "vehicle ", width=POSITIVE, height=POSITIVE,
              intensity=FINITE, speed=POSITIVE, spawn=FINITE,
              axis=(lambda a: a in ("h", "v"), "'h' or 'v'"),
              direction=(lambda d: d in (1, -1), "+1 or -1"), start=FINITE,
              stall=(lambda s: s is None or 0 <= s[0] < s[1],
                     "None or (s0, s1) with 0 <= s0 < s1"))

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
    """One video's scene; it checks its parts against its frame and duration."""

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

    def __post_init__(self):
        check(InvalidSpec, self, "scene ", video_id=_ONE_PATH_COMPONENT,
              seed=NON_NEGATIVE, duration=POSITIVE, fps=POSITIVE,
              noise_sigma=NON_NEGATIVE, offroad_intensity=FINITE,
              width=AT_LEAST_1, height=AT_LEAST_1)
        frame = f"the {self.width}x{self.height} frame"
        for name, rects in (("bands", self.bands), ("offroad_parked", self.offroad_parked)):
            for r in rects:
                if r.x + r.w > self.width or r.y + r.h > self.height:
                    raise InvalidSpec(f"{name}: {r.w}x{r.h} at ({r.x}, {r.y}) "
                                      f"not fully inside {frame}")
        for v in self.vehicles:
            if v.width > self.width or v.height > self.height:
                raise InvalidSpec(f"vehicles: {v.width}x{v.height} larger than {frame}")
            if v.stall is not None and (v.stall[1] > self.duration or v.stall_box(
                    self.width, self.height) is None):
                raise InvalidSpec(f"vehicles: stall {v.stall} must end by {self.duration}"
                                  f" s, the stalled vehicle fully inside {frame}")
        if self.lighting is LightingClass.NIGHT and self.offroad_intensity > 50:
            raise InvalidSpec("night scene offroad_intensity must stay in the 0-50 range")
        if self.lighting is LightingClass.SNOW and self.offroad_intensity < 200:
            raise InvalidSpec("snow scene offroad_intensity must sit in the 200-250 range")

    @property
    def frame_count(self) -> int:
        return int(round(self.duration * self.fps))


def load_scene(path: str | Path) -> SceneSpec:
    return read_json(path, SceneSpec)


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


def _level_table(noise: np.ndarray, level: float) -> np.ndarray:
    """The pixel at a constant `level` for each uint8 draw u, given the
    float32 `noise` of each u: rint(noise[u] + level) clipped to [0, 255],
    in float32, as uint8."""
    return np.clip(np.rint(noise + np.float32(level)), 0, 255).astype(np.uint8)


def _pair_table(table: np.ndarray) -> np.ndarray:
    """The two pixels of each uint16 value j as one uint16 item: uint8
    `table[j & 255]`, then `table[j >> 8]`.

    numpy fills a uint8 or uint16 draw of the full range from 32-bit words,
    low bits first, and drops the rest of the last word of each call. So
    the low byte of uint16 draw j is uint8 draw 2j, its high byte is uint8
    draw 2j + 1, and both draws leave the generator in the same state:
    `render_frame` draws half as many uint16 values as it has pixels
    (rounded up) and gets the pixels of a one-per-pixel uint8 draw. It
    reads them from the little-endian bytes of those words, which
    `_draw_words` stitches together.
    """
    pairs = np.empty((256, 256, 2), dtype=np.uint8)  # [high, low, pixel]
    pairs[:, :, 0] = table
    pairs[:, :, 1] = table[:, None]
    return pairs.view(np.uint16).reshape(1 << 16)


class FrameBuffers:
    """What `render_frame` works from, built once per video from its spec:
    the base canvas (`_base_canvas`, whose band texture it draws from
    `rng`) on each band and parked vehicle, the pixel tables of the
    constant levels (see the module docstring), and the memory each frame
    overwrites: the 32-bit words of the noise draw (`words`, whose first
    uint16 values are the frame's `draws`), their intp copy, the looked-up
    off-road pixels and the pixels of the finished frame.

    `carry` is 1 while `rng` holds the buffered high half of a 64-bit
    output (PCG64's `has_uint32`): it is read from the generator's state
    once, after the base canvas, and `_draw_words` keeps it from frame to
    frame, so `rng` must draw for nothing else in between. `rng` must be
    PCG64, the bit generator `np.random.default_rng` builds; any other
    raises InvalidParam. MT19937, for one, puts the first 32-bit output of
    a 64-bit one in its high half, so the stitched words would differ.
    """

    def __init__(self, spec: SceneSpec, rng: np.random.Generator):
        if type(rng.bit_generator) is not np.random.PCG64:
            raise InvalidParam(f"frames draw from a PCG64 generator, not "
                               f"{type(rng.bit_generator).__name__}")
        self.noisy = spec.noise_sigma > 0
        self.noise = NOISE_QUANTILES * np.float32(spec.noise_sigma)
        self.offroad = _pair_table(_level_table(self.noise, spec.offroad_intensity))
        self.levels = {level: _level_table(self.noise, level)
                       for level in {v.intensity for v in spec.vehicles}}
        base = _base_canvas(spec, rng)
        self.carry = rng.bit_generator.state["has_uint32"]
        self.static = []  # (rows, columns, a contiguous copy of the base there)
        for r in (*spec.bands, *spec.offroad_parked):
            rows, cols = slice(r.y, r.y + r.h), slice(r.x, r.x + r.w)
            self.static.append((rows, cols, base[rows, cols].copy()))
        draws = (spec.width * spec.height + 1) // 2
        # with no noise nothing is drawn, and every pixel reads draw 0
        self.words = np.zeros((draws + 1) // 2, dtype=np.uint32)
        self.draws = self.words.view(np.uint16)[:draws]
        self.index = np.zeros(draws, dtype=np.intp)
        self.pairs = np.empty(draws, dtype=np.uint16)
        self.pixels = np.empty((spec.height, spec.width), dtype=np.uint8)


def _draw_words(buffers: FrameBuffers, rng: np.random.Generator) -> None:
    """Fill `buffers.words` as `rng.integers(0, 1 << 16, dtype=np.uint16)`
    of `buffers.draws.size` values would, words and generator state alike,
    but from whole 64-bit outputs.

    That uint16 draw takes one 32-bit word per two values through PCG64's
    `next_uint32`, which returns the low half of a 64-bit output and keeps
    the high half for the next call (`has_uint32`, `uinteger`). So the
    words come in three parts: a buffered half, if `buffers.carry` says
    there is one, through a one-word uint32 draw; then the 64-bit outputs
    of `random_raw`, whose little-endian halves are low first; then the
    last one or two words through a uint32 draw, so the generator ends
    with the same buffered half as the uint16 draw. `random_raw` leaves
    the buffer alone. For a 320x240 frame on a 2-vCPU x86-64 host, its
    outputs took 27 us, a full-range uint64 `integers` 32 us and the
    uint16 draw 58 us.
    """
    words = buffers.words
    lead = buffers.carry
    rest = words.size - lead
    tail = min(rest, 2 - rest % 2)  # 0 only when the buffered half was all
    # in this order: the tail's first word would take the buffered half
    parts = [rng.integers(0, 1 << 32, size=1, dtype=np.uint32)] if lead else []
    parts.append(rng.bit_generator.random_raw((rest - tail) // 2).view(np.uint32))
    parts.append(rng.integers(0, 1 << 32, size=tail, dtype=np.uint32))
    np.concatenate(parts, out=words)
    buffers.carry = rest % 2


def render_frame(buffers: FrameBuffers, drawn: list[tuple[BBox, VehicleSpec]],
                 rng: np.random.Generator) -> Frame:
    """The next frame of the video `buffers` were built for, with the
    vehicles `drawn` (see `drawn_boxes`) drawn in, from the `rng` the
    buffers were built with; the frame shares `buffers.pixels`, so the
    next call overwrites it.

    Its pixels are those of one uint8 draw per pixel looked up in
    `NOISE_QUANTILES`, scaled by the spec's sigma and added to the base
    canvas with the vehicles drawn in, but the draw and the off-road lookup
    go two pixels at a time (see `_pair_table`), and the draw is made of
    64-bit generator outputs (see `_draw_words`). The arrays' own `take`
    and the ufuncs are called directly: `np.take` and `np.clip` would add
    a wrapper call each, thousands per corpus.
    """
    pixels = buffers.pixels
    draws = buffers.draws
    if buffers.noisy:  # else `rng` is left as it was
        _draw_words(buffers, rng)
        np.copyto(buffers.index, draws)
    # `take`, not indexing: 40% faster here. Given intp indices and
    # "wrap", which cannot change a uint16 index, it gathers straight
    # into `out`; the default "raise" copies through a second buffer
    buffers.offroad.take(buffers.index, out=buffers.pairs, mode="wrap")
    np.copyto(pixels.reshape(-1), buffers.pairs.view(np.uint8)[:pixels.size])
    u = draws.view(np.uint8)[:pixels.size].reshape(pixels.shape)
    for rows, cols, base in buffers.static:
        patch = buffers.noise.take(u[rows, cols])
        patch += base
        np.rint(patch, out=patch)
        # the pixel range, as `np.clip` would give it for finite values
        np.maximum(patch, 0, out=patch)
        np.minimum(patch, 255, out=patch)
        np.copyto(pixels[rows, cols], patch, casting="unsafe")
    # a vehicle's pixels are its level plus their noise, whatever it is
    # drawn over; the last one drawn wins
    for box, v in drawn:
        pixels[box.y : box.y2, box.x : box.x2] = buffers.levels[v.intensity].take(
            u[box.y : box.y2, box.x : box.x2])
    return Frame(pixels)


def generate(spec: SceneSpec, out_dir: str | Path) -> list[GroundTruthEntry]:
    """Render a scene to a frame directory; returns its ground-truth stalls.

    Writes the frames and meta.json (`media.write_sequence`),
    foreground.jsonl (oracle detections for every visible vehicle on every
    frame, score 1.0) and scene.json.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    buffers = FrameBuffers(spec, rng)
    n = spec.frame_count
    drawn = drawn_boxes(spec, np.arange(n) / spec.fps)
    write_sequence(out, SequenceMeta(spec.video_id, spec.fps, n, spec.width, spec.height),
                   (render_frame(buffers, vehicles, rng) for vehicles in drawn))

    parked = [(p.bbox, p.class_label) for p in spec.offroad_parked]
    frames, boxes, labels = [], [], []  # the foreground's columns
    for i, vehicles in enumerate(drawn):
        shown = [(box, v.class_label) for box, v in vehicles] + parked
        frames += [i] * len(shown)
        boxes += [(box.x, box.y, box.w, box.h) for box, _ in shown]
        labels += [label for _, label in shown]
    write_detections(Detections(frames, boxes, [1.0] * len(frames), labels),
                     out / FOREGROUND_FILE)
    write_json(out / SCENE_FILE, spec)

    return [GroundTruthEntry(spec.video_id, *v.stall)
            for v in spec.vehicles if v.stall is not None]


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

    A spec checks itself when it is built, so every spec given is valid;
    with `specs` None, an invalid `seed` raises InvalidSpec before any
    directory is made, and so do two specs with one `video_id`. The
    videos render one after another, in spec order, in the calling
    thread. The first error stops the run: it is raised as its own type,
    the videos after it are not rendered and no gt.csv is written.
    """
    if specs is None:
        specs = corpus_specs(seed)
    repeated = [i for i, count in Counter(s.video_id for s in specs).items() if count > 1]
    if repeated:
        raise InvalidSpec(f"video ids must differ: {', '.join(map(repr, repeated))} repeat")
    root = Path(out_dir)
    videos = root / "videos"
    videos.mkdir(parents=True, exist_ok=True)
    per_video = [generate(spec, videos / spec.video_id) for spec in specs]
    write_ground_truth([e for entries in per_video for e in entries],
                       root / "gt.csv")
    return root
