"""
Corpus orchestration: one per-video stage chain, then predictions and score.

`_chain` computes one value per name of STAGES: sort (category.json),
background (each window's background with its file), mask (mask.pgm),
detect (detector output per window) and decide (events.json).
`process_video` runs it up to a given stage; the CLI's sort, background
and mask commands stop after theirs, detect and run-all run it through
decide. Each stage it reaches computes and writes its artifact.

`run_corpus` is the one loop over a corpus's videos, for every command.
A `StallwatchError` fails that video only: it is returned as a
`VideoFailure` (video, stage, error), which run-all lists in
manifest.json, and the other videos still run. Run through decide, it
writes predictions.csv from the videos that finished.

events.json is the one artifact read back, when the video's `stamp` file
matches `_video_stamp` (the config less `jobs`, meta.json,
foreground.jsonl, scene.json and a precomputed detector's .det.jsonl
files; not the frames, see README). Every chain run removes the stamp
first; through decide, it writes the stamp after events.json.

Output layout, per corpus:

    out/
      <video_id>/category.json
      <video_id>/backgrounds/bg_<start_ms>.pgm
      <video_id>/backgrounds/index.json
      <video_id>/mask.pgm
      <video_id>/events.json
      <video_id>/stamp
      predictions.csv
      score.json          (when gt.csv is available)
      manifest.json       (run-all only; lists the failed videos)
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import hashlib
import logging
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import anomaly, background, scoring, sorting, synth
from .codec import encode, read_json, write_atomic, write_json
from .config import PipelineConfig
from .detector import (
    DetectorHandle,
    ExternalProcessDetector,
    OracleDetector,
    PrecomputedDetector,
)
from .errors import DetectorTimeout, MissingMetadata, StallwatchError, prefixed
from .media import (
    AnomalyEvent,
    Detections,
    Frame,
    open_sequence,
    read_detections,
    read_ground_truth,
    read_predictions,
    write_frame,
    write_predictions,
)
from .roadmask import adaptive_road_mask

logger = logging.getLogger(__name__)


def corpus_video_dirs(corpus_dir: Path) -> list[Path]:
    videos = corpus_dir / "videos"
    if not videos.is_dir():
        raise MissingMetadata(f"no videos/ directory under {corpus_dir}")
    return sorted(p for p in videos.iterdir() if p.is_dir())


def _detection_dir(cfg: PipelineConfig, video_dir: Path, out_vid: Path) -> Path:
    """Where a precomputed detector reads the video's .det.jsonl files:
    `<detector.directory>/<video dir name>`, else beside its backgrounds."""
    if cfg.detector.directory:
        return Path(cfg.detector.directory) / video_dir.name
    return out_vid / "backgrounds"


def make_detector(cfg: PipelineConfig, video_dir: Path,
                  out_vid: Path) -> DetectorHandle:
    classes = cfg.vehicle_classes
    det = cfg.detector
    if det.kind == "oracle":
        scene = synth.load_scene(video_dir / synth.SCENE_FILE)
        return OracleDetector(scene=scene, vehicle_classes=classes)
    if det.kind == "precomputed":
        return PrecomputedDetector(directory=_detection_dir(cfg, video_dir, out_vid),
                                   vehicle_classes=classes)
    return ExternalProcessDetector(list(det.command), timeout=det.timeout,
                                   vehicle_classes=classes)


@dataclass(frozen=True)
class BackgroundWindow:
    """One entry of backgrounds/index.json."""

    file: str
    window_start_s: float
    window_end_s: float
    sampled_indices: list[int]


@dataclass(frozen=True)
class VideoFailure:
    """One entry of manifest.json's failures: a video whose chain raised."""

    video: str
    stage: str
    error: str


# --- the per-video stage chain ----------------------------------------------

STAGES = ("sort", "background", "mask", "detect", "decide")


def _chain(video_dir: Path, out_vid: Path, cfg: PipelineConfig):
    """One value per name of STAGES, in order, each computed and written
    when the chain is advanced to it."""
    seq = open_sequence(video_dir)
    foreground = read_detections(video_dir / synth.FOREGROUND_FILE)
    category = sorting.sort_video(seq, foreground, stride=cfg.histogram_stride)
    out_vid.mkdir(parents=True, exist_ok=True)
    write_json(out_vid / "category.json", category)
    yield category

    # (path, background) per window
    bg_dir = out_vid / "backgrounds"
    bgs = [(bg_dir / f"bg_{int(round(bg.window_start * 1000))}.pgm", bg)
           for bg in background.background_stream(
               seq, category, fraction=cfg.background_fraction, seed=cfg.seed)]
    bg_dir.mkdir(exist_ok=True)
    for path, bg in bgs:
        write_frame(bg.frame, path)
    write_json(bg_dir / "index.json", {"windows": [
        BackgroundWindow(path.name, bg.window_start, bg.window_end,
                         bg.sampled_indices) for path, bg in bgs]})
    yield bgs

    params = cfg.mask_params(category.lighting)
    road = np.logical_or.reduce([adaptive_road_mask(bg.frame, params) for _, bg in bgs])
    write_frame(Frame(np.where(road, 255, 0).astype(np.uint8)), out_vid / "mask.pgm")
    yield road

    per_window: list[tuple[float, Detections]] = []
    with make_detector(cfg, video_dir, out_vid) as handle:
        for path, bg in bgs:
            try:
                dets = handle.detect(path, bg.frame)
            except DetectorTimeout:
                raise  # the handle has already restarted the detector once
            except Exception as exc:
                logger.warning("%s: detector failed on window at %.1fs: %s",
                               seq.video_id, bg.window_start, exc)
                dets = Detections()
            per_window.append((bg.window_start, dets))
    yield per_window

    events = anomaly.detect_anomalies(
        road, per_window, foreground,
        params=cfg.decision,
        min_overlap=cfg.mask_min_overlap,
        fps=seq.fps,
        video_id=seq.video_id,
        frame_area=seq.width * seq.height,
    )
    write_json(out_vid / "events.json", events)
    yield events


def _read(path: Path) -> bytes:
    """The file's bytes, or b"" when it is missing."""
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return b""


def _video_stamp(video_dir: Path, out_vid: Path, cfg: PipelineConfig,
                 cfg_hash: str) -> bytes:
    """The sha256, in hex, of `cfg_hash` (the config's, less `jobs`) and of
    the video's small input files, a missing one read as empty; then, for
    a precomputed detector, of each of the video's .det.jsonl files in
    name order, its name first."""
    h = hashlib.sha256(cfg_hash.encode())
    files = [(b"", video_dir / name)
             for name in ("meta.json", synth.FOREGROUND_FILE, synth.SCENE_FILE)]
    if cfg.detector.kind == "precomputed":
        files += [(path.name.encode() + b"\n", path) for path in sorted(
            _detection_dir(cfg, video_dir, out_vid).glob("*.det.jsonl"))]
    for name, path in files:
        data = _read(path)
        h.update(name + b"%d\n" % len(data))
        h.update(data)
    return h.hexdigest().encode() + b"\n"


def process_video(video_dir: Path, out_vid: Path, cfg: PipelineConfig,
                  stamp: bytes, through: str = "decide"
                  ) -> list[AnomalyEvent]:
    """Run the chain through `through`, a name of STAGES; returns the
    accepted events, or [] when it stops before decide. `stamp` is the
    video's `_video_stamp`: through decide, events.json is the answer when
    the stamp file holds it, and a chain run writes it after events.json.
    A `StallwatchError` is raised again as its own type, prefixed
    "<video dir>: <stage>", with the stage as its `stage`."""
    stage = "decide"
    stamp_path = out_vid / "stamp"
    try:
        if through == "decide" and _read(stamp_path) == stamp:
            with contextlib.suppress(FileNotFoundError):
                return read_json(out_vid / "events.json", list[AnomalyEvent])
        stamp_path.unlink(missing_ok=True)
        chain = _chain(video_dir, out_vid, cfg)
        for stage in STAGES[:STAGES.index(through) + 1]:
            value = next(chain)
    except StallwatchError as exc:
        err = prefixed(exc, f"{video_dir.name}: {stage}")
        err.stage = stage
        raise err from None
    if through != "decide":
        return []
    write_atomic(stamp_path, stamp)
    return value


def _events_or_failure(video_dir: Path, out_vid: Path, cfg: PipelineConfig,
                       cfg_hash: str, through: str
                       ) -> tuple[list[AnomalyEvent], bytes] | VideoFailure:
    """`process_video`'s events and the video's stamp, or, for a
    `StallwatchError`, the video's failure."""
    stamp = _video_stamp(video_dir, out_vid, cfg, cfg_hash)
    try:
        return process_video(video_dir, out_vid, cfg, stamp, through), stamp
    except StallwatchError as exc:
        return VideoFailure(video_dir.name, exc.stage,
                            f"{type(exc).__name__}: {exc}")


def run_corpus(corpus_dir: Path, out_dir: Path, cfg: PipelineConfig,
               through: str = "decide"
               ) -> tuple[list[VideoFailure], list[bytes]]:
    """Every video's chain up to `through` (`process_video`); returns the
    videos that failed and the stamps of those that finished. Run through
    decide, it writes predictions.csv from the videos that finished."""
    dirs = corpus_video_dirs(corpus_dir)
    n = len(dirs)
    args = (dirs, [out_dir / d.name for d in dirs], [cfg] * n,
            [replace(cfg, jobs=1).content_hash()] * n, [through] * n)
    if cfg.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            per_video = list(pool.map(_events_or_failure, *args))
    else:
        per_video = list(map(_events_or_failure, *args))
    failures = [r for r in per_video if isinstance(r, VideoFailure)]
    done = [r for r in per_video if not isinstance(r, VideoFailure)]
    if through == "decide":
        events = [ev for evs, _ in done for ev in evs]
        events.sort(key=lambda e: (e.video_id, e.start, e.end))
        out_dir.mkdir(parents=True, exist_ok=True)  # when every video failed
        write_predictions(events, out_dir / "predictions.csv")
    return failures, [stamp for _, stamp in done]


def score_corpus(pred_path: Path, gt_path: Path, out_path: Path | None = None
                 ) -> scoring.ScoreReport:
    report = scoring.score_report(read_predictions(pred_path),
                                  read_ground_truth(gt_path))
    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        write_json(out_path, report)
    return report


def run_all(corpus_dir: Path, out_dir: Path, cfg: PipelineConfig) -> dict:
    """Chained run over a corpus plus a reproducibility manifest. Its
    `input_hash` is the sha256 of gt.csv and of the finished videos'
    stamps."""
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    failures, stamps = run_corpus(corpus_dir, out_dir, cfg)
    timings["pipeline"] = time.perf_counter() - t0

    gt_path = corpus_dir / "gt.csv"
    input_hash = hashlib.sha256(_read(gt_path) + b"".join(stamps))
    report = None
    if gt_path.is_file():
        t0 = time.perf_counter()
        report = score_corpus(out_dir / "predictions.csv", gt_path,
                              out_dir / "score.json")
        timings["score"] = time.perf_counter() - t0

    manifest = {
        "config_hash": cfg.content_hash(),
        "seed": cfg.seed,
        "input_hash": input_hash.hexdigest(),
        "timings_s": {k: round(v, 3) for k, v in timings.items()},
        "score": encode(report),
        "failures": encode(failures),
    }
    write_json(out_dir / "manifest.json", manifest)
    return manifest
