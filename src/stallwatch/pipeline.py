"""
Corpus orchestration: one per-video stage chain, then predictions and score.

`_chain` computes one value per name of STAGES: sort (category.json),
background (each window's index.json record and image), mask (mask.pgm),
detect (detections per window; fails if all windows fail), decide (events.json).
`process_video` runs it up to a given stage; the CLI's sort, background
and mask commands stop after theirs, detect and run-all run it through
decide. Each stage it reaches computes and writes its artifact.

`run_corpus` is the one loop over a corpus's videos, for every command.
A `StallwatchError` or `OSError` fails that video only: `process_video`
returns it as a `VideoFailure` (video, stage, error), which run-all lists
in manifest.json, and the other videos still run. Any other exception is
a bug and stops the run. Run through decide, `run_corpus` writes
predictions.csv from the finished videos.

events.json is the one artifact read back: when the video's `stamp` file
matches `_video_stamp` (the config less `jobs`, meta.json, foreground.jsonl,
scene.json and a precomputed detector's .det.jsonl files; not the frames,
see README), unless it is missing or damaged. Every chain run removes the
stamp first; through decide, it writes the stamp after events.json.

Output layout, per corpus:

    out/
      <video_id>/category.json
      <video_id>/backgrounds/bg_<start_ms>.pgm
      <video_id>/backgrounds/index.json
      <video_id>/mask.pgm
      <video_id>/events.json
      <video_id>/stamp
      predictions.csv
      score.json          (when gt.csv has a stall or there is a prediction)
      manifest.json       (run-all only; lists the failed videos)
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
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
    DETECTIONS_SUFFIX,
    DetectorHandle,
    ExternalProcessDetector,
    OracleDetector,
    PrecomputedDetector,
)
from .errors import (
    DetectorTimeout,
    MissingMetadata,
    ParseError,
    StallwatchError,
    UndefinedScore,
)
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
        return OracleDetector(synth.static_boxes(scene), vehicle_classes=classes)
    if det.kind == "precomputed":
        return PrecomputedDetector(directory=_detection_dir(cfg, video_dir, out_vid),
                                   vehicle_classes=classes)
    return ExternalProcessDetector(list(det.command), timeout=det.timeout,
                                   vehicle_classes=classes)


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

    bg_dir = out_vid / "backgrounds"
    bgs = background.background_stream(seq, category, cfg.background_fraction, cfg.seed)
    bg_dir.mkdir(exist_ok=True)
    for window, frame in bgs:
        write_frame(frame, bg_dir / window.file)
    write_json(bg_dir / "index.json", {"windows": [window for window, _ in bgs]})
    yield bgs

    params = cfg.mask_params(category.lighting)
    road = np.logical_or.reduce([adaptive_road_mask(frame, params) for _, frame in bgs])
    write_frame(Frame(np.where(road, 255, 0).astype(np.uint8)), out_vid / "mask.pgm")
    yield road

    per_window: list[tuple[float, Detections]] = []
    skipped = 0
    with make_detector(cfg, video_dir, out_vid) as handle:
        for window, frame in bgs:
            try:
                dets = handle.detect(bg_dir / window.file, frame)
            except DetectorTimeout:
                raise  # the handle has already restarted the detector once
            except (StallwatchError, OSError) as exc:
                skipped += 1
                if skipped == len(bgs):
                    raise  # the detector failed on every window
                logger.warning("%s: detector failed on window at %.1fs: %s",
                               seq.video_id, window.window_start_s, exc)
                dets = Detections()
            per_window.append((window.window_start_s, dets))
    yield per_window

    events = anomaly.detect_anomalies(
        road, per_window, foreground,
        params=cfg.decision,
        min_overlap=cfg.mask_min_overlap,
        fps=seq.fps,
        video_id=seq.video_id,
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
            _detection_dir(cfg, video_dir, out_vid).glob("*" + DETECTIONS_SUFFIX))]
    for name, path in files:
        data = _read(path)
        h.update(name + b"%d\n" % len(data))
        h.update(data)
    return h.hexdigest().encode() + b"\n"


def process_video(video_dir: Path, out_vid: Path, cfg: PipelineConfig,
                  cfg_hash: str, through: str = "decide"
                  ) -> tuple[list[AnomalyEvent], bytes] | VideoFailure:
    """Run the chain through `through`, a name of STAGES; returns the
    accepted events ([] before decide) and the video's `_video_stamp`, or
    the video's `VideoFailure`. Through decide, events.json is the answer
    when the stamp file holds the stamp and it parses; a chain run writes
    the stamp after events.json. A `StallwatchError` or `OSError` fails
    the video at the stage it reached (`through` before the chain starts),
    its error "<Type>: <video dir>: <stage>: <message>"."""
    stage = through
    stamp_path = out_vid / "stamp"
    try:
        stamp = _video_stamp(video_dir, out_vid, cfg, cfg_hash)
        if through == "decide" and _read(stamp_path) == stamp:
            with contextlib.suppress(FileNotFoundError, ParseError):
                return read_json(out_vid / "events.json", list[AnomalyEvent]), stamp
        stamp_path.unlink(missing_ok=True)
        chain = _chain(video_dir, out_vid, cfg)
        for stage in STAGES[:STAGES.index(through) + 1]:
            value = next(chain)
    except (StallwatchError, OSError) as exc:
        return VideoFailure(video_dir.name, stage, f"{type(exc).__name__}: "
                            f"{video_dir.name}: {stage}: {exc}")
    if through != "decide":
        return [], stamp
    write_atomic(stamp_path, stamp)
    return value, stamp


def run_corpus(corpus_dir: Path, out_dir: Path, cfg: PipelineConfig,
               through: str = "decide"
               ) -> tuple[list[VideoFailure], list[bytes]]:
    """Every video's chain up to `through` (`process_video`); returns the
    videos that failed and the stamps of those that finished. Run through
    decide, it writes predictions.csv from the videos that finished."""
    dirs = corpus_video_dirs(corpus_dir)
    args = (dirs, [out_dir / d.name for d in dirs])
    # built per call, so that it binds the process_video this module holds now
    video = functools.partial(process_video, cfg=cfg, through=through,
                              cfg_hash=replace(cfg, jobs=1).content_hash())
    if cfg.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            per_video = list(pool.map(video, *args))
    else:
        per_video = list(map(video, *args))
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
        with contextlib.suppress(UndefinedScore):  # no stall, no prediction
            report = score_corpus(out_dir / "predictions.csv", gt_path,
                                  out_dir / "score.json")
        timings["score"] = time.perf_counter() - t0
    if report is None:  # an earlier run's score.json would contradict it
        (out_dir / "score.json").unlink(missing_ok=True)

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
