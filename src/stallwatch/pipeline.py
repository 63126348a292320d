"""
Corpus orchestration: sort -> background -> mask -> detect -> score.

Each stage persists its artifacts under the output directory. category.json,
backgrounds/ and events.json are reused when an earlier invocation left
them, so rerunning a later stage gives the same result as one chained run.
A video whose events.json exists is answered from it before any of its
inputs is opened. mask.pgm is an output only: it is rebuilt from the
backgrounds with the current config's k1/k2 and block whenever events.json
is missing.

Output layout, per corpus:

    out/
      <video_id>/category.json
      <video_id>/backgrounds/bg_<start_ms>.pgm
      <video_id>/backgrounds/index.json
      <video_id>/mask.pgm
      <video_id>/events.json
      predictions.csv
      score.json          (when gt.csv is available)
      manifest.json       (run-all only)
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import logging
import time
from dataclasses import dataclass
from pathlib import Path

from . import anomaly, background, scoring, sorting, synth
from .codec import encode, read_json, write_json
from .config import PipelineConfig
from .detector import (
    DetectorHandle,
    ExternalProcessDetector,
    OracleDetector,
    PrecomputedDetector,
)
from .errors import MissingMetadata, StallwatchError
from .media import (
    AnomalyEvent,
    Detection,
    Detections,
    FrameSequence,
    open_sequence,
    read_detections,
    read_frame,
    read_ground_truth,
    read_predictions,
    write_frame,
    write_predictions,
)
from .roadmask import Mask, adaptive_road_mask, mask_union
from .sorting import VideoCategory

logger = logging.getLogger(__name__)


def corpus_video_dirs(corpus_dir: Path) -> list[Path]:
    videos = corpus_dir / "videos"
    if not videos.is_dir():
        raise MissingMetadata(f"no videos/ directory under {corpus_dir}")
    return sorted(p for p in videos.iterdir() if p.is_dir())


def make_detector(cfg: PipelineConfig, video_dir: Path,
                  bg_dir: Path) -> DetectorHandle:
    classes = cfg.vehicle_classes
    det = cfg.detector
    if det.kind == "oracle":
        scene = synth.load_scene(video_dir / synth.SCENE_FILE)
        return OracleDetector(scene=scene, vehicle_classes=classes)
    if det.kind == "precomputed":
        directory = Path(det.directory) if det.directory else bg_dir
        return PrecomputedDetector(directory=directory, vehicle_classes=classes)
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
class BackgroundIndex:
    windows: list[BackgroundWindow]


# --- per-video stages ------------------------------------------------------

def sort_stage(seq: FrameSequence, foreground: Detections, out_vid: Path,
               cfg: PipelineConfig) -> VideoCategory:
    cat_path = out_vid / "category.json"
    if cat_path.is_file():
        return read_json(cat_path, VideoCategory)
    category = sorting.sort_video(seq, foreground, stride=cfg.histogram_stride)
    out_vid.mkdir(parents=True, exist_ok=True)
    write_json(cat_path, category)
    return category


def background_stage(seq: FrameSequence, category: VideoCategory,
                     out_vid: Path, cfg: PipelineConfig
                     ) -> tuple[list[background.BackgroundFrame], list[Path]]:
    bg_dir = out_vid / "backgrounds"
    index_path = bg_dir / "index.json"
    if index_path.is_file():
        windows = read_json(index_path, BackgroundIndex).windows
        paths = [bg_dir / w.file for w in windows]
        bgs = [background.BackgroundFrame(read_frame(path), w.window_start_s,
                                          w.window_end_s, w.sampled_indices)
               for w, path in zip(windows, paths)]
        return bgs, paths

    bgs = background.background_stream(seq, category,
                                       fraction=cfg.background_fraction,
                                       seed=cfg.seed)
    bg_dir.mkdir(parents=True, exist_ok=True)
    paths, windows = [], []
    for bg in bgs:
        path = bg_dir / f"bg_{int(round(bg.window_start * 1000))}.pgm"
        write_frame(bg.frame, path)
        paths.append(path)
        windows.append(BackgroundWindow(path.name, bg.window_start,
                                        bg.window_end, bg.sampled_indices))
    write_json(index_path, BackgroundIndex(windows))
    return bgs, paths


def mask_stage(bgs, category: VideoCategory, out_vid: Path,
               cfg: PipelineConfig) -> Mask:
    """Road-mask union of the backgrounds, written to mask.pgm; rebuilt on
    every call, never read back."""
    params = cfg.mask_params(category.lighting)
    union = mask_union([adaptive_road_mask(bg.frame, params) for bg in bgs])
    write_frame(union.to_frame(), out_vid / "mask.pgm")
    return union


def process_video(video_dir: Path, out_vid: Path,
                  cfg: PipelineConfig) -> list[AnomalyEvent]:
    """Run (or resume) the full per-video pipeline; returns accepted events.

    An existing events.json is the answer, read before the video's frames
    or detections are looked at. Otherwise one pass: each value
    (foreground detection columns, backgrounds, road mask, per-window
    detections) is computed once and handed to the next step. A detector
    failure skips that window with a warning.
    """
    events_path = out_vid / "events.json"
    if events_path.is_file():
        return read_json(events_path, list[AnomalyEvent])

    seq = open_sequence(video_dir)
    foreground = read_detections(video_dir / synth.FOREGROUND_FILE)
    category = sort_stage(seq, foreground, out_vid, cfg)
    bgs, bg_paths = background_stage(seq, category, out_vid, cfg)
    road = mask_stage(bgs, category, out_vid, cfg)

    per_window: list[tuple[float, list[Detection]]] = []
    with make_detector(cfg, video_dir, out_vid / "backgrounds") as handle:
        for bg, path in zip(bgs, bg_paths):
            try:
                dets = handle.detect(path, bg.frame)
            except Exception as exc:
                logger.warning("%s: detector failed on window at %.1fs: %s",
                               seq.video_id, bg.window_start, exc)
                dets = []
            per_window.append((bg.window_start, dets))

    events = anomaly.detect_anomalies(
        road, per_window, foreground,
        params=cfg.decision,
        min_overlap=cfg.mask_min_overlap,
        fps=seq.fps,
        video_id=seq.video_id,
        frame_area=seq.width * seq.height,
    )
    write_json(events_path, events)
    return events


def run_corpus(corpus_dir: Path, out_dir: Path,
               cfg: PipelineConfig) -> list[AnomalyEvent]:
    """Per-video pipelines over the whole corpus; writes predictions.csv."""
    dirs = corpus_video_dirs(corpus_dir)
    args = (dirs, [out_dir / d.name for d in dirs], [cfg] * len(dirs))
    if cfg.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            per_video = list(pool.map(process_video, *args))
    else:
        per_video = list(map(process_video, *args))
    events = [ev for video_events in per_video for ev in video_events]
    events.sort(key=lambda e: (e.video_id, e.start, e.end))
    write_predictions(events, out_dir / "predictions.csv")
    return events


def score_corpus(pred_path: Path, gt_path: Path, out_path: Path | None = None
                 ) -> scoring.ScoreReport:
    report = scoring.score_report(read_predictions(pred_path),
                                  read_ground_truth(gt_path))
    if out_path is not None:
        write_json(out_path, report)
    return report


def _hash_inputs(corpus_dir: Path) -> str:
    """Content hash of corpus metadata and detections (frames are addressed
    by the metadata and regenerating them is covered by the seed)."""
    h = hashlib.sha256()
    gt = corpus_dir / "gt.csv"
    if gt.is_file():
        h.update(gt.read_bytes())
    for video_dir in corpus_video_dirs(corpus_dir):
        for name in ("meta.json", synth.FOREGROUND_FILE, synth.SCENE_FILE):
            path = video_dir / name
            if path.is_file():
                h.update(name.encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def run_all(corpus_dir: Path, out_dir: Path, cfg: PipelineConfig) -> dict:
    """Chained run over a corpus plus a reproducibility manifest."""
    out_dir.mkdir(parents=True, exist_ok=True)
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    input_hash = _hash_inputs(corpus_dir)
    timings["hash_inputs"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    run_corpus(corpus_dir, out_dir, cfg)
    timings["pipeline"] = time.perf_counter() - t0

    gt_path = corpus_dir / "gt.csv"
    report = None
    if gt_path.is_file():
        t0 = time.perf_counter()
        report = score_corpus(out_dir / "predictions.csv", gt_path,
                              out_dir / "score.json")
        timings["score"] = time.perf_counter() - t0

    manifest = {
        "config_hash": cfg.content_hash(),
        "seed": cfg.seed,
        "input_hash": input_hash,
        "timings_s": {k: round(v, 3) for k, v in timings.items()},
        "score": encode(report),
    }
    write_json(out_dir / "manifest.json", manifest)
    return manifest
