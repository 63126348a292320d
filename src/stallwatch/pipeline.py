"""
Corpus orchestration: one per-video stage chain, then predictions and score.

`stages` runs one video's chain and yields a value per name of STAGES:
sort (category.json), background (each window's background with its
file), mask (mask.pgm), detect (detector output per window) and decide
(events.json). `process_video` runs all of it; the CLI's sort, background
and mask commands stop after their stage. The chain's inputs, the frame
sequence and the foreground detection columns, are opened on first use,
so a stage that reuses its artifact reads nothing upstream of it.

category.json, backgrounds/ and events.json are reused when an earlier
invocation left them, so rerunning a later stage gives the same result as
one chained run; a video with events.json is answered before its chain
starts. mask.pgm is rebuilt whenever the chain reaches it.

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
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache
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
from .errors import MissingMetadata, StallwatchError, prefixed
from .media import (
    AnomalyEvent,
    Detection,
    open_sequence,
    read_detections,
    read_frame,
    read_ground_truth,
    read_predictions,
    write_frame,
    write_predictions,
)
from .roadmask import adaptive_road_mask, mask_union
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


# --- the per-video stage chain ----------------------------------------------

STAGES = ("sort", "background", "mask", "detect", "decide")


def _chain(video_dir: Path, out_vid: Path, cfg: PipelineConfig):
    """One value per name of STAGES, in order, each computed when the
    chain is advanced to it. The inputs are opened on first use."""
    seq = cache(lambda: open_sequence(video_dir))
    foreground = cache(lambda: read_detections(video_dir / synth.FOREGROUND_FILE))

    cat_path = out_vid / "category.json"
    if cat_path.is_file():
        category = read_json(cat_path, VideoCategory)
    else:
        category = sorting.sort_video(seq(), foreground(),
                                      stride=cfg.histogram_stride)
        out_vid.mkdir(parents=True, exist_ok=True)
        write_json(cat_path, category)
    yield category

    # (path, background) per window
    bg_dir = out_vid / "backgrounds"
    index_path = bg_dir / "index.json"
    if index_path.is_file():
        bgs = [(bg_dir / w.file, background.BackgroundFrame(
                    read_frame(bg_dir / w.file), w.window_start_s,
                    w.window_end_s, w.sampled_indices))
               for w in read_json(index_path, BackgroundIndex).windows]
    else:
        bgs = [(bg_dir / f"bg_{int(round(bg.window_start * 1000))}.pgm", bg)
               for bg in background.background_stream(
                   seq(), category, fraction=cfg.background_fraction,
                   seed=cfg.seed)]
        bg_dir.mkdir(parents=True, exist_ok=True)
        for path, bg in bgs:
            write_frame(bg.frame, path)
        write_json(index_path, BackgroundIndex([
            BackgroundWindow(path.name, bg.window_start, bg.window_end,
                             bg.sampled_indices) for path, bg in bgs]))
    yield bgs

    # rebuilt whenever the chain gets here, never read back
    params = cfg.mask_params(category.lighting)
    road = mask_union([adaptive_road_mask(bg.frame, params) for _, bg in bgs])
    write_frame(road.to_frame(), out_vid / "mask.pgm")
    yield road

    per_window: list[tuple[float, list[Detection]]] = []
    with make_detector(cfg, video_dir, bg_dir) as handle:
        for path, bg in bgs:
            try:
                dets = handle.detect(path, bg.frame)
            except Exception as exc:
                logger.warning("%s: detector failed on window at %.1fs: %s",
                               seq().video_id, bg.window_start, exc)
                dets = []
            per_window.append((bg.window_start, dets))
    yield per_window

    video = seq()
    events = anomaly.detect_anomalies(
        road, per_window, foreground(),
        params=cfg.decision,
        min_overlap=cfg.mask_min_overlap,
        fps=video.fps,
        video_id=video.video_id,
        frame_area=video.width * video.height,
    )
    write_json(out_vid / "events.json", events)
    yield events


def stages(video_dir: Path, out_vid: Path,
           cfg: PipelineConfig) -> Iterator[tuple[str, object]]:
    """One video's chain as (stage, value) for each name of STAGES. A
    `StallwatchError` is raised again as its own type, its message prefixed
    by the video directory's name and the stage."""
    chain = _chain(video_dir, out_vid, cfg)
    for stage in STAGES:
        try:
            value = next(chain)
        except StallwatchError as exc:
            raise prefixed(exc, f"{video_dir.name}: {stage}") from None
        yield stage, value


def process_video(video_dir: Path, out_vid: Path,
                  cfg: PipelineConfig) -> list[AnomalyEvent]:
    """Run (or resume) the whole chain; returns accepted events. An
    existing events.json is the answer, read before the chain starts."""
    events_path = out_vid / "events.json"
    if events_path.is_file():
        return read_json(events_path, list[AnomalyEvent])
    return dict(stages(video_dir, out_vid, cfg))["decide"]


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
