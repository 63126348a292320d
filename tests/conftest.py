import hashlib
import importlib.util
import json
import shutil
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from stallwatch.codec import dumps
from stallwatch.media import BBox, Detections, Frame


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_frame(values) -> Frame:
    return Frame(np.asarray(values, dtype=np.uint8))


def scratch(frames: list[Frame]) -> list[Frame]:
    """Copies of `frames`, each in its own memory: the input `median_frame`
    overwrites; the frames themselves are left untouched."""
    return [Frame(f.pixels.copy()) for f in frames]


def frame_bytes(frame: Frame) -> bytes:
    """`frame` as the one PGM record a segment holds of it: the expected
    bytes of a record, and the parts of a file a test builds malformed on
    purpose (well-formed videos are written by `media.write_sequence`)."""
    return f"P5\n{frame.width} {frame.height}\n255\n".encode() + frame.pixels.tobytes()


@dataclass(frozen=True)
class Row:
    """One detected object on one frame: a row of `Detections`, the form
    the tests' per-row oracles work on."""

    frame_index: int
    class_label: str
    score: float
    bbox: BBox


def columns(rows: list[Row]) -> Detections:
    """`rows` as the columns every detector and reader returns."""
    return Detections([r.frame_index for r in rows],
                      [(r.bbox.x, r.bbox.y, r.bbox.w, r.bbox.h) for r in rows],
                      [r.score for r in rows], [r.class_label for r in rows])


def rows_of(dets: Detections) -> list[Row]:
    """The rows of `dets`, in order."""
    return [Row(f, label, s, BBox(*box)) for f, label, s, box in zip(
        dets.frame.tolist(), dets.labels, dets.score.tolist(),
        dets.boxes.tolist())]


@pytest.fixture(scope="session")
def timed_acceptance_corpus(tmp_path_factory):
    """The 12-video synthetic corpus, generated once per session, then the
    wall seconds and the process CPU seconds (every thread) its rendering
    took, and its frame count. Removed at the end of the session: it is
    about 2.8 GB, and pytest keeps the base temp directories of the last
    three sessions."""
    from stallwatch.synth import corpus, corpus_specs

    root = tmp_path_factory.mktemp("corpus")
    t0, cpu0 = time.perf_counter(), time.process_time()
    corpus(root, seed=0)
    wall_s, cpu_s = time.perf_counter() - t0, time.process_time() - cpu0
    yield root, wall_s, cpu_s, sum(spec.frame_count for spec in corpus_specs(0))
    shutil.rmtree(root)


@pytest.fixture(scope="session")
def acceptance_corpus(timed_acceptance_corpus):
    return timed_acceptance_corpus[0]


@pytest.fixture(scope="session")
def full_run(acceptance_corpus, tmp_path_factory):
    """One default-config pipeline run over the whole corpus, timed: its
    output directory, manifest and wall seconds."""
    from stallwatch.config import PipelineConfig
    from stallwatch.pipeline import run_all

    out = tmp_path_factory.mktemp("run_a")
    t0 = time.perf_counter()
    manifest = run_all(acceptance_corpus, out, PipelineConfig())
    elapsed = time.perf_counter() - t0
    yield out, manifest, elapsed
    shutil.rmtree(out)


def perfbench_module(name: str):
    """`perfbench/<name>.py`, imported from the checkout; the benchmark
    directory is not a package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def output_digests(root: Path) -> dict[str, str]:
    """sha256 of every file under `root`, keyed by its relative path;
    manifest.json's is taken without its `timings_s`, which differ from
    run to run."""
    digests = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            del manifest["timings_s"]
            data = dumps(manifest).encode()
        digests[str(path.relative_to(root))] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.fixture(scope="session")
def mini_corpus(tmp_path_factory):
    """One short day-freeway video with a stall; fast enough for CLI tests."""
    from stallwatch.sorting import LightingClass
    from stallwatch.synth import corpus, make_scene

    root = tmp_path_factory.mktemp("mini")
    spec = make_scene("mini_day_stall", LightingClass.DAY, False,
                      (10.0, 50.0), False, seed=1, duration=60.0)
    corpus(root, specs=[spec])
    return root


DECISION_FPS = 2.0
HOLE_S = (170.0, 175.0)
OCCLUDED_EVERY = 4
STALLS_AT_ONE_SPOT = ("day_stalls_60s_apart", "day_stalls_20s_apart",
                      "night_stalls_20s_apart", "day_holed_stall")


@pytest.fixture(scope="session")
def decision_corpus(tmp_path_factory):
    """Hard cases for the decision tree, at DECISION_FPS, shared by the
    tests that need them. STALLS_AT_ONE_SPOT: two stalls at one spot on a
    day freeway, on 30 s windows: (20, 110) and (170, 260) s in
    `day_stalls_60s_apart`, (20, 130) and (150, 270) s in
    `day_stalls_20s_apart`; the second pair on a night freeway, in one
    300 s window (`night_stalls_20s_apart`); and a (100, 250) s day stall
    whose foreground loses the stalled box for the 5 s HOLE_S
    (`day_holed_stall`), as a detector might. Hard negatives, in 60 s
    day freeway videos: a (35, 40) s stop inside one 30 s window
    (`day_short_stop`) beside a (10, 50) s stall across both
    (`day_stall_beside_short_stop`); and a (10, 50) s stall whose
    supporting foreground rows are kept on every OCCLUDED_EVERY-th of
    their frames only (`day_occluded_stall`), as if traffic passed in
    front of it."""
    from stallwatch import anomaly, synth
    from stallwatch.config import PipelineConfig
    from stallwatch.media import read_detections, write_detections
    from stallwatch.sorting import LightingClass

    def twice(video_id, lighting, first, second, seed):
        spec = synth.make_scene(video_id, lighting, False, first, False,
                                seed=seed, fps=DECISION_FPS)
        stalled = spec.vehicles[-1]  # make_scene adds the stalled vehicle last
        again = replace(stalled, spawn=stalled.spawn + second[0] - first[0],
                        stall=second)
        return replace(spec, vehicles=spec.vehicles + (again,))

    def minute(video_id, stall, seed):
        return synth.make_scene(video_id, LightingClass.DAY, False, stall, False,
                                seed=seed, duration=60.0, fps=DECISION_FPS)

    day, night = LightingClass.DAY, LightingClass.NIGHT
    specs = [twice("day_stalls_60s_apart", day, (20.0, 110.0), (170.0, 260.0), 31),
             twice("day_stalls_20s_apart", day, (20.0, 130.0), (150.0, 270.0), 32),
             twice("night_stalls_20s_apart", night, (20.0, 130.0), (150.0, 270.0), 33),
             synth.make_scene("day_holed_stall", day, False, (100.0, 250.0), False,
                              seed=34, fps=DECISION_FPS),
             minute("day_short_stop", (35.0, 40.0), 21),
             minute("day_stall_beside_short_stop", (10.0, 50.0), 22),
             minute("day_occluded_stall", (10.0, 50.0), 1)]
    root = synth.corpus(tmp_path_factory.mktemp("decision"), specs=specs)

    def stall_box(video):
        """The video's stalled box, and its foreground."""
        (box, _, _), = synth.static_boxes(synth.load_scene(video / synth.SCENE_FILE))
        return box, read_detections(video / synth.FOREGROUND_FILE)

    video = root / "videos" / "day_holed_stall"
    box, foreground = stall_box(video)
    t = foreground.frame / DECISION_FPS
    hidden = ((t >= HOLE_S[0]) & (t < HOLE_S[1])
              & (foreground.boxes == (box.x, box.y, box.w, box.h)).all(axis=1))
    assert hidden.sum() == (HOLE_S[1] - HOLE_S[0]) * DECISION_FPS
    write_detections(foreground.select(~hidden), video / synth.FOREGROUND_FILE)

    video = root / "videos" / "day_occluded_stall"
    box, foreground = stall_box(video)
    iou_support = PipelineConfig().decision.iou_support
    supports = np.array([anomaly.iou(BBox(*b), box) >= iou_support
                         for b in foreground.boxes.tolist()])
    cand = anomaly.Candidate(box, 1.0, frozenset({0.0}))
    kept = anomaly.support_profile(cand, foreground, iou_support)[::OCCLUDED_EVERY]
    write_detections(foreground.select(~supports | np.isin(foreground.frame, kept)),
                     video / synth.FOREGROUND_FILE)
    assert anomaly.support_profile(cand, read_detections(
        video / synth.FOREGROUND_FILE), iou_support) == kept
    return root


@pytest.fixture(scope="session")
def decision_out(decision_corpus, tmp_path_factory):
    """One run-all of `decision_corpus` with the default config."""
    from stallwatch.cli import EXIT_OK, run

    out = tmp_path_factory.mktemp("decision_out")
    assert run(["run-all", "--corpus", str(decision_corpus),
                "--out", str(out)]) == EXIT_OK
    return out
