import shutil
import time
from dataclasses import dataclass

import numpy as np
import pytest

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
def mini_corpus(tmp_path_factory):
    """One short day-freeway video with a stall; fast enough for CLI tests."""
    from stallwatch.sorting import LightingClass
    from stallwatch.synth import corpus, make_scene

    root = tmp_path_factory.mktemp("mini")
    spec = make_scene("mini_day_stall", LightingClass.DAY, False,
                      (10.0, 50.0), False, seed=1, duration=60.0)
    corpus(root, specs=[spec])
    return root
