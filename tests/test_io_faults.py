"""
Every write and every kind of read fails once: an I/O fault sweep.

A 3-video slice of the benchmark's 2 fps corpus runs at jobs 1 with one
fault in place: the k-th `os.replace` of a fresh run raises ENOSPC, for
each k, or the first read of one kind of file raises EIO. A fault in a
video's file fails that video alone, at the stage it reached, and the
other videos finish; a fault in a corpus file (gt.csv, predictions.csv,
score.json, manifest.json) raises OSError out of run_all. Either way no
.tmp file is left, and a clean rerun into the same directory writes the
bytes of a fresh run.

Only jobs 1: a pool's workers would not share the patched calls' state.
"""

import contextlib
import errno
import io
import itertools
import os
import shutil
from pathlib import Path

import pytest

from stallwatch import synth
from stallwatch.config import PipelineConfig
from stallwatch.media import SEGMENT_NAME
from stallwatch.pipeline import run_all

from conftest import output_digests, perfbench_module

WRITES = 30  # the os.replace calls of a fresh run of the slice
READ_FAULTED = "night_intersection_stall"  # the video whose reads fail
# the stage that writes each per-video output, by its first path part
# under the video's directory
WRITER = {"category.json": "sort", "backgrounds": "background",
          "mask.pgm": "mask", "events.json": "detect", "stamp": "detect"}


@pytest.fixture(scope="module")
def slice_corpus(tmp_path_factory):
    """The slice's corpus directory and its video ids."""
    workloads = perfbench_module("workloads")
    specs = workloads.corpus_specs(0, workloads.SLICE_PRESETS)
    root = synth.corpus(tmp_path_factory.mktemp("slice"), specs=specs)
    yield root, [spec.video_id for spec in specs]
    shutil.rmtree(root)


@pytest.fixture(scope="module")
def fresh(slice_corpus, tmp_path_factory):
    """The output digests of a fault-free run of the slice into an empty
    directory, and the paths its os.replace calls wrote, in call order,
    relative to that directory."""
    corpus, _ = slice_corpus
    out = tmp_path_factory.mktemp("fresh")
    targets = []
    replace = os.replace

    def recorded(src, dst, **kwargs):
        targets.append(Path(dst).relative_to(out))
        return replace(src, dst, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "replace", recorded)
        run_all(corpus, out, PipelineConfig())
    yield output_digests(out), targets
    shutil.rmtree(out)


@contextlib.contextmanager
def one_fault(code: int, *picks):
    """Within it, the first call, of the functions that `picks` names as
    (module, name, predicate) triples, whose arguments its predicate
    accepts raises OSError(code) and does nothing else. Yields a list
    that then holds the path of that call."""
    failed = []

    def failing(fn, pick):
        def call(*args, **kwargs):
            if not failed and pick(*args, **kwargs):
                failed.append(args[0])
                raise OSError(code, os.strerror(code), str(args[0]))
            return fn(*args, **kwargs)
        return call

    with pytest.MonkeyPatch.context() as mp:
        for module, name, pick in picks:
            mp.setattr(module, name, failing(getattr(module, name), pick))
        yield failed


def reads_of(name: str, video: str | None):
    """The picks of `one_fault` for an open, by `io.open` or `os.open`,
    that reads the file `name`, in a directory of `video` if it is given."""
    def hit(path) -> bool:
        return (isinstance(path, (str, os.PathLike)) and Path(path).name == name
                and (video is None or video in Path(path).parts))

    return ((io, "open", lambda file, mode="r", *a, **kw: "r" in mode and hit(file)),
            (os, "open", lambda path, flags, *a, **kw:
             not flags & (os.O_WRONLY | os.O_RDWR) and hit(path)))


def assert_contained(slice_corpus, fresh, out: Path, fault, code: int,
                     video: str | None, stage: str | None) -> None:
    """Run the slice into `out` within `fault`, a `one_fault`: it fails
    `video` alone, at `stage`, or, when `video` is None, run_all raises the
    OSError; the other videos finish, and no .tmp file is left. Then a
    clean rerun into `out` writes the bytes of a fresh run."""
    corpus, videos = slice_corpus
    with fault as failed:
        if video is None:
            with pytest.raises(OSError, match=os.strerror(code)):
                run_all(corpus, out, PipelineConfig())
        else:
            (failure,) = run_all(corpus, out, PipelineConfig())["failures"]
            assert (failure["video"], failure["stage"]) == (video, stage)
            assert os.strerror(code) in failure["error"]
    assert failed
    assert all((out / other / "stamp").is_file() for other in videos if other != video)
    assert not list(out.rglob("*.tmp"))
    run_all(corpus, out, PipelineConfig())
    assert output_digests(out) == fresh[0]


@pytest.mark.parametrize("k", range(WRITES))
def test_a_failed_write_fails_its_video_or_the_run(slice_corpus, fresh, tmp_path, k):
    targets = fresh[1]
    assert len(targets) == WRITES
    target = targets[k]
    video, stage = ((None, None) if len(target.parts) == 1
                    else (target.parts[0], WRITER[target.parts[1]]))
    calls = itertools.count()
    fault = one_fault(errno.ENOSPC,
                      (os, "replace", lambda *a, **kw: next(calls) == k))
    assert_contained(slice_corpus, fresh, tmp_path, fault, errno.ENOSPC, video, stage)


# A video's input files and its stamp are first read for its stamp, before
# the chain starts, so a fault there fails it at detect; events.json is read
# only on a rerun into a filled directory.
@pytest.mark.parametrize("name, stage, rerun", [
    ("meta.json", "detect", False),
    ("foreground.jsonl", "detect", False),
    ("scene.json", "detect", False),
    (SEGMENT_NAME % 0, "sort", False),
    ("stamp", "detect", False),
    ("gt.csv", None, False),
    ("predictions.csv", None, False),
    ("events.json", "detect", True),
])
def test_a_failed_read_fails_its_video_or_the_run(slice_corpus, fresh, tmp_path,
                                                  name, stage, rerun):
    if rerun:
        run_all(slice_corpus[0], tmp_path, PipelineConfig())
    video = READ_FAULTED if stage else None
    fault = one_fault(errno.EIO, *reads_of(name, video))
    assert_contained(slice_corpus, fresh, tmp_path, fault, errno.EIO, video, stage)
