"""Workload definitions, input generation and output checks.

The corpus is the program's own 12-preset synthetic corpus
(`synth.CORPUS_PRESETS`) rendered at FPS frames per second instead of the
default 10. Scene timelines (stalls, 30 s / 300 s background windows,
vehicle speeds) are unchanged; only the number of frames per second
differs, which keeps input generation and one run short enough to repeat
many times per benchmark run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

FPS = 2.0
SLICE_PRESETS = ("day_freeway_stall", "night_intersection_stall",
                 "snow_freeway_parked")
MAX_RMSE_S = 30.0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "corpus": pipeline.run_all; "slice": synth.corpus
    rerun: bool = False  # time run_all into an already filled output dir


# Why each was chosen is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("corpus12-cold", "corpus"),
    Workload("corpus12-rerun", "corpus", rerun=True),
    Workload("synth-slice", "slice"),
)}


def corpus_specs(seed: int, names: tuple[str, ...] | None = None):
    """The acceptance corpus scenes for `seed`, rendered at FPS."""
    from stallwatch import synth

    return [
        synth.make_scene(name, lighting, intersection, stall, parked,
                         seed=seed * 1000 + i, fps=FPS)
        for i, (name, lighting, intersection, stall, parked)
        in enumerate(synth.CORPUS_PRESETS)
        if names is None or name in names
    ]


def digest(root: Path, patterns: tuple[str, ...]) -> str:
    """sha256 over the relative paths and bytes of the matching files."""
    h = hashlib.sha256()
    for path in sorted({p for pat in patterns for p in root.glob(pat)}):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


CORPUS_OUTPUTS = ("predictions.csv", "*/category.json", "*/backgrounds/*.pgm")


def check_corpus_run(out_dir: Path) -> dict:
    """Scores, output digest and failed checks of one run_all output."""
    import csv
    import json

    problems = []
    score = json.loads((out_dir / "score.json").read_text())
    if score["f1"] != 1.0:
        problems.append(f"f1 {score['f1']} != 1.0")
    if not score["rmse"] <= MAX_RMSE_S:
        problems.append(f"rmse {score['rmse']} s > {MAX_RMSE_S} s")
    with open(out_dir / "predictions.csv", newline="") as fh:
        parked = [row["video_id"] for row in csv.DictReader(fh)
                  if row["video_id"].endswith("_parked")]
    if parked:
        problems.append(f"events on parked-distractor videos: {parked}")
    return {"f1": score["f1"], "rmse_s": score["rmse"], "s4": score["s4"],
            "digest": digest(out_dir, CORPUS_OUTPUTS), "problems": problems}


def check_slice(out_dir: Path, specs) -> dict:
    """Output digest and failed checks of one synth.corpus slice."""
    from stallwatch.media import read_ground_truth, open_sequence

    problems = []
    for spec in specs:
        seq = open_sequence(out_dir / "videos" / spec.video_id)
        if seq.frame_count != spec.frame_count:
            problems.append(f"{spec.video_id}: {seq.frame_count} frames, "
                            f"expected {spec.frame_count}")
    stalls = sorted(e.video_id for e in read_ground_truth(out_dir / "gt.csv"))
    expected = sorted(s.video_id for s in specs
                      if any(v.stall is not None for v in s.vehicles))
    if stalls != expected:
        problems.append(f"gt.csv lists {stalls}, expected {expected}")
    return {"digest": digest(out_dir, ("gt.csv", "videos/*/*")),
            "problems": problems}
