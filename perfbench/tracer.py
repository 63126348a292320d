"""Span tracer installed from outside the program.

`installed(tracer)` wraps the public functions of each stallwatch layer
module, plus `DetectorHandle.detect`, and puts the wrapper at every module
attribute that binds the original. Pipeline modules import names with
`from .x import y`, so patching only the defining module would miss most
calls. Everything is restored on exit.

Spans are kept in memory. A span's self time is its duration minus the
durations of its direct child spans; calls run on one thread, so children
never overlap and the self times of all spans under a root add up to the
root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("media", "sorting", "background", "roadmask", "detector",
          "anomaly", "scoring", "pipeline", "synth")

# Called once per detection row: a Python wrapper would cost more than the
# function itself. Their time stays in the caller's self time.
UNWRAPPED = frozenset({"anomaly.iou", "media.detection_to_obj"})


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "attrs")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _frames_in(seq, stride) -> int:
    return len(range(0, seq.frame_count, stride))


# Counters recorded at the span boundary: name -> fn(arguments, result).
# `arguments` maps every parameter name to its value, defaults applied.
COUNTERS = {
    "background.median_frame": lambda a, r: {
        "elements": len(a["frames"]) * a["frames"][0].pixels.size},
    "media.read_detections": lambda a, r: {"rows": len(r), "path": str(a["path"])},
    "media.open_sequence": lambda a, r: {"frames_checked": r.frame_count},
    "media.read_frame": lambda a, r: {"bytes": r.pixels.nbytes},
    "media.write_frame": lambda a, r: {"bytes": a["frame"].pixels.nbytes},
    "detector.detect": lambda a, r: {"detections": len(r)},
    "sorting.estimate_directions": lambda a, r: {"detections": len(a["detections"])},
    "sorting.average_histogram": lambda a, r: {
        "frames": _frames_in(a["seq"], a["stride"])},
    "anomaly.support_profile": lambda a, r: {"rows_scanned": len(a["foreground"])},
    "anomaly.detect_anomalies": lambda a, r: {"events_out": len(r)},
}

# Recorded before the call, because the call changes what they look at.
PRE_COUNTERS = {
    "pipeline.process_video": lambda a: {
        "cache_hit": int(Path(a["out_vid"], "events.json").is_file())},
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        pre_count = PRE_COUNTERS.get(name)
        sig = inspect.signature(fn) if count or pre_count else None
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, open_spans[-1] if open_spans else None)
            arguments = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            if pre_count is not None:
                span.attrs.update(pre_count(arguments))
            open_spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_spans.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
                spans.append(span)
            if count is not None:
                span.attrs.update(count(arguments, result))
            return result

        return traced


def _layer_functions():
    """(span name, function) for every traced callable."""
    for layer in LAYERS:
        module = importlib.import_module(f"stallwatch.{layer}")
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_") and name not in UNWRAPPED):
                yield name, obj
    detector = importlib.import_module("stallwatch.detector")
    yield "detector.detect", detector.DetectorHandle.__dict__["detect"]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every binding of a traced function through `tracer`."""
    wrappers = {fn: tracer.wrap(name, fn) for name, fn in _layer_functions()}
    owners = [m for n, m in list(sys.modules.items())
              if n == "stallwatch" or n.startswith("stallwatch.")]
    owners.append(importlib.import_module("stallwatch.detector").DetectorHandle)
    patched = []
    for owner in owners:
        for attr, obj in list(vars(owner).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(owner, attr, wrappers[obj])
                patched.append((owner, attr, obj))
    try:
        yield tracer
    finally:
        for owner, attr, obj in patched:
            setattr(owner, attr, obj)


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced operation
# ---------------------------------------------------------------------------

# Metric name -> spans whose self time it sums. A named layer step owns the
# same-module helpers it calls.
SELF_TIME = {
    "background.median_frame.s": ("background.median_frame",),
    "media.read_detections.s": ("media.read_detections",),
    "sorting.estimate_directions.s": ("sorting.estimate_directions",),
    "sorting.average_histogram.s": ("sorting.average_histogram",),
    "media.open_sequence.s": ("media.open_sequence",),
    "media.read_frame.s": ("media.read_frame",),
    "roadmask.adaptive_road_mask.s": ("roadmask.adaptive_road_mask",
                                      "roadmask.local_stats"),
    "detector.detect.s": ("detector.detect",),
    "anomaly.support_profile.s": ("anomaly.support_profile",),
    "anomaly.decision.s": ("anomaly.detect_anomalies", "anomaly.extract_candidates",
                           "anomaly.merge_candidates", "anomaly.decide",
                           "anomaly.coalesce_events"),
    "scoring.score_report.s": ("scoring.score_report", "scoring.match",
                               "scoring.f1", "scoring.rmse", "scoring.s4"),
    "synth.render_frame.s": ("synth.render_frame",),
    "media.write_frame.s": ("media.write_frame",),
    "media.write_detections.s": ("media.write_detections",),
}

# Metric name -> (span name, counter); the counter "calls" counts spans.
COUNTS = {
    "background.median_frame.calls": ("background.median_frame", "calls"),
    "background.median_frame.elements": ("background.median_frame", "elements"),
    "media.read_detections.rows": ("media.read_detections", "rows"),
    "sorting.estimate_directions.detections": ("sorting.estimate_directions", "detections"),
    "sorting.average_histogram.frames": ("sorting.average_histogram", "frames"),
    "media.open_sequence.frames_checked": ("media.open_sequence", "frames_checked"),
    "media.read_frame.calls": ("media.read_frame", "calls"),
    "media.read_frame.bytes": ("media.read_frame", "bytes"),
    "roadmask.adaptive_road_mask.calls": ("roadmask.adaptive_road_mask", "calls"),
    "detector.detect.calls": ("detector.detect", "calls"),
    "detector.detect.detections": ("detector.detect", "detections"),
    "anomaly.support_profile.rows_scanned": ("anomaly.support_profile", "rows_scanned"),
    "anomaly.decision.candidates_in": ("anomaly.decide", "calls"),
    "anomaly.decision.events_out": ("anomaly.detect_anomalies", "events_out"),
    "pipeline.process_video.cache_hits": ("pipeline.process_video", "cache_hit"),
    "synth.render_frame.frames": ("synth.render_frame", "calls"),
    "media.write_frame.bytes": ("media.write_frame", "bytes"),
}


def span_table(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, total self time, and summed numeric counters."""
    table: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        row = table[span.name]
        row["calls"] += 1
        row["self_s"] += span.self_s
        for key, value in span.attrs.items():
            if isinstance(value, (int, float)):
                row[key] += value
    return table


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The named per-layer metrics of one traced operation."""
    table = span_table(spans)
    out: dict[str, float] = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(table[n]["self_s"] for n in names if n in table)
    for metric, (name, counter) in COUNTS.items():
        out[metric] = table[name][counter] if name in table else 0.0

    # each foreground file counted once, whatever the number of parses
    distinct: dict[str, int] = {}
    for span in spans:
        if span.name == "media.read_detections" and "path" in span.attrs:
            distinct.setdefault(span.attrs["path"], span.attrs["rows"])
    distinct_rows = sum(distinct.values())
    out["media.read_detections.rows_per_distinct_row"] = (
        out["media.read_detections.rows"] / distinct_rows if distinct_rows else 0.0)
    windows = out["background.median_frame.calls"]
    out["roadmask.adaptive_road_mask.calls_per_window"] = (
        out["roadmask.adaptive_road_mask.calls"] / windows if windows else 0.0)

    videos = [s.duration for s in spans if s.name == "pipeline.process_video"]
    out["pipeline.process_video.s_p50"] = statistics.median(videos) if videos else 0.0
    out["pipeline.process_video.s_max"] = max(videos, default=0.0)

    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            row["self_s"] for name, row in table.items()
            if name.startswith(layer + "."))
    return out
