"""The benchmark's tracer still binds to the program.

`perfbench/tracer.py` finds its counters by parameter name (`path`,
`detections`, `foreground`, ...), so a renamed parameter fails every
traced benchmark operation. This runs the pipeline under the tracer and
checks that every per-layer metric comes out with the right counts.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from stallwatch import pipeline, synth
from stallwatch.config import PipelineConfig
from stallwatch.media import read_detections, read_frame

ROOT = Path(__file__).resolve().parent.parent


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def traced_spans(mini_corpus, tmp_path_factory):
    """The tracer module, the spans of one traced run_all and its output
    directory."""
    tracer = load_tracer()
    spans = tracer.Tracer()
    out = tmp_path_factory.mktemp("traced") / "out"
    with tracer.installed(spans):
        pipeline.run_all(mini_corpus, out, PipelineConfig())
    return tracer, spans.spans, out


def test_traced_run_all_reports_every_layer_metric(mini_corpus, traced_spans):
    tracer, spans, _ = traced_spans
    metrics = tracer.layer_metrics(spans)

    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # the trace.* metrics are computed by measure.py from the whole run
    expected = {m["name"] for m in per_layer if not m["name"].startswith("trace.")}
    assert expected - set(metrics) == set()

    (video_dir,) = pipeline.corpus_video_dirs(mini_corpus)
    rows = len(read_detections(video_dir / synth.FOREGROUND_FILE))
    assert rows > 0
    assert metrics["media.read_detections.rows"] == rows
    assert metrics["media.read_detections.rows_per_distinct_row"] == 1.0
    assert metrics["sorting.estimate_directions.detections"] == rows


def test_road_mask_time_stays_in_its_metric(traced_spans):
    # roadmask.adaptive_road_mask.s sums the self times of the mask step and
    # local_stats; a public helper they called would be a span of its own,
    # and its time would leave the metric
    tracer, spans, _ = traced_spans
    inside = set()
    for span in spans:
        outer = span.parent
        while outer is not None and outer.name != "roadmask.adaptive_road_mask":
            outer = outer.parent
        if outer is not None:
            inside.add(span.name)
    assert inside <= {"roadmask.local_stats"}
    assert tracer.layer_metrics(spans)["roadmask.adaptive_road_mask.s"] > 0


def test_detector_counters_match_an_untraced_run(mini_corpus, traced_spans):
    # one detector call per background window, and the rows it returns,
    # counted by `len` of each call's `Detections`
    tracer, spans, out = traced_spans
    metrics = tracer.layer_metrics(spans)
    (video_dir,) = pipeline.corpus_video_dirs(mini_corpus)
    out_vid = out / video_dir.name
    index = json.loads((out_vid / "backgrounds" / "index.json").read_text())
    paths = [out_vid / "backgrounds" / w["file"] for w in index["windows"]]
    with pipeline.make_detector(PipelineConfig(), video_dir, out_vid) as handle:
        rows = sum(len(handle.detect(path, read_frame(path))) for path in paths)
    assert rows > 0
    assert metrics["detector.detect.calls"] == len(paths) == 2
    assert metrics["detector.detect.detections"] == rows
