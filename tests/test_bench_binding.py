"""The benchmark's tracer still binds to the program.

`perfbench/tracer.py` finds its counters by parameter name (`path`,
`detections`, `foreground`, ...), so a renamed parameter fails every
traced benchmark operation. This runs the pipeline under the tracer and
checks that every per-layer metric comes out with the right counts.
"""

import importlib.util
import json
from pathlib import Path

from stallwatch import pipeline, synth
from stallwatch.config import PipelineConfig
from stallwatch.media import read_detections

ROOT = Path(__file__).resolve().parent.parent


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_all_reports_every_layer_metric(mini_corpus, tmp_path):
    tracer = load_tracer()
    spans = tracer.Tracer()
    with tracer.installed(spans):
        pipeline.run_all(mini_corpus, tmp_path / "out", PipelineConfig())
    metrics = tracer.layer_metrics(spans.spans)

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
