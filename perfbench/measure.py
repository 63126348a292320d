"""Timed operations of one workload, run in a fresh interpreter.

    python3 perfbench/measure.py --workload W --seed N --seconds S \
        --trace 0|1 --work DIR --budget B

Reads the corpus that run.py prepared under DIR/corpus, repeats the
workload's operation for S seconds of wall time (at least MIN_SAMPLES
times, unless that would overrun B seconds in all), and prints one JSON
line: one record per operation (wall time, wall time scaled by the host-speed
probes taken before and after it, output digest, failed checks, and
per-layer metrics when traced) plus the process's peak RSS. Running in its
own process keeps input generation out of the RSS figure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import threading
import time
import traceback
from pathlib import Path

import probe
import tracer
import workloads

MIN_SAMPLES = 3          # timed operations per run, at least
MIN_TRACED_SAMPLES = 2   # each of traced and untraced, in a trace run


def warm_page_cache(root: Path) -> None:
    for path in root.rglob("*"):
        if path.is_file():
            path.read_bytes()


def make_operation(workload, seed: int, work: Path):
    """(operation, check, frames); `operation(i)` runs the i-th repetition
    and returns its output directory, `check` inspects and removes it."""
    from stallwatch import pipeline, synth
    from stallwatch.config import PipelineConfig

    if workload.kind == "slice":
        specs = workloads.corpus_specs(seed, workloads.SLICE_PRESETS)

        def operation(i):
            out = work / f"slice{i}"
            synth.corpus(out, seed, specs=specs)
            return out

        def check(out):
            try:
                return workloads.check_slice(out, specs)
            finally:
                shutil.rmtree(out)

        return operation, check, sum(s.frame_count for s in specs)

    corpus = work / "corpus"
    warm_page_cache(corpus)
    cfg = PipelineConfig.from_obj({"seed": seed, "jobs": 1})

    def operation(i):
        out = work / ("out" if workload.rerun else f"out{i}")
        pipeline.run_all(corpus, out, cfg)
        return out

    def check(out):
        try:
            return workloads.check_corpus_run(out)
        finally:
            if not workload.rerun:
                shutil.rmtree(out)

    frames = sum(json.loads(p.read_text())["frame_count"]
                 for p in corpus.glob("videos/*/meta.json"))
    return operation, check, frames


def run_one(operation, check, i: int, timed: bool, traced: bool) -> dict:
    record = {"timed": timed, "traced": traced, "error": None, "problems": []}
    spans = tracer.Tracer()
    out = None
    threads = threading.active_count()
    try:
        with tracer.installed(spans) if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                out = operation(i)
            finally:
                record["s"] = time.perf_counter() - t0
    except Exception as exc:
        traceback.print_exc()
        record["error"] = f"{type(exc).__name__}: {exc}"
    # work still running after the operation would slow the next probe
    if threading.active_count() > threads:
        record["problems"].append(
            f"operation left {threading.active_count() - threads} threads running")
    if out is not None:
        try:
            record.update(check(out))
        except Exception as exc:
            traceback.print_exc()
            record["error"] = f"check: {type(exc).__name__}: {exc}"
    # neither the probe nor the next operation should pay for this one's
    # writeback
    os.sync()
    if traced:
        record["layers"] = tracer.layer_metrics(spans.spans)
    return record


def main(argv=None) -> int:
    process_start = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--budget", type=float, required=True,
                        help="wall seconds this process may take in all")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    operation, check, frames = make_operation(workload, args.seed, args.work)

    host = probe.Probe(args.work / "probe")
    records: list[dict] = []
    probes = [host.time()]   # probes[i] and probes[i + 1] enclose records[i]

    def step(i: int, timed: bool, traced: bool) -> None:
        records.append(run_one(operation, check, i, timed, traced))
        probes.append(host.time(records[-1]["s"]))

    # warm-up: imports, page cache, and for the rerun workload the fill
    step(0, timed=False, traced=False)
    if workload.rerun:
        step(1, timed=False, traced=False)

    start = time.perf_counter()

    def enough() -> bool:
        timed = [r for r in records if r["timed"]]
        traced = sum(r["traced"] for r in timed)
        kinds = (traced, len(timed) - traced) if args.trace else (len(timed),)
        now = time.perf_counter()
        if min(kinds) >= 1 and now + 2 * records[-1]["s"] > process_start + args.budget:
            return True   # a very slow program still gets a result in time
        if now - start < args.seconds:
            return False
        return min(kinds) >= (MIN_TRACED_SAMPLES if args.trace else MIN_SAMPLES)

    while not enough():
        i = len(records)
        step(i, timed=True, traced=bool(args.trace) and i % 2 == 1)

    for record, before, after in zip(records, probes, probes[1:]):
        record["scaled_s"] = probe.scaled(record["s"], before, after)

    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"records": records, "frames": frames,
                      "peak_rss_mb": kib / 1024}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
