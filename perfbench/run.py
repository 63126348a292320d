"""stallwatch benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the repository root; the program is imported from ./src. One run:

1. times a fresh interpreter importing the CLI and building a validated
   PipelineConfig, SETUP_SAMPLES times (setup_s, the median of the
   probe-scaled times);
2. renders the workload's corpus for the seed with `synth.corpus` (input
   preparation, untimed);
3. in a fresh interpreter (measure.py), repeats the workload's operation
   for S seconds, checking every output;
4. prints a table and, as the last line, one JSON object with the keys
   correct, attempted, failed and metrics. With --trace 0 the metrics are
   the end-to-end ones; with --trace 1 they are the per-layer ones from a
   traced run, plus the tracing overhead. Every per-layer metric is
   printed for every workload; a layer step the workload does not run
   reads 0 (the cold path on corpus12-rerun, the pipeline on synth-slice).
   trace.accounted_share is the sum of the named steps' self times
   (tracer.SELF_TIME) over the traced wall time, so it falls when time
   moves out of the named steps.

The gated timings (run_s, frames_per_s, setup_s) are medians of wall times
scaled to a reference host speed by the probe timed before and after each
operation (probe.py); the median raw wall time is printed as wall_s. The
traced timings (per-layer self times, trace.run_s, trace.overhead_s) are
raw wall times.

`--workload all` runs every workload untraced and traced and prints one
row per workload. Scratch data lives under .perfbench_work/ and is deleted
at the end of the run, except the digest store: a digest of each seed's
outputs per version of the code, so that outputs that change between runs
of the same code count as failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import probe
import tracer
import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
SETUP_CODE = (
    "import stallwatch.cli\n"
    "from stallwatch.config import PipelineConfig\n"
    "PipelineConfig.from_obj({'seed': %d})\n"
)
RUN_TIMEOUT_S = 150.0   # the whole run, leaving margin under 180 s
SCRATCH = Path(".perfbench_work")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path("src").resolve()), env.get("PYTHONPATH")) if p)
    return env


def measure_setup(seed: int, work: Path) -> float:
    """Median probe-scaled wall time of SETUP_SAMPLES fresh set-ups."""
    host = probe.Probe(work / "probe")
    before = host.time()
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE % seed],
                       env=child_env(), check=True, timeout=60)
        wall_s = time.perf_counter() - t0
        after = host.time(wall_s)
        samples.append(probe.scaled(wall_s, before, after))
        before = after
    return statistics.median(samples)


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted([*Path("src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def src_loc() -> int:
    return sum(len(p.read_text().splitlines()) for p in Path("src").rglob("*.py"))


def run_measure(name: str, seed: int, seconds: float, trace: int,
                work: Path, deadline: float) -> dict:
    budget = deadline - time.monotonic()
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work", str(work), "--budget", str(budget)]
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=budget + 30)
    if proc.returncode != 0:
        raise RuntimeError(f"measure.py exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def judge(records: list[dict], key: str) -> int:
    """Mark failed records; returns the number failed.

    A record fails if its operation raised, a check failed, or its output
    digest differs from the reference: the digest stored for this code and
    seed by an earlier run, else the most common digest of this run.
    """
    store_path = SCRATCH / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    known = store.setdefault(code_hash(), {})
    seen = Counter(r["digest"] for r in records if r.get("digest"))
    reference = known.get(key) or (seen.most_common(1)[0][0] if seen else None)
    failed = 0
    for r in records:
        if r.get("digest") != reference:
            r["problems"].append(f"output digest {r.get('digest')} != {reference}")
        r["failed"] = bool(r["error"] or r["problems"])
        failed += r["failed"]
    if not failed and reference is not None:
        known[key] = reference
        store_path.write_text(json.dumps(store, indent=1) + "\n")
    return failed


def median_of(records: list[dict], field: str) -> float:
    return statistics.median(r[field] for r in records)


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    workload = workloads.WORKLOADS[name]
    work = SCRATCH / "run"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_s = None if trace else measure_setup(seed, work)
        if workload.kind == "corpus":
            from stallwatch import synth

            synth.corpus(work / "corpus", seed, specs=workloads.corpus_specs(seed))
            # flush the fresh corpus now, so writeback does not run while timing
            os.sync()
        result = run_measure(name, seed, seconds, trace, work.resolve(), deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = result["records"]
    failed = judge(records, f"{workload.kind}:{seed}")
    timed = [r for r in records if r["timed"]]
    plain = [r for r in timed if not r["traced"]]
    run_s = median_of(plain, "scaled_s")
    summary = {
        "workload": name, "correct": failed == 0, "attempted": len(records),
        "failed": failed, "error_rate": failed / len(records),
        "samples": len(plain), "wall_s": median_of(plain, "s"),
        "digest": records[0].get("digest"),
        "frames": result["frames"],
    }
    if workload.kind == "corpus":
        for key in ("f1", "rmse_s", "s4"):
            summary[key] = records[0].get(key)
    for r in records:
        for problem in r["problems"] + ([r["error"]] if r["error"] else []):
            print(f"FAILED {name}: {problem}", file=sys.stderr)
    print(f"outputs {name} seed {seed}: sha256 {summary['digest']}")
    print(f"samples {name} (wall s / scaled s): "
          + " ".join(f"{r['s']:.4f}/{r['scaled_s']:.4f}" for r in plain))

    if trace:
        traced = [r for r in timed if r["traced"]]
        layers = {m: statistics.median(r["layers"][m] for r in traced)
                  for m in traced[0]["layers"]}
        traced_s = median_of(traced, "s")
        layers["trace.run_s"] = traced_s
        layers["trace.overhead_s"] = traced_s - summary["wall_s"]
        # the share of the traced time the named layer steps' self times cover
        layers["trace.accounted_share"] = statistics.median(
            sum(r["layers"][m] for m in tracer.SELF_TIME) / r["s"] for r in traced)
        summary["metrics"] = layers
    else:
        summary["metrics"] = {
            "run_s": run_s,
            "frames_per_s": result["frames"] / run_s,
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
    return summary


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def load_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def units(spec: dict, trace: int) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def metadata(seed: int) -> dict:
    import numpy
    import scipy

    return {"seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "src_loc": src_loc(),
            "fps": workloads.FPS}


def print_rows(rows: list[dict], columns: list[str]) -> None:
    width = max(len(c) for c in columns)
    print(f"{'':<{width}}  " + "  ".join(f"{r['workload']:>18}" for r in rows))
    for col in columns:
        cells = []
        for r in rows:
            v = r["metrics"].get(col, r.get(col))
            cells.append(f"{v:>18.6g}" if isinstance(v, (int, float)) else f"{v!s:>18}")
        print(f"{col:<{width}}  " + "  ".join(cells))


def result_object(summaries: list[dict], spec_units: dict, prefix: bool) -> dict:
    """The result object; with `prefix`, metric names carry the workload."""
    metrics = {}
    for s in summaries:
        for name, unit in spec_units.items():
            key = f"{s['workload']}.{name}" if prefix else name
            metrics[key] = {"value": s["metrics"][name], "unit": unit}
    return {
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/stallwatch/__init__.py").is_file():
        print("run from the root of a stallwatch checkout: no src/stallwatch",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    SCRATCH.mkdir(exist_ok=True)

    print("meta " + json.dumps(metadata(args.seed), sort_keys=True))
    end_to_end = units(spec, 0)
    per_layer = units(spec, 1)
    if args.workload != "all":
        summary = run_workload(args.workload, args.seed, seconds, args.trace)
        spec_units = per_layer if args.trace else end_to_end
        print_rows([summary], list(spec_units)
                   + ["wall_s", "error_rate", "samples", "attempted"])
        print(json.dumps(result_object([summary], spec_units, False)))
        return 0

    plain = [run_workload(n, args.seed, seconds, 0) for n in workloads.WORKLOADS]
    traced = [run_workload(n, args.seed, seconds, 1) for n in workloads.WORKLOADS]
    print("== end to end ==")
    print_rows(plain, list(end_to_end) + ["wall_s", "f1", "rmse_s", "s4",
                                          "error_rate", "samples", "attempted",
                                          "frames"])
    print("== per layer (traced) ==")
    print_rows(traced, list(per_layer) + ["error_rate", "samples"])
    combined = result_object(plain, end_to_end, True)
    layered = result_object(traced, per_layer, True)
    combined["correct"] = combined["correct"] and layered["correct"]
    combined["attempted"] += layered["attempted"]
    combined["failed"] += layered["failed"]
    combined["metrics"].update(layered["metrics"])
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
