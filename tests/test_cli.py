import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import stallwatch
from stallwatch import anomaly, media, pipeline, synth
from stallwatch.cli import (
    EXIT_CONFIG,
    EXIT_FAILURE,
    EXIT_MISSING_INPUT,
    EXIT_OK,
    EXIT_USAGE,
    run,
)
from stallwatch.config import PipelineConfig
from stallwatch.detector import OracleDetector
from stallwatch.media import read_predictions, write_detections
from stallwatch.roadmask import adaptive_road_mask
from stallwatch.sorting import LightingClass

from conftest import Row, columns, frame_bytes


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == EXIT_USAGE
        assert "unknown subcommand" in capsys.readouterr().err

    def test_no_subcommand(self, capsys):
        assert run([]) == EXIT_USAGE

    def test_missing_corpus(self, tmp_path, capsys):
        assert run(["run-all", "--corpus", str(tmp_path / "nope"),
                    "--out", str(tmp_path / "out")]) == EXIT_MISSING_INPUT

    def test_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"jobs": 0}')
        assert run(["--config", str(cfg), "run-all",
                    "--corpus", str(tmp_path), "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_score_missing_inputs(self, tmp_path):
        assert run(["score", "--pred", str(tmp_path / "p.csv"),
                    "--gt", str(tmp_path / "g.csv")]) == EXIT_MISSING_INPUT

    def test_score_creates_the_report_directory(self, mini_corpus, tmp_path,
                                                capsys):
        pred, report = tmp_path / "p.csv", tmp_path / "reports" / "x.json"
        media.write_predictions([], pred)
        assert run(["score", "--pred", str(pred), "--gt",
                    str(mini_corpus / "gt.csv"), "--out", str(report)]) == EXIT_OK
        assert json.loads(report.read_text()) == json.loads(capsys.readouterr().out)

    def test_score_rejects_an_infinite_end(self, mini_corpus, tmp_path, capsys):
        # an infinite end would be written to score.json as Infinity, which
        # is not JSON
        pred, report = tmp_path / "pred.csv", tmp_path / "score.json"
        pred.write_text("video_id,start_seconds,end_seconds,confidence\n"
                        "v1,1,inf,0.5\n")
        assert run(["score", "--pred", str(pred), "--gt",
                    str(mini_corpus / "gt.csv"), "--out", str(report)]) == EXIT_FAILURE
        assert f"{pred}:2: bad event interval [1.0, inf]" in capsys.readouterr().err
        assert not report.exists()

    def test_help(self, capsys):
        assert run(["--help"]) == EXIT_OK
        assert "stallwatch" in capsys.readouterr().out

    def test_negative_seed_synthesizes_nothing(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert run(["--seed", "-1", "synth", "--out", str(out)]) == EXIT_FAILURE
        assert "synth: InvalidSpec: scene seed must be non-negative" in \
               capsys.readouterr().err
        assert not out.exists()


class TestDumpConfig:
    def test_prints_effective_config(self, capsys):
        assert run(["--seed", "9", "--dump-config"]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["seed"] == 9
        assert set(obj["k1k2"]) == {"day", "night", "snow"}


class TestStages:
    def test_sort_stage_writes_category(self, mini_corpus, tmp_path):
        out = tmp_path / "out"
        assert run(["sort", "--corpus", str(mini_corpus),
                    "--out", str(out)]) == EXIT_OK
        cat = json.loads((out / "mini_day_stall" / "category.json").read_text())
        assert cat["lighting"] == "day"
        assert cat["road_type"] == "freeway"
        assert cat["background_window_s"] == 30.0

    def test_background_and_mask_stages(self, mini_corpus, tmp_path):
        out = tmp_path / "out"
        assert run(["background", "--corpus", str(mini_corpus),
                    "--out", str(out)]) == EXIT_OK
        bg_dir = out / "mini_day_stall" / "backgrounds"
        index = json.loads((bg_dir / "index.json").read_text())
        assert len(index["windows"]) == 2
        assert run(["mask", "--corpus", str(mini_corpus),
                    "--out", str(out)]) == EXIT_OK
        assert (out / "mini_day_stall" / "mask.pgm").is_file()

    def test_mask_is_the_union_of_the_background_masks(self, mini_corpus, tmp_path):
        # mask.pgm, as 0/255 bytes, is the OR of the road masks of the
        # backgrounds the background stage wrote
        out = tmp_path / "out"
        assert run(["mask", "--corpus", str(mini_corpus),
                    "--out", str(out)]) == EXIT_OK
        out_vid = out / "mini_day_stall"
        lighting = json.loads((out_vid / "category.json").read_text())["lighting"]
        params = PipelineConfig().mask_params(LightingClass(lighting))
        index = json.loads((out_vid / "backgrounds" / "index.json").read_text())
        masks = [adaptive_road_mask(media.read_frame(out_vid / "backgrounds" / w["file"]),
                                    params) for w in index["windows"]]
        road = np.logical_or.reduce(masks)
        assert len(masks) == 2 and 0.0 < road.mean() < 1.0
        assert not all(np.array_equal(m, road) for m in masks)
        expected = media.Frame(np.where(road, 255, 0).astype(np.uint8))
        assert (out_vid / "mask.pgm").read_bytes() == frame_bytes(expected)

    @pytest.mark.parametrize("bbox", ['[1, 2, "3", 4]', "[NaN, 2, 3, 4]",
                                      "[1e400, 2, 3, 4]"])
    def test_bad_foreground_row_fails_naming_the_line(self, mini_corpus, tmp_path,
                                                      capsys, bbox):
        # the small files are copied and the frame segments hard-linked; the
        # edited foreground.jsonl is a new file, never a link into the fixture
        corpus = tmp_path / "corpus"
        src = mini_corpus / "videos" / "mini_day_stall"
        video = corpus / "videos" / "mini_day_stall"
        video.mkdir(parents=True)
        shutil.copy(mini_corpus / "gt.csv", corpus)
        for name in ("meta.json", "scene.json"):
            shutil.copy(src / name, video)
        for segment in src.glob("frames_*.pgm"):
            os.link(segment, video / segment.name)
        lines = (src / "foreground.jsonl").read_text().splitlines()
        lines[2] = f'{{"frame": 3, "class": "car", "score": 1.0, "bbox": {bbox}}}'
        (video / "foreground.jsonl").write_text("\n".join(lines) + "\n")
        assert run(["sort", "--corpus", str(corpus),
                    "--out", str(tmp_path / "out")]) == EXIT_FAILURE
        assert "foreground.jsonl:3: " in capsys.readouterr().err

    def test_run_all_and_score(self, mini_corpus, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["run-all", "--corpus", str(mini_corpus),
                    "--out", str(out)]) == EXIT_OK
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["score"]["tp"] == 1
        assert manifest["score"]["fp"] == 0

        preds = read_predictions(out / "predictions.csv")
        assert len(preds) == 1
        assert preds[0].video_id == "mini_day_stall"
        assert preds[0].start == pytest.approx(10.0, abs=2.0)

        assert run(["score", "--pred", str(out / "predictions.csv"),
                    "--gt", str(mini_corpus / "gt.csv")]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["f1"] == 1.0

    def test_run_all_with_no_stall_and_no_prediction(self, tmp_path, capsys):
        """Nothing to score: manifest.json holds "score": null, a stale
        score.json is removed, and run-all exits 1 only for a failed video.
        `score` on the same two files still fails on the undefined F1."""
        spec = synth.make_scene("clean", LightingClass.DAY, False, None, False,
                                seed=23, duration=60.0, fps=2.0)
        corpus = synth.corpus(tmp_path / "corpus", specs=[spec])
        out = tmp_path / "out"
        out.mkdir()
        (out / "score.json").write_text("{}")
        assert run(["run-all", "--corpus", str(corpus), "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["score"], manifest["failures"]) == (None, [])
        assert not (out / "score.json").exists()
        assert read_predictions(out / "predictions.csv") == []

        bad = corpus / "videos" / "bad"
        shutil.copytree(corpus / "videos" / "clean", bad)
        (bad / "foreground.jsonl").write_text("")
        assert run(["run-all", "--corpus", str(corpus),
                    "--out", str(out)]) == EXIT_FAILURE
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["score"] is None
        assert [f["video"] for f in manifest["failures"]] == ["bad"]

        capsys.readouterr()
        report = tmp_path / "score.json"
        assert run(["score", "--pred", str(out / "predictions.csv"), "--gt",
                    str(corpus / "gt.csv"), "--out", str(report)]) == EXIT_FAILURE
        assert ("score: UndefinedScore: no predictions and no ground truth"
                in capsys.readouterr().err)
        assert not report.exists()

    def test_run_all_without_ground_truth_removes_the_old_score(
            self, mini_corpus, tmp_path, capsys):
        corpus = linked_corpus(mini_corpus, tmp_path / "corpus")
        out = tmp_path / "out"
        assert run(["run-all", "--corpus", str(corpus), "--out", str(out)]) == EXIT_OK
        assert (out / "score.json").is_file()
        (corpus / "gt.csv").unlink()
        assert run(["run-all", "--corpus", str(corpus), "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "manifest.json").read_text())["score"] is None
        assert not (out / "score.json").exists()


def linked_corpus(mini_corpus: Path, corpus: Path, names=("mini_day_stall",)) -> Path:
    """The mini corpus's video under each of `names`: its small files
    copied, its frame segments hard-linked, so that a test may overwrite
    the small files without touching the fixture."""
    src = mini_corpus / "videos" / "mini_day_stall"
    corpus.mkdir()
    shutil.copy(mini_corpus / "gt.csv", corpus)
    for name in names:
        video = corpus / "videos" / name
        video.mkdir(parents=True)
        for small in ("meta.json", "scene.json", "foreground.jsonl"):
            shutil.copy(src / small, video)
        for segment in src.glob("frames_*.pgm"):
            os.link(segment, video / segment.name)
    return corpus


def tree_digests(root: Path) -> dict[str, str]:
    """sha256 of every file under `root`, keyed by its relative path."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestStageChain:
    def test_chain_error_names_the_video_and_stage(self, mini_corpus, tmp_path,
                                                   capsys):
        corpus = linked_corpus(mini_corpus, tmp_path / "corpus")
        (corpus / "videos" / "mini_day_stall" / "foreground.jsonl").write_text("")
        assert run(["sort", "--corpus", str(corpus),
                    "--out", str(tmp_path / "out")]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert "sort: InsufficientData: mini_day_stall: sort: detections span 0" in err

    @pytest.mark.parametrize("stage", ["sort", "background", "mask"])
    def test_staged_command_recomputes_and_drops_the_stamp(
            self, mini_corpus, tmp_path, capsys, stage):
        """A staged command into a filled --out reads nothing back: it
        recomputes its stages from the video's inputs, writes the same
        bytes and removes the stamp, so the next run-all runs the chain."""
        corpus = linked_corpus(mini_corpus, tmp_path / "corpus")
        out = tmp_path / "out"
        assert run(["run-all", "--corpus", str(corpus), "--out", str(out)]) == EXIT_OK
        filled = tree_digests(out)
        category = out / "mini_day_stall" / "category.json"
        before = category.stat().st_ino
        assert run([stage, "--corpus", str(corpus), "--out", str(out)]) == EXIT_OK
        assert category.stat().st_ino != before
        assert not (out / "mini_day_stall" / "stamp").exists()
        del filled["mini_day_stall/stamp"]
        assert tree_digests(out) == filled

        video = corpus / "videos" / "mini_day_stall"
        (video / "meta.json").write_text("not json {")
        assert run([stage, "--corpus", str(corpus),
                    "--out", str(out)]) == EXIT_FAILURE
        assert f"{stage}: ParseError: mini_day_stall: sort: " in capsys.readouterr().err

    def test_sort_opens_and_parses_once_per_video(self, mini_corpus, tmp_path,
                                                  monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(path):
                calls[name, str(path)] += 1
                return fn(path)
            return wrapper

        monkeypatch.setattr(pipeline, "open_sequence",
                            counted("open", media.open_sequence))
        monkeypatch.setattr(pipeline, "read_detections",
                            counted("parse", media.read_detections))
        corpus = linked_corpus(mini_corpus, tmp_path / "corpus", ("a", "b"))
        assert run(["sort", "--corpus", str(corpus),
                    "--out", str(tmp_path / "out")]) == EXIT_OK
        videos = [corpus / "videos" / name for name in ("a", "b")]
        assert calls == {
            **{("open", str(video)): 1 for video in videos},
            **{("parse", str(video / "foreground.jsonl")): 1 for video in videos}}

    def test_staged_run_writes_the_bytes_of_run_all(self, mini_corpus, tmp_path):
        staged, chained = tmp_path / "staged", tmp_path / "chained"
        for stage in ("sort", "background", "mask", "detect"):
            assert run([stage, "--corpus", str(mini_corpus),
                        "--out", str(staged)]) == EXIT_OK
        assert run(["run-all", "--corpus", str(mini_corpus),
                    "--out", str(chained)]) == EXIT_OK
        want = tree_digests(chained)
        del want["manifest.json"], want["score.json"]
        assert tree_digests(staged) == want


def without_manifest(root: Path) -> dict[str, str]:
    digests = tree_digests(root)
    del digests["manifest.json"]
    return digests


def hide_stall_from_oracle(video: Path) -> None:
    """scene.json with the stalled vehicle's intensity changed, so that the
    oracle detector no longer finds it on the backgrounds."""
    scene = json.loads((video / "scene.json").read_text())
    for vehicle in scene["vehicles"]:
        if vehicle["stall"] is not None:
            vehicle["intensity"] = 255.0
    (video / "scene.json").write_text(json.dumps(scene))


def drop_stall_rows(video: Path) -> None:
    """foreground.jsonl without the rows of the stalled vehicle's box, so
    that the stall has no support."""
    (box, _, _), = synth.static_boxes(synth.load_scene(video / "scene.json"))
    lines = (video / "foreground.jsonl").read_text().splitlines()
    (video / "foreground.jsonl").write_text("".join(
        line + "\n" for line in lines
        if json.loads(line)["bbox"] != [box.x, box.y, box.w, box.h]))


class TestStamp:
    """Through decide, a video is answered from its events.json only when
    its stamp matches the config and the video's small input files."""

    @pytest.mark.parametrize("change", [{"decision": {"min_windows": 50}},
                                        {"background_fraction": 0.2}],
                             ids=["decision", "background_fraction"])
    def test_rerun_with_another_config_equals_a_fresh_run(
            self, mini_corpus, tmp_path, capsys, change):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert run(["run-all", "--corpus", str(mini_corpus),
                    "--out", str(out)]) == EXIT_OK
        first = without_manifest(out)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(change))
        for directory in (out, fresh):
            assert run(["--config", str(cfg), "run-all", "--corpus",
                        str(mini_corpus), "--out", str(directory)]) == EXIT_OK
        assert without_manifest(out) == without_manifest(fresh) != first

    @pytest.mark.parametrize("edit", [hide_stall_from_oracle, drop_stall_rows],
                             ids=["scene", "foreground"])
    def test_edited_input_is_recomputed(self, mini_corpus, tmp_path, capsys,
                                        edit):
        corpus = linked_corpus(mini_corpus, tmp_path / "corpus")
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert run(["run-all", "--corpus", str(corpus), "--out", str(out)]) == EXIT_OK
        assert len(read_predictions(out / "predictions.csv")) == 1
        edit(corpus / "videos" / "mini_day_stall")
        for directory in (out, fresh):
            assert run(["run-all", "--corpus", str(corpus),
                        "--out", str(directory)]) == EXIT_OK
        assert read_predictions(out / "predictions.csv") == []
        assert without_manifest(out) == without_manifest(fresh)

    @pytest.mark.parametrize("deleted", ["events.json", "stamp"])
    def test_deleted_answer_recomputes_that_video_only(
            self, mini_corpus, tmp_path, capsys, deleted):
        corpus = linked_corpus(mini_corpus, tmp_path / "corpus", ("a", "b"))
        out = tmp_path / "out"
        assert run(["run-all", "--corpus", str(corpus), "--out", str(out)]) == EXIT_OK
        filled = without_manifest(out)
        inodes = {v: (out / v / "category.json").stat().st_ino for v in "ab"}
        (out / "a" / deleted).unlink()
        assert run(["run-all", "--corpus", str(corpus), "--out", str(out)]) == EXIT_OK
        assert (out / "a" / "category.json").stat().st_ino != inodes["a"]
        assert (out / "b" / "category.json").stat().st_ino == inodes["b"]
        assert without_manifest(out) == filled

    @pytest.mark.parametrize("damage", [
        lambda data: data[:len(data) // 2], lambda data: b"[" * 100_000],
        ids=["truncated", "deep"])
    def test_damaged_events_file_recomputes_that_video_only(
            self, mini_corpus, tmp_path, capsys, damage):
        corpus = linked_corpus(mini_corpus, tmp_path / "corpus", ("a", "b"))
        out = tmp_path / "out"
        assert run(["run-all", "--corpus", str(corpus), "--out", str(out)]) == EXIT_OK
        filled = without_manifest(out)
        inodes = {v: (out / v / "category.json").stat().st_ino for v in "ab"}
        events = out / "a" / "events.json"
        events.write_bytes(damage(events.read_bytes()))
        assert run(["run-all", "--corpus", str(corpus), "--out", str(out)]) == EXIT_OK
        assert (out / "a" / "category.json").stat().st_ino != inodes["a"]
        assert (out / "b" / "category.json").stat().st_ino == inodes["b"]
        assert without_manifest(out) == filled
        assert len(read_predictions(out / "predictions.csv")) == 2

    def test_parallel_rerun_is_answered_from_events(self, mini_corpus, tmp_path,
                                                    capsys):
        corpus = linked_corpus(mini_corpus, tmp_path / "corpus", ("a", "b"))
        out = tmp_path / "out"
        assert run(["run-all", "--corpus", str(corpus), "--out", str(out)]) == EXIT_OK
        first = json.loads(capsys.readouterr().out)

        def answers():
            return {v: ((out / v / "category.json").stat().st_ino,
                        (out / v / "stamp").read_bytes()) for v in "ab"}

        filled = answers()
        assert run(["--jobs", "2", "run-all", "--corpus", str(corpus),
                    "--out", str(out)]) == EXIT_OK
        assert answers() == filled
        assert json.loads(capsys.readouterr().out)["input_hash"] == \
               first["input_hash"]


def stall_windows(mini_corpus: Path, directory: Path, stall: bool = True,
                  score: float = 1.0, size: tuple[int, int] | None = None) -> None:
    """A precomputed detection file in `directory` for each background
    window of the mini corpus's video, holding its stall box if `stall`,
    at `score`, and `size` (w, h) wide and high if given."""
    scene = synth.load_scene(
        mini_corpus / "videos" / "mini_day_stall" / synth.SCENE_FILE)
    (box, _, label), = synth.static_boxes(scene)
    if size is not None:
        box = media.BBox(box.x, box.y, *size)
    directory.mkdir(parents=True)
    for window in ("bg_0", "bg_30000"):
        write_detections(columns([Row(0, label, score, box)] * stall),
                         directory / f"{window}.det.jsonl")


def precomputed_config(tmp_path: Path, directory: Path | None,
                       decision: dict | None = None) -> Path:
    """A config of the precomputed detector reading `directory`, with the
    `decision` thresholds given."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"decision": decision or {}, "detector": {
        "kind": "precomputed", "directory": directory and str(directory)}}))
    return cfg


class TestPrecomputed:
    def test_each_video_reads_its_own_directory(self, mini_corpus, tmp_path,
                                                capsys):
        corpus = linked_corpus(mini_corpus, tmp_path / "corpus", ("a", "b"))
        stall_windows(mini_corpus, tmp_path / "dets" / "a")
        stall_windows(mini_corpus, tmp_path / "dets" / "b", stall=False)
        cfg = precomputed_config(tmp_path, tmp_path / "dets")
        out = tmp_path / "out"
        assert run(["--config", str(cfg), "detect", "--corpus", str(corpus),
                    "--out", str(out)]) == EXIT_OK
        events = {v: json.loads((out / v / "events.json").read_text()) for v in "ab"}
        assert (len(events["a"]), events["b"]) == (1, [])

    # the stall box measures 16 x 6; the mini corpus's frame area is 320 x 240
    @pytest.mark.parametrize("score, size, decision, predicted", [
        (0.4, None, {}, 0),
        (0.5, None, {}, 1),  # the score gate is inclusive
        (0.4, None, {"score_min": 0.0}, 1),
        (1.0, (8, 6), {}, 0),  # 48 px² < area_min x 76,800 = 76.8 px²
        (1.0, (8, 6), {"area_min": 0.0}, 1),
    ], ids=["score-0.4", "score-0.5", "score-0.4-gate-off", "8x6-box",
            "8x6-box-gate-off"])
    def test_score_and_area_gates(self, mini_corpus, tmp_path, capsys, score,
                                  size, decision, predicted):
        stall_windows(mini_corpus, tmp_path / "dets" / "mini_day_stall",
                      score=score, size=size)
        cfg = precomputed_config(tmp_path, tmp_path / "dets", decision)
        out = tmp_path / "out"
        assert run(["--config", str(cfg), "run-all", "--corpus", str(mini_corpus),
                    "--out", str(out)]) == EXIT_OK
        assert len(read_predictions(out / "predictions.csv")) == predicted

    def test_flat_directory_fails_each_video(self, mini_corpus, tmp_path,
                                             capsys):
        # <directory>/bg_0.det.jsonl, not <directory>/<video_id>/bg_0.det.jsonl
        corpus = linked_corpus(mini_corpus, tmp_path / "corpus", ("a", "b"))
        stall_windows(mini_corpus, tmp_path / "dets")
        cfg = precomputed_config(tmp_path, tmp_path / "dets")
        out = tmp_path / "out"
        assert run(["--config", str(cfg), "detect", "--corpus", str(corpus),
                    "--out", str(out)]) == EXIT_FAILURE
        err = capsys.readouterr().err
        for video in "ab":
            assert (f"MissingDetections: {video}: detect: no detection "
                    f"directory {tmp_path / 'dets' / video}") in err
        assert not (out / "a" / "events.json").exists()

    @pytest.mark.parametrize("edit", [
        lambda path: write_detections(columns([]), path),
        lambda path: path.rename(path.with_name("bg_1.det.jsonl")),
    ], ids=["emptied", "renamed"])
    @pytest.mark.parametrize("configured", [True, False],
                             ids=["directory", "beside-backgrounds"])
    def test_edited_detection_file_is_recomputed(self, mini_corpus, tmp_path,
                                                 capsys, edit, configured):
        corpus = linked_corpus(mini_corpus, tmp_path / "corpus")
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        dirs = ([tmp_path / "dets" / "mini_day_stall"] if configured else
                [root / "mini_day_stall" / "backgrounds" for root in (out, fresh)])
        for directory in dirs:
            stall_windows(mini_corpus, directory)
        cfg = precomputed_config(tmp_path, tmp_path / "dets" if configured else None)
        detect = ["--config", str(cfg), "detect", "--corpus", str(corpus), "--out"]
        assert run(detect + [str(out)]) == EXIT_OK
        assert len(read_predictions(out / "predictions.csv")) == 1
        for directory in dirs:
            edit(directory / "bg_0.det.jsonl")
        for root in (out, fresh):
            assert run(detect + [str(root)]) == EXIT_OK
        assert read_predictions(out / "predictions.csv") == []
        assert tree_digests(out) == tree_digests(fresh)


def stall_detector(tmp_path: Path, corpus: Path, hangs: str) -> Path:
    """A config whose external detector, given 0.5 s a request, sleeps on
    each image for which `hangs`, the source of `def hangs(image)`, returns
    true, and answers any other with the mini corpus's stall box."""
    scene = synth.load_scene(corpus / "videos" / "mini_day_stall" / synth.SCENE_FILE)
    (box, _, label), = synth.static_boxes(scene)
    stall = {"class": label, "score": 1.0, "bbox": [box.x, box.y, box.w, box.h]}
    script = tmp_path / "detector.py"
    script.write_text(textwrap.dedent(hangs) + textwrap.dedent(f"""
        import json, sys, time
        for line in sys.stdin:
            req = json.loads(line)
            if "ping" in req:
                print(json.dumps({{"ready": True}}), flush=True)
                continue
            if hangs(req["image"]):
                time.sleep(60)
            print(json.dumps({{"detections": [{stall!r}]}}), flush=True)
    """))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"detector": {
        "kind": "external", "command": [sys.executable, str(script)],
        "timeout": 0.5}}))
    return cfg


class TestFaultIsolation:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_bad_video_fails_alone(self, mini_corpus, tmp_path, capsys, jobs):
        corpus = linked_corpus(mini_corpus, tmp_path / "corpus",
                               ("bad", "mini_day_stall"))
        (corpus / "videos" / "bad" / "foreground.jsonl").write_text("")
        out = tmp_path / "out"
        assert run(["--jobs", str(jobs), "run-all", "--corpus", str(corpus),
                    "--out", str(out)]) == EXIT_FAILURE
        printed = capsys.readouterr()
        error = ("InsufficientData: bad: sort: detections span 0 frame(s), "
                 "need >= 2")
        assert f"run-all: {error}" in printed.err
        manifest = json.loads(printed.out)
        assert manifest["failures"] == [
            {"video": "bad", "stage": "sort", "error": error}]
        assert json.loads((out / "manifest.json").read_text()) == manifest
        assert manifest["score"]["tp"] == 1
        assert json.loads((out / "score.json").read_text()) == manifest["score"]

        # the other video's results are those of a corpus without the bad one
        alone = tmp_path / "alone"
        assert run(["run-all", "--corpus", str(mini_corpus),
                    "--out", str(alone)]) == EXIT_OK
        assert ((out / "predictions.csv").read_bytes()
                == (alone / "predictions.csv").read_bytes())

    def test_video_without_meta_fails_alone(self, mini_corpus, tmp_path, capsys):
        # the stamp hashes a missing input as empty; the chain then fails
        corpus = linked_corpus(mini_corpus, tmp_path / "corpus",
                               ("bad", "mini_day_stall"))
        (corpus / "videos" / "bad" / "meta.json").unlink()
        out = tmp_path / "out"
        assert run(["run-all", "--corpus", str(corpus),
                    "--out", str(out)]) == EXIT_FAILURE
        failure, = json.loads(capsys.readouterr().out)["failures"]
        assert (failure["video"], failure["stage"]) == ("bad", "sort")
        assert failure["error"].startswith("MissingMetadata: bad: sort: ")
        preds = read_predictions(out / "predictions.csv")
        assert [p.video_id for p in preds] == ["mini_day_stall"]

    @pytest.mark.parametrize("missing, stage", [("foreground.jsonl", "sort"),
                                                ("scene.json", "detect")])
    def test_video_without_an_input_file_fails_alone(
            self, mini_corpus, tmp_path, capsys, missing, stage):
        # scene.json is read by the oracle detector, at the detect stage
        corpus = linked_corpus(mini_corpus, tmp_path / "corpus",
                               ("bad", "mini_day_stall"))
        (corpus / "videos" / "bad" / missing).unlink()
        out, alone = tmp_path / "out", tmp_path / "alone"
        assert run(["run-all", "--corpus", str(corpus),
                    "--out", str(out)]) == EXIT_FAILURE
        failure, = json.loads(capsys.readouterr().out)["failures"]
        assert (failure["video"], failure["stage"]) == ("bad", stage)
        assert failure["error"].startswith(f"FileNotFoundError: bad: {stage}: ")
        assert run(["run-all", "--corpus", str(mini_corpus),
                    "--out", str(alone)]) == EXIT_OK
        assert ((out / "predictions.csv").read_bytes()
                == (alone / "predictions.csv").read_bytes())

    @pytest.mark.parametrize("name, edit, stage, words", [
        ("meta.json", lambda obj: obj.update(fps=math.nan), "sort",
         "fps must be positive and finite, got nan"),
        # the last vehicle is the stalled one: the oracle would never find it
        ("scene.json", lambda obj: obj["vehicles"][-1].update(intensity=math.nan),
         "detect", "vehicle intensity must be finite, got nan"),
    ], ids=["nan-fps", "nan-stall-intensity"])
    def test_file_that_breaks_its_rules_fails_alone(
            self, mini_corpus, tmp_path, capsys, name, edit, stage, words):
        corpus = linked_corpus(mini_corpus, tmp_path / "corpus",
                               ("bad", "mini_day_stall"))
        path = corpus / "videos" / "bad" / name
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(json.dumps(obj))
        out, alone = tmp_path / "out", tmp_path / "alone"
        assert run(["run-all", "--corpus", str(corpus),
                    "--out", str(out)]) == EXIT_FAILURE
        printed = capsys.readouterr()
        error = f"ParseError: bad: {stage}: {path}: {words}"
        assert json.loads(printed.out)["failures"] == [
            {"video": "bad", "stage": stage, "error": error}]
        assert f"run-all: {error}" in printed.err
        assert run(["run-all", "--corpus", str(mini_corpus),
                    "--out", str(alone)]) == EXIT_OK
        assert ((out / "predictions.csv").read_bytes()
                == (alone / "predictions.csv").read_bytes())

    def test_detector_that_cannot_start_fails_each_video(self, mini_corpus,
                                                         tmp_path, capsys):
        corpus = linked_corpus(mini_corpus, tmp_path / "corpus", ("a", "b"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"detector": {
            "kind": "external", "command": [str(tmp_path / "no-such-detector")]}}))
        out = tmp_path / "out"
        assert run(["--config", str(cfg), "run-all", "--corpus", str(corpus),
                    "--out", str(out)]) == EXIT_FAILURE
        manifest = json.loads(capsys.readouterr().out)
        assert [(f["video"], f["stage"]) for f in manifest["failures"]] == \
               [("a", "detect"), ("b", "detect")]
        for failure in manifest["failures"]:
            assert failure["error"].startswith(
                f"FileNotFoundError: {failure['video']}: detect: ")
        assert read_predictions(out / "predictions.csv") == []
        assert json.loads((out / "manifest.json").read_text()) == manifest

    def test_detector_bug_stops_the_run(self, mini_corpus, tmp_path,
                                        monkeypatch):
        """An exception that is neither a `StallwatchError` nor an
        `OSError` is a bug: it skips no window and fails no video alone."""
        def broken(self, path, frame):
            raise TypeError("a bug in the detector")

        monkeypatch.setattr(OracleDetector, "_detect_raw", broken)
        corpus = linked_corpus(mini_corpus, tmp_path / "corpus", ("a", "b"))
        with pytest.raises(TypeError, match="a bug in the detector"):
            pipeline.run_all(corpus, tmp_path / "out", PipelineConfig())

    @pytest.mark.parametrize("name, text, where", [
        ("foreground.jsonl", '{"frame": 1%s}\n' % ("0" * 5000), "foreground.jsonl:1: "),
        ("foreground.jsonl", "[" * 100_000 + "\n", "foreground.jsonl:1: "),
        ("meta.json", "[" * 100_000, "meta.json: "),
    ], ids=["5000-digit-integer", "deep-foreground-line", "deep-meta"])
    def test_json_past_the_parser_limits_fails_alone(
            self, mini_corpus, tmp_path, capsys, name, text, where):
        corpus = linked_corpus(mini_corpus, tmp_path / "corpus",
                               ("bad", "mini_day_stall"))
        (corpus / "videos" / "bad" / name).write_text(text)
        out = tmp_path / "out"
        assert run(["run-all", "--corpus", str(corpus),
                    "--out", str(out)]) == EXIT_FAILURE
        failure, = json.loads(capsys.readouterr().out)["failures"]
        assert (failure["video"], failure["stage"]) == ("bad", "sort")
        assert failure["error"].startswith("ParseError: bad: sort: ")
        assert where in failure["error"]
        preds = read_predictions(out / "predictions.csv")
        assert [p.video_id for p in preds] == ["mini_day_stall"]
        assert (out / "manifest.json").is_file()

    @pytest.mark.parametrize("command, artifact", [
        ("sort", "category.json"), ("background", "backgrounds/index.json"),
        ("mask", "mask.pgm"), ("detect", "events.json")])
    def test_per_video_command_fails_the_bad_video_only(
            self, mini_corpus, tmp_path, capsys, command, artifact):
        corpus = linked_corpus(mini_corpus, tmp_path / "corpus",
                               ("bad", "mini_day_stall"))
        (corpus / "videos" / "bad" / "foreground.jsonl").write_text("")
        out = tmp_path / "out"
        assert run([command, "--corpus", str(corpus),
                    "--out", str(out)]) == EXIT_FAILURE
        assert (f"{command}: InsufficientData: bad: sort: "
                in capsys.readouterr().err)
        assert (out / "mini_day_stall" / artifact).is_file()
        assert not (out / "bad").exists()
        if command == "detect":
            preds = read_predictions(out / "predictions.csv")
            assert [p.video_id for p in preds] == ["mini_day_stall"]
        else:
            assert not (out / "predictions.csv").exists()

    @pytest.mark.parametrize("command", ["detect", "run-all"])
    def test_every_video_failing_still_writes_empty_predictions(
            self, mini_corpus, tmp_path, capsys, command):
        corpus = linked_corpus(mini_corpus, tmp_path / "corpus", ("bad",))
        (corpus / "videos" / "bad" / "foreground.jsonl").write_text("")
        out = tmp_path / "out"
        assert run([command, "--corpus", str(corpus),
                    "--out", str(out)]) == EXIT_FAILURE
        assert (f"{command}: InsufficientData: bad: sort: "
                in capsys.readouterr().err)
        assert read_predictions(out / "predictions.csv") == []

    def test_staged_commands_write_the_same_bytes_in_parallel(
            self, mini_corpus, tmp_path, capsys):
        corpus = linked_corpus(mini_corpus, tmp_path / "corpus", ("a", "b"))
        for stage in ("sort", "background", "mask", "detect"):
            for jobs in (1, 2):
                assert run(["--jobs", str(jobs), stage, "--corpus", str(corpus),
                            "--out", str(tmp_path / f"jobs{jobs}")]) == EXIT_OK, \
                    capsys.readouterr().err
            assert (tree_digests(tmp_path / "jobs2")
                    == tree_digests(tmp_path / "jobs1"))

    def test_non_utf8_foreground_fails_its_video_only(self, mini_corpus, tmp_path,
                                                      capsys):
        corpus = linked_corpus(mini_corpus, tmp_path / "corpus",
                               ("bad", "mini_day_stall"))
        foreground = corpus / "videos" / "bad" / "foreground.jsonl"
        data = foreground.read_bytes()
        foreground.write_bytes(data[:100] + b"\xff" + data[101:])
        out = tmp_path / "out"
        assert run(["run-all", "--corpus", str(corpus),
                    "--out", str(out)]) == EXIT_FAILURE
        manifest = json.loads(capsys.readouterr().out)
        failure, = manifest["failures"]
        assert (failure["video"], failure["stage"]) == ("bad", "sort")
        assert failure["error"].startswith(
            f"ParseError: bad: sort: {foreground}: not UTF-8: ")
        preds = read_predictions(out / "predictions.csv")
        assert [p.video_id for p in preds] == ["mini_day_stall"]
        assert manifest["score"]["tp"] == 1

    def test_non_utf8_ground_truth_is_a_parse_error(self, mini_corpus, tmp_path,
                                                    capsys):
        corpus = linked_corpus(mini_corpus, tmp_path / "corpus")
        gt = corpus / "gt.csv"
        gt.write_bytes(gt.read_bytes() + b"\xff,1,2\n")
        assert run(["run-all", "--corpus", str(corpus),
                    "--out", str(tmp_path / "out")]) == EXIT_FAILURE
        assert f"run-all: ParseError: {gt}: not UTF-8: " in capsys.readouterr().err

    def test_detector_hung_once_is_restarted(self, mini_corpus, tmp_path, capsys):
        # the first image request hangs; every window still gets detections,
        # so the run predicts what the oracle detector predicts
        cfg = stall_detector(tmp_path, mini_corpus, f"""
            import os
            def hangs(image):
                if os.path.exists({str(tmp_path / "hung")!r}):
                    return False
                open({str(tmp_path / "hung")!r}, "w").close()
                return True
        """)
        out, oracle = tmp_path / "out", tmp_path / "oracle"
        assert run(["--config", str(cfg), "run-all", "--corpus", str(mini_corpus),
                    "--out", str(out)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["failures"] == []
        assert (tmp_path / "hung").exists()
        assert run(["run-all", "--corpus", str(mini_corpus),
                    "--out", str(oracle)]) == EXIT_OK
        assert ((out / "predictions.csv").read_bytes()
                == (oracle / "predictions.csv").read_bytes())
        assert len(read_predictions(out / "predictions.csv")) == 1

    def test_detector_that_always_hangs_fails_its_video_only(
            self, mini_corpus, tmp_path, capsys):
        corpus = linked_corpus(mini_corpus, tmp_path / "corpus",
                               ("hangs", "mini_day_stall"))
        cfg = stall_detector(tmp_path, corpus, """
            def hangs(image):
                return "/hangs/" in image
        """)
        out = tmp_path / "out"
        assert run(["--config", str(cfg), "run-all", "--corpus", str(corpus),
                    "--out", str(out)]) == EXIT_FAILURE
        manifest = json.loads(capsys.readouterr().out)
        failure, = manifest["failures"]
        assert (failure["video"], failure["stage"]) == ("hangs", "detect")
        assert failure["error"].startswith("DetectorTimeout: hangs: detect: ")
        assert "after a restart" in failure["error"]
        assert not (out / "hangs" / "events.json").exists()
        preds = read_predictions(out / "predictions.csv")
        assert [p.video_id for p in preds] == ["mini_day_stall"]
        assert manifest["score"]["tp"] == 1

    def test_detector_failing_every_window_fails_the_video(self, mini_corpus,
                                                           tmp_path, capsys):
        """A detector whose every reply breaks the protocol fails the video
        at detect with the last window's error; it does not skip every
        window and finish with no events."""
        script = tmp_path / "detector.py"
        script.write_text(textwrap.dedent("""
            import json, sys
            for line in sys.stdin:
                if "ping" in json.loads(line):
                    print(json.dumps({"ready": True}), flush=True)
                    continue
                row = {"class": "car", "score": 2.0, "bbox": [0, 0, 4, 4]}
                print(json.dumps({"detections": [row]}), flush=True)
        """))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"detector": {
            "kind": "external", "command": [sys.executable, str(script)]}}))
        out = tmp_path / "out"
        assert run(["--config", str(cfg), "run-all", "--corpus", str(mini_corpus),
                    "--out", str(out)]) == EXIT_FAILURE
        printed = capsys.readouterr()
        error = ("ProtocolError: mini_day_stall: detect: malformed detection: "
                 "response[0]: score 2.0 outside [0, 1]")
        assert json.loads(printed.out)["failures"] == [
            {"video": "mini_day_stall", "stage": "detect", "error": error}]
        assert f"run-all: {error}" in printed.err
        assert not (out / "mini_day_stall" / "events.json").exists()
        assert read_predictions(out / "predictions.csv") == []


class TestHardNegatives:
    def test_stop_shorter_than_a_window_gives_no_prediction(self, tmp_path,
                                                            capsys):
        """A 5 s stop inside one 30 s background window is erased by that
        window's median: no candidate, no prediction. A stall across both
        windows of a video beside it is still predicted."""
        specs = [synth.make_scene(name, LightingClass.DAY, False, stall, False,
                                  seed=seed, duration=60.0, fps=2.0)
                 for name, stall, seed in (("short_stop", (35.0, 40.0), 21),
                                           ("stall", (10.0, 50.0), 22))]
        corpus = synth.corpus(tmp_path / "corpus", specs=specs)
        out = tmp_path / "out"
        assert run(["run-all", "--corpus", str(corpus), "--out", str(out)]) == EXIT_OK
        categories = [json.loads((out / name / "category.json").read_text())
                      for name in ("short_stop", "stall")]
        assert [c["background_window_s"] for c in categories] == [30.0, 30.0]
        assert json.loads((out / "short_stop" / "events.json").read_text()) == []
        preds = read_predictions(out / "predictions.csv")
        assert [p.video_id for p in preds] == ["stall"]
        assert 10.0 <= preds[0].start < 11.0

    def test_occluded_stall_gives_no_prediction(self, mini_corpus, tmp_path,
                                                capsys):
        """The foreground rows that support the stall box are kept on every
        4th of their frames only, as if traffic passed in front of it: a
        support density of 0.25, under `min_support_density` 0.3, gives no
        prediction. With that gate at 0.2 the stall is predicted."""
        corpus = linked_corpus(mini_corpus, tmp_path / "corpus")
        video = corpus / "videos" / "mini_day_stall"
        (box, _, _), = synth.static_boxes(synth.load_scene(video / synth.SCENE_FILE))
        iou_support = PipelineConfig().decision.iou_support
        rows = [json.loads(line) for line in
                (video / "foreground.jsonl").read_text().splitlines()]
        supports = [anomaly.iou(media.BBox(*row["bbox"]), box) >= iou_support
                    for row in rows]
        kept = sorted({row["frame"] for row, s in zip(rows, supports) if s})[::4]
        media.write_detections(columns([
            Row(row["frame"], row["class"], row["score"], media.BBox(*row["bbox"]))
            for row, s in zip(rows, supports) if not s or row["frame"] in kept]),
            video / "foreground.jsonl")
        frames = anomaly.support_profile(
            anomaly.Candidate(box, 1.0, 0.0),
            media.read_detections(video / "foreground.jsonl"), iou_support)
        assert list(frames) == kept
        assert 0.25 <= len(frames) / (frames[-1] - frames[0] + 1) < 0.3

        out = tmp_path / "out"
        assert run(["run-all", "--corpus", str(corpus), "--out", str(out)]) == EXIT_OK
        assert read_predictions(out / "predictions.csv") == []
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"decision": {"min_support_density": 0.2}}))
        low = tmp_path / "low"
        assert run(["--config", str(cfg), "run-all", "--corpus", str(corpus),
                    "--out", str(low)]) == EXIT_OK
        preds = read_predictions(low / "predictions.csv")
        assert [p.video_id for p in preds] == ["mini_day_stall"]
        assert preds[0].start == pytest.approx(10.0, abs=2.0)


def test_cli_import_loads_no_scipy():
    """The runtime needs numpy only: a fresh interpreter importing the CLI
    and building its config has no scipy module loaded."""
    code = ("import sys, stallwatch.cli\n"
            "from stallwatch.config import PipelineConfig\n"
            "PipelineConfig.from_obj({})\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(stallwatch.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
