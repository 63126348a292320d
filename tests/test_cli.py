import hashlib
import json
import os
import shutil
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest

import stallwatch
from stallwatch import media, pipeline, synth
from stallwatch.cli import (
    EXIT_CONFIG,
    EXIT_FAILURE,
    EXIT_MISSING_INPUT,
    EXIT_OK,
    EXIT_USAGE,
    run,
)
from stallwatch.media import read_predictions


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

    def test_help(self, capsys):
        assert run(["--help"]) == EXIT_OK
        assert "stallwatch" in capsys.readouterr().out


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

    @pytest.mark.parametrize("corrupt", [
        lambda text: text[:len(text) // 2],
        lambda text: text.replace('"lighting"', '"lightning"'),
    ], ids=["truncated", "no-lighting"])
    def test_corrupt_category_fails_naming_the_file(self, mini_corpus, tmp_path,
                                                    capsys, corrupt):
        out = tmp_path / "out"
        assert run(["sort", "--corpus", str(mini_corpus),
                    "--out", str(out)]) == EXIT_OK
        cat = out / "mini_day_stall" / "category.json"
        cat.write_text(corrupt(cat.read_text()))
        assert run(["detect", "--corpus", str(mini_corpus),
                    "--out", str(out)]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert "ParseError" in err and "category.json" in err

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

    def test_staged_commands_read_only_what_their_stage_needs(
            self, mini_corpus, tmp_path, capsys):
        corpus = linked_corpus(mini_corpus, tmp_path / "corpus")
        out = tmp_path / "out"
        assert run(["run-all", "--corpus", str(corpus), "--out", str(out)]) == EXIT_OK
        filled = tree_digests(out)
        video = corpus / "videos" / "mini_day_stall"
        for name in ("meta.json", "foreground.jsonl"):
            (video / name).write_text("not json {")
        for stage in ("sort", "background", "mask"):
            assert run([stage, "--corpus", str(corpus),
                        "--out", str(out)]) == EXIT_OK, capsys.readouterr().err
            assert tree_digests(out) == filled

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

    def test_corrupt_events_file_fails_at_the_decide_stage(self, mini_corpus,
                                                           tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["run-all", "--corpus", str(mini_corpus),
                    "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        (out / "mini_day_stall" / "events.json").write_text("[{")
        assert run(["run-all", "--corpus", str(mini_corpus),
                    "--out", str(out)]) == EXIT_FAILURE
        failure, = json.loads(capsys.readouterr().out)["failures"]
        assert (failure["video"], failure["stage"]) == ("mini_day_stall", "decide")
        assert failure["error"].startswith(
            "ParseError: mini_day_stall: decide: ")

    def test_detect_command_fails_the_bad_video_only(self, mini_corpus, tmp_path,
                                                     capsys):
        corpus = linked_corpus(mini_corpus, tmp_path / "corpus",
                               ("bad", "mini_day_stall"))
        (corpus / "videos" / "bad" / "foreground.jsonl").write_text("")
        out = tmp_path / "out"
        assert run(["detect", "--corpus", str(corpus),
                    "--out", str(out)]) == EXIT_FAILURE
        assert "detect: InsufficientData: bad: sort: " in capsys.readouterr().err
        preds = read_predictions(out / "predictions.csv")
        assert [p.video_id for p in preds] == ["mini_day_stall"]

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


def test_cli_import_loads_no_scipy():
    """The runtime needs numpy only: a fresh interpreter importing the CLI
    and building its config has no scipy module loaded."""
    code = ("import sys, stallwatch.cli\n"
            "from stallwatch.config import PipelineConfig\n"
            "PipelineConfig().validate()\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(stallwatch.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
