import hashlib
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import stallwatch
from stallwatch import media, pipeline
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
