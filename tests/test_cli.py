import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import stallwatch
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
