import json
import os
import shutil
from collections import Counter
from dataclasses import replace

import pytest

from stallwatch import anomaly, background, media, pipeline, roadmask, synth
from stallwatch.codec import read_json, write_json
from stallwatch.config import PipelineConfig
from stallwatch.media import (
    AnomalyEvent,
    BBox,
    SequenceMeta,
    write_detections,
)
from stallwatch.sorting import LightingClass, RoadType, VideoCategory
from stallwatch.synth import ParkedVehicle, RoadBand, SceneSpec, VehicleSpec

from conftest import Row, columns


def counted(counts: Counter, name: str, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


class TestOnePass:
    def test_foreground_parsed_once_and_mask_built_once_per_window(
            self, mini_corpus, tmp_path, monkeypatch):
        counts = Counter()
        monkeypatch.setattr(pipeline, "read_detections",
                            counted(counts, "parse", media.read_detections))
        mask = counted(counts, "mask", roadmask.adaptive_road_mask)
        monkeypatch.setattr(pipeline, "adaptive_road_mask", mask)
        monkeypatch.setattr(anomaly, "adaptive_road_mask", mask, raising=False)
        monkeypatch.setattr(background, "median_frame",
                            counted(counts, "median", background.median_frame))
        monkeypatch.setattr(pipeline, "open_sequence",
                            counted(counts, "open", media.open_sequence))

        video_dir = mini_corpus / "videos" / "mini_day_stall"
        out_vid = tmp_path / "mini_day_stall"
        cfg, cfg_hash = PipelineConfig(), "cfg"
        events, stamp = pipeline.process_video(video_dir, out_vid, cfg, cfg_hash)
        index = json.loads((out_vid / "backgrounds" / "index.json").read_text())

        assert len(events) == 1
        assert counts["open"] == 1
        assert counts["parse"] == 1
        assert counts["mask"] == len(index["windows"]) == 2

        # a finished video is answered from events.json without opening
        # the frame sequence or parsing anything
        assert pipeline.process_video(video_dir, out_vid, cfg, cfg_hash) == \
               (events, stamp)
        assert counts == {"open": 1, "parse": 1, "mask": 2, "median": 2}

        # without events.json the whole chain runs again, once: nothing
        # upstream of it is read back
        (out_vid / "events.json").unlink()
        assert pipeline.process_video(video_dir, out_vid, cfg, cfg_hash) == \
               (events, stamp)
        assert counts == {"open": 2, "parse": 2, "mask": 4, "median": 4}


class TestShortVideo:
    def test_fails_alone_at_background_naming_itself_once(self, mini_corpus,
                                                          tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(mini_corpus, corpus, copy_function=os.link)
        scene = synth.make_scene("short", LightingClass.DAY, False, None, False,
                                 seed=2, duration=0.5)
        lane = scene.bands[0].y + synth.FWD_LANE
        scene = replace(scene, vehicles=(VehicleSpec(
            width=synth.VEH_W, height=synth.VEH_H, intensity=20.0,
            speed=synth.SPEED, spawn=0.0, axis="h", lane=lane, direction=1,
            start=0.0),))
        synth.generate(scene, corpus / "videos" / "short")
        out = tmp_path / "out"
        failures, stamps = pipeline.run_corpus(corpus, out, PipelineConfig())
        assert failures == [pipeline.VideoFailure(
            "short", "background",
            "VideoTooShort: short: background: duration 0.500s < 1s")]
        assert stamps == [(out / "mini_day_stall" / "stamp").read_bytes()]
        assert (out / "short" / "category.json").is_file()
        assert [p.video_id for p in media.read_predictions(
            out / "predictions.csv")] == ["mini_day_stall"]


class TestOutOfFrameDetection:
    def test_window_skipped_and_corpus_finished(self, mini_corpus, tmp_path, caplog):
        """A detector box past the background's edge costs its window only:
        the run writes predictions.csv, the same as with that window's
        detector output empty, and the warning names the box and image.
        (The stall is then seen in one window of two, short of
        `min_windows`; seen in both, it is predicted.)"""
        video = mini_corpus / "videos" / "mini_day_stall"
        (stall, _, _), = synth.static_boxes(synth.load_scene(video / synth.SCENE_FILE))
        stall_det = Row(0, "car", 1.0, stall)
        outside = Row(0, "car", 0.9, BBox(310, 100, 20, 6))

        def run(name, first_window):
            dets = tmp_path / name / "dets"
            (dets / "mini_day_stall").mkdir(parents=True)
            write_detections(columns(first_window),
                             dets / "mini_day_stall" / "bg_0.det.jsonl")
            write_detections(columns([stall_det]),
                             dets / "mini_day_stall" / "bg_30000.det.jsonl")
            cfg = PipelineConfig.from_obj(
                {"detector": {"kind": "precomputed", "directory": str(dets)}})
            out = tmp_path / name / "out"
            pipeline.run_all(mini_corpus, out, cfg)
            index = out / "mini_day_stall" / "backgrounds" / "index.json"
            assert [w["file"] for w in json.loads(index.read_text())["windows"]] == \
                   ["bg_0.pgm", "bg_30000.pgm"]
            return (out / "predictions.csv").read_bytes()

        with caplog.at_level("WARNING", logger="stallwatch.pipeline"):
            got = run("bad", [stall_det, outside])
        assert "box [310, 100, 20, 6] lies outside the 320x240 image" in caplog.text
        assert "bg_0.pgm" in caplog.text
        assert got == run("skipped", [])
        assert got.count(b"\n") == 1
        assert run("clean", [stall_det]).count(b"\n") == 2


GOLDEN_SCENE = SceneSpec(
    video_id="s1", duration=2.0, fps=5.0, width=32, height=24,
    lighting=LightingClass.NIGHT, offroad_intensity=45.0,
    bands=(RoadBand(0, 8, 32, 8, 15.0, 2.5),),
    vehicles=(
        VehicleSpec(width=4, height=2, intensity=5.0, speed=30.0, spawn=0.0,
                    axis="h", lane=10, direction=1, start=1.0, stall=(0.5, 1.5)),
        VehicleSpec(width=2, height=4, intensity=5.0, speed=30.0, spawn=0.5,
                    axis="v", lane=3, direction=-1, start=20.0,
                    class_label="bus"),
    ),
    offroad_parked=(ParkedVehicle(2, 2, 4, 2, 38.0),),
    seed=3,
)

# Bytes written by the hand-written per-record writers the codec replaced.
GOLDEN = {
    "category": (
        VideoCategory("v1", LightingClass.SNOW, RoadType.FREEWAY, 300.0),
        '{\n  "background_window_s": 300.0,\n  "lighting": "snow",\n'
        '  "road_type": "freeway",\n  "video_id": "v1"\n}\n'),
    "events": (
        [AnomalyEvent("v1", 10.0, 19.9, BBox(58, 110, 16, 6), 1.0)],
        '[\n  {\n    "bbox": [\n      58,\n      110,\n      16,\n      6\n    ],\n'
        '    "confidence": 1.0,\n    "end": 19.9,\n    "start": 10.0,\n'
        '    "video_id": "v1"\n  }\n]\n'),
    "index": (
        {"windows": [background.BackgroundWindow("bg_0.pgm", 0.0, 30.0, [3, 17])]},
        '{\n  "windows": [\n    {\n      "file": "bg_0.pgm",\n'
        '      "sampled_indices": [\n        3,\n        17\n      ],\n'
        '      "window_end_s": 30.0,\n      "window_start_s": 0.0\n    }\n  ]\n}\n'),
    "meta": (
        SequenceMeta("v1", 30.0, 4, 2, 2),
        '{\n  "fps": 30.0,\n  "frame_count": 4,\n  "height": 2,\n'
        '  "video_id": "v1",\n  "width": 2\n}\n'),
    "scene": (
        GOLDEN_SCENE,
        '{\n  "bands": [\n    {\n      "h": 8,\n      "intensity": 15.0,\n'
        '      "texture_sigma": 2.5,\n      "w": 32,\n      "x": 0,\n      "y": 8\n'
        '    }\n  ],\n  "duration": 2.0,\n  "fps": 5.0,\n  "height": 24,\n'
        '  "lighting": "night",\n  "noise_sigma": 1.5,\n'
        '  "offroad_intensity": 45.0,\n  "offroad_parked": [\n    {\n'
        '      "class": "car",\n      "h": 2,\n      "intensity": 38.0,\n'
        '      "w": 4,\n      "x": 2,\n      "y": 2\n    }\n  ],\n  "seed": 3,\n'
        '  "vehicles": [\n    {\n      "axis": "h",\n      "class": "car",\n'
        '      "direction": 1,\n      "height": 2,\n      "intensity": 5.0,\n'
        '      "lane": 10,\n      "spawn": 0.0,\n      "speed": 30.0,\n'
        '      "stall": [\n        0.5,\n        1.5\n      ],\n'
        '      "start": 1.0,\n      "width": 4\n    },\n    {\n'
        '      "axis": "v",\n      "class": "bus",\n      "direction": -1,\n'
        '      "height": 4,\n      "intensity": 5.0,\n      "lane": 3,\n'
        '      "spawn": 0.5,\n      "speed": 30.0,\n      "stall": null,\n'
        '      "start": 20.0,\n      "width": 2\n    }\n  ],\n'
        '  "video_id": "s1",\n  "width": 32\n}\n'),
    "config": (
        PipelineConfig(),
        '{\n  "background_fraction": 0.1,\n  "decision": {\n'
        '    "area_min": 0.001,\n    "iou_merge": 0.5,\n    "iou_support": 0.3,\n'
        '    "min_road_overlap": 0.2,\n    "min_support_density": 0.3,\n'
        '    "min_support_seconds": 1.0,\n    "min_windows": 2,\n'
        '    "score_min": 0.5\n  },\n  "detector": {\n'
        '    "command": [],\n    "directory": null,\n    "kind": "oracle",\n'
        '    "timeout": 30.0\n  },\n  "histogram_stride": 30,\n  "jobs": 1,\n'
        '  "k1k2": {\n    "day": [\n      2.0,\n      0.6\n    ],\n'
        '    "night": [\n      2.0,\n      0.6\n    ],\n    "snow": [\n'
        '      2.0,\n      0.6\n    ]\n  },\n  "mask_block": 31,\n'
        '  "seed": 0,\n  "vehicle_classes": [\n'
        '    "car",\n    "truck",\n    "bus"\n  ]\n}\n'),
}


# what the GOLDEN values that are not dataclasses are read back as
READ_AS = {"events": list[AnomalyEvent],
           "index": dict[str, list[background.BackgroundWindow]]}


class TestFormats:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_bytes(self, name, tmp_path):
        value, text = GOLDEN[name]
        path = tmp_path / f"{name}.json"
        write_json(path, value)
        assert path.read_bytes() == text.encode()
        assert read_json(path, READ_AS.get(name, type(value))) == value


class TestBackgroundSamples:
    def test_a_videos_backgrounds_do_not_depend_on_its_id(self, tmp_path):
        """A 60 s day freeway stall (10-50 s) at 2 fps has 6 samples a
        30 s window. Evenly spaced, 4 of each window's show the stall
        (frames 20-99), so both medians show it and it is found, under any
        id."""
        ids = ("v", "x4", "x5")
        specs = [synth.make_scene(video_id, LightingClass.DAY, False, (10.0, 50.0),
                                  False, seed=1, duration=60.0, fps=2.0)
                 for video_id in ids]
        corpus = synth.corpus(tmp_path / "corpus", specs=specs)
        out = tmp_path / "out"
        manifest = pipeline.run_all(corpus, out, PipelineConfig())
        assert (manifest["score"]["f1"], manifest["failures"]) == (1.0, [])

        def backgrounds(video_id):
            return {p.name: p.read_bytes()
                    for p in (out / video_id / "backgrounds").glob("*.pgm")}

        first = backgrounds(ids[0])
        assert sorted(first) == ["bg_0.pgm", "bg_30000.pgm"]
        assert all(backgrounds(video_id) == first for video_id in ids[1:])
