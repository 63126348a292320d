"""A value that exists is valid: every record checks its rules itself.

Each case of RULES is one invalid value: a valid value (`top`), the path
from it to the record whose rule is broken (its owner), the field changes
that break the rule and the words of the error that name the field. Each
is built through every route that builds that type: the owner's
constructor, `dataclasses.replace` on the owner, and the reader of the
file that holds `top` (`PipelineConfig.from_obj`, `load_scene`,
`open_sequence`, `read_ground_truth`). Config cases also go through the
CLI's `--config`, which exits 2, and video id cases of a scene through
`make_scene`.

Each case of TYPE_RULES is a JSON value of the wrong type for its field,
which only the JSON readers and `--config` are given: an int field takes
a JSON integer, a float field an integer or a float, a str field a
string, and a bool is none of these.
"""

import csv
import json
import math
from dataclasses import fields, replace

import pytest

from stallwatch.cli import EXIT_CONFIG, run
from stallwatch.codec import encode
from stallwatch.config import PipelineConfig
from stallwatch.errors import ConfigError, InvalidSpec, ParseError, StallwatchError
from stallwatch.media import (
    GT_HEADER,
    GroundTruthEntry,
    SequenceMeta,
    open_sequence,
    read_ground_truth,
)
from stallwatch.roadmask import MaskParams
from stallwatch.sorting import LightingClass
from stallwatch.synth import (
    ParkedVehicle,
    RoadBand,
    SceneSpec,
    VehicleSpec,
    load_scene,
    make_scene,
)

NAN, INF = math.nan, math.inf

CONFIG = PipelineConfig()
MASK = MaskParams(k1=2.0, k2=0.6)
META = SequenceMeta("v1", 5.0, 0, 8, 6)  # no frames: no segment to write
GT = GroundTruthEntry("v1", 1.0, 2.0)
VEHICLE = VehicleSpec(width=10, height=6, intensity=25.0, speed=6.0, spawn=0.0,
                      axis="h", lane=24, direction=1, start=1.0, stall=(2.0, 5.0))
SCENE = SceneSpec(
    video_id="v1", duration=10.0, fps=5.0, width=80, height=60,
    lighting=LightingClass.DAY, offroad_intensity=190.0,
    bands=(RoadBand(0, 20, 80, 20, 70.0, 3.0),), vehicles=(VEHICLE,),
    offroad_parked=(ParkedVehicle(40, 2, 16, 6, 175.0),), noise_sigma=1.0, seed=3)


def k1k2(**classes):
    return {**CONFIG.k1k2, **classes}


# (id, top, path to the owner, changes, words naming the field)
RULES = [
    # PipelineConfig
    ("fraction-0", CONFIG, (), dict(background_fraction=0.0), "background_fraction"),
    ("fraction-1.5", CONFIG, (), dict(background_fraction=1.5), "background_fraction"),
    ("fraction-nan", CONFIG, (), dict(background_fraction=NAN), "background_fraction"),
    ("stride-0", CONFIG, (), dict(histogram_stride=0), "histogram_stride"),
    ("min-overlap-0", CONFIG, (), dict(mask_min_overlap=0.0), "mask_min_overlap"),
    ("min-overlap-1.5", CONFIG, (), dict(mask_min_overlap=1.5), "mask_min_overlap"),
    ("mask-block-10", CONFIG, (), dict(mask_block=10), "mask_block"),
    ("mask-block-1", CONFIG, (), dict(mask_block=1), "mask_block"),
    ("k1-0", CONFIG, (), dict(k1k2=k1k2(day=[0.0, 1.0])), "k1k2"),
    ("k1-nan", CONFIG, (), dict(k1k2=k1k2(day=[NAN, 0.6])), "k1k2"),
    ("k2-inf", CONFIG, (), dict(k1k2=k1k2(night=[2.0, INF])), "k1k2"),
    ("k1k2-not-a-pair", CONFIG, (), dict(k1k2=k1k2(snow=[1.0])), "k1k2"),
    ("jobs-0", CONFIG, (), dict(jobs=0), "jobs"),
    # DecisionParams
    ("score-min-1.5", CONFIG, ("decision",), dict(score_min=1.5), "score_min"),
    ("iou-support-negative", CONFIG, ("decision",), dict(iou_support=-0.1), "iou_support"),
    ("iou-merge-nan", CONFIG, ("decision",), dict(iou_merge=NAN), "iou_merge"),
    ("density-2", CONFIG, ("decision",), dict(min_support_density=2.0),
     "min_support_density"),
    ("area-min-negative", CONFIG, ("decision",), dict(area_min=-1.0), "area_min"),
    ("area-min-nan", CONFIG, ("decision",), dict(area_min=NAN), "area_min"),
    ("area-min-inf", CONFIG, ("decision",), dict(area_min=INF), "area_min"),
    ("support-seconds-0", CONFIG, ("decision",), dict(min_support_seconds=0.0),
     "min_support_seconds"),
    ("support-seconds-nan", CONFIG, ("decision",), dict(min_support_seconds=NAN),
     "min_support_seconds"),
    ("support-seconds-inf", CONFIG, ("decision",), dict(min_support_seconds=INF),
     "min_support_seconds"),
    ("min-windows-0", CONFIG, ("decision",), dict(min_windows=0), "min_windows"),
    # DetectorConfig
    ("kind-magic", CONFIG, ("detector",), dict(kind="magic"), "kind"),
    ("external-without-command", CONFIG, ("detector",), dict(kind="external"),
     "command"),
    ("timeout-minus-1", CONFIG, ("detector",), dict(timeout=-1.0), "timeout"),
    ("timeout-0", CONFIG, ("detector",), dict(timeout=0.0), "timeout"),
    ("timeout-nan", CONFIG, ("detector",), dict(timeout=NAN), "timeout"),
    ("timeout-inf", CONFIG, ("detector",), dict(timeout=INF), "timeout"),
    # MaskParams
    ("params-k1-0", MASK, (), dict(k1=0.0), "k1"),
    ("params-k2-nan", MASK, (), dict(k2=NAN), "k2"),
    ("params-k1-inf", MASK, (), dict(k1=INF), "k1"),
    ("params-block-4", MASK, (), dict(block=4), "block"),
    ("params-block-1", MASK, (), dict(block=1), "block"),
    # SequenceMeta
    ("fps-0", META, (), dict(fps=0.0), "fps"),
    ("fps-negative", META, (), dict(fps=-1.0), "fps"),
    ("fps-nan", META, (), dict(fps=NAN), "fps"),
    ("fps-inf", META, (), dict(fps=INF), "fps"),
    ("frame-count-negative", META, (), dict(frame_count=-1), "frame_count"),
    ("width-minus-320", META, (), dict(width=-320), "width"),
    ("height-0", META, (), dict(height=0), "height"),
    # GroundTruthEntry
    ("gt-start-negative", GT, (), dict(start=-1.0), "start"),
    ("gt-start-nan", GT, (), dict(start=NAN), "start"),
    ("gt-end-nan", GT, (), dict(end=NAN), "end"),
    ("gt-end-inf", GT, (), dict(end=INF), "end"),
    ("gt-end-before-start", GT, (), dict(end=0.5), "end"),
    # SceneSpec; a video id names the video's directory
    ("video-id-empty", SCENE, (), dict(video_id=""), "video_id"),
    ("video-id-dot", SCENE, (), dict(video_id="."), "video_id"),
    ("video-id-dot-dot", SCENE, (), dict(video_id=".."), "video_id"),
    ("video-id-nested", SCENE, (), dict(video_id="a/b"), "video_id"),
    ("video-id-escaping", SCENE, (), dict(video_id="../escaped"), "video_id"),
    ("video-id-nul", SCENE, (), dict(video_id="v\0"), "video_id"),
    ("seed-negative", SCENE, (), dict(seed=-1), "seed"),
    ("duration-0", SCENE, (), dict(duration=0.0), "duration"),
    ("duration-nan", SCENE, (), dict(duration=NAN), "duration"),
    ("duration-inf", SCENE, (), dict(duration=INF), "duration"),
    ("scene-fps-nan", SCENE, (), dict(fps=NAN), "fps"),
    ("scene-fps-inf", SCENE, (), dict(fps=INF), "fps"),
    ("scene-width-minus-5", SCENE, (), dict(width=-5), "scene width"),
    ("scene-width-0", SCENE, (), dict(width=0), "scene width"),
    ("scene-height-0", SCENE, (), dict(height=0), "scene height"),
    ("noise-nan", SCENE, (), dict(noise_sigma=NAN), "noise_sigma"),
    ("noise-negative", SCENE, (), dict(noise_sigma=-0.5), "noise_sigma"),
    ("noise-inf", SCENE, (), dict(noise_sigma=INF), "noise_sigma"),
    ("offroad-nan", SCENE, (), dict(offroad_intensity=NAN), "offroad_intensity"),
    ("offroad-inf", SCENE, (), dict(offroad_intensity=INF), "offroad_intensity"),
    ("night-baseline", SCENE, (), dict(lighting=LightingClass.NIGHT),
     "offroad_intensity"),
    ("snow-baseline", SCENE, (), dict(lighting=LightingClass.SNOW),
     "offroad_intensity"),
    ("band-past-right-edge", SCENE, (), dict(bands=(RoadBand(0, 2, 81, 3, 70.0, 3.0),)),
     "bands"),
    ("parked-past-corner", SCENE, (),
     dict(offroad_parked=(ParkedVehicle(76, 56, 5, 5, 175.0),)), "offroad_parked"),
    ("vehicle-wider-than-frame", SCENE, (),
     dict(vehicles=(replace(VEHICLE, width=81, stall=None),)), "vehicles"),
    ("stall-after-the-end", SCENE, (),
     dict(vehicles=(replace(VEHICLE, stall=(5.0, 20.0)),)), "stall"),
    ("stall-outside-the-frame", SCENE, (),
     dict(vehicles=(replace(VEHICLE, lane=58),)), "stall"),
    # RoadBand
    ("band-intensity-nan", SCENE, ("bands", 0), dict(intensity=NAN),
     "road band intensity"),
    ("texture-nan", SCENE, ("bands", 0), dict(texture_sigma=NAN), "texture_sigma"),
    ("texture-inf", SCENE, ("bands", 0), dict(texture_sigma=INF), "texture_sigma"),
    ("texture-negative", SCENE, ("bands", 0), dict(texture_sigma=-1.0), "texture_sigma"),
    ("band-of-width-0", SCENE, ("bands", 0), dict(w=0), "road band w "),
    ("band-of-height-minus-1", SCENE, ("bands", 0), dict(h=-1), "road band h "),
    ("band-left-of-frame", SCENE, ("bands", 0), dict(x=-3), "road band x "),
    # ParkedVehicle
    ("parked-minus-inf", SCENE, ("offroad_parked", 0), dict(intensity=-INF),
     "parked vehicle intensity"),
    ("parked-of-width-0", SCENE, ("offroad_parked", 0), dict(w=0), "parked vehicle w "),
    ("parked-above-frame", SCENE, ("offroad_parked", 0), dict(y=-1), "parked vehicle y "),
    # VehicleSpec
    ("vehicle-width-0", SCENE, ("vehicles", 0), dict(width=0), "width"),
    ("vehicle-height-minus-1", SCENE, ("vehicles", 0), dict(height=-1), "height"),
    ("axis-x", SCENE, ("vehicles", 0), dict(axis="x"), "axis"),
    ("direction-0", SCENE, ("vehicles", 0), dict(direction=0), "direction"),
    ("direction-5", SCENE, ("vehicles", 0), dict(direction=5), "direction"),
    ("speed-0", SCENE, ("vehicles", 0), dict(speed=0.0), "speed"),
    ("speed-negative", SCENE, ("vehicles", 0), dict(speed=-6.0), "speed"),
    ("speed-nan", SCENE, ("vehicles", 0), dict(speed=NAN), "speed"),
    ("speed-inf", SCENE, ("vehicles", 0), dict(speed=INF), "speed"),
    ("spawn-nan", SCENE, ("vehicles", 0), dict(spawn=NAN), "spawn"),
    ("start-inf", SCENE, ("vehicles", 0), dict(start=INF), "vehicle start"),
    ("vehicle-intensity-nan", SCENE, ("vehicles", 0), dict(intensity=NAN),
     "vehicle intensity"),
    ("stall-reversed", SCENE, ("vehicles", 0), dict(stall=(5.0, 3.0)), "stall"),
    ("stall-negative", SCENE, ("vehicles", 0), dict(stall=(-1.0, 3.0)), "stall"),
    ("stall-nan", SCENE, ("vehicles", 0), dict(stall=(NAN, 3.0)), "stall"),
]
IDS = [case[0] for case in RULES]

# (id, top, path to the owner, changes, words of the error)
TYPE_RULES = [
    ("stride-1.5", CONFIG, (), dict(histogram_stride=1.5), "bad int value 1.5"),
    ("mask-block-true", CONFIG, (), dict(mask_block=True), "bad int value True"),
    ("min-windows-2.9", CONFIG, ("decision",), dict(min_windows=2.9),
     "bad int value 2.9"),
    ("timeout-string", CONFIG, ("detector",), dict(timeout="30"),
     "bad float value '30'"),
    ("frame-count-10.7", META, (), dict(frame_count=10.7), "bad int value 10.7"),
    ("width-8.0", META, (), dict(width=8.0), "bad int value 8.0"),
    ("meta-fps-string", META, (), dict(fps="5"), "bad float value '5'"),
    ("video-id-number", META, (), dict(video_id=7), "bad str value 7"),
    ("scene-seed-true", SCENE, (), dict(seed=True), "bad int value True"),
    ("scene-fps-false", SCENE, (), dict(fps=False), "bad float value False"),
    ("band-x-2.0", SCENE, ("bands", 0), dict(x=2.0), "bad int value 2.0"),
    ("direction-1.5", SCENE, ("vehicles", 0), dict(direction=1.5),
     "bad int value 1.5"),
    ("axis-number", SCENE, ("vehicles", 0), dict(axis=1), "bad str value 1"),
]
FILE_CASES = [case for case in RULES if not isinstance(case[1], MaskParams)] + TYPE_RULES
CONFIG_CASES = [case for case in RULES + TYPE_RULES if case[1] is CONFIG]
VIDEO_ID_CASES = [case for case in RULES if case[1] is SCENE and "video_id" in case[3]]


def owner_of(top, path):
    for key in path:
        top = top[key] if isinstance(key, int) else getattr(top, key)
    return top


def with_changes_in_json(top, path, changes):
    """`top` as JSON data, the owner's fields at `path` changed."""
    obj = encode(top)
    target = obj
    for key in path:  # the codec keys these fields by their names
        target = target[key]
    target.update({key: encode(value) for key, value in changes.items()})
    return obj


def read_back(tmp_path, top, obj):
    """`obj`, the JSON data of a value of `top`'s type, read through the
    reader of the file that holds such a value."""
    if isinstance(top, PipelineConfig):
        return PipelineConfig.from_obj(obj)
    if isinstance(top, SceneSpec):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(obj))
        return load_scene(path)
    if isinstance(top, SequenceMeta):
        (tmp_path / "meta.json").write_text(json.dumps(obj))
        return open_sequence(tmp_path)
    if isinstance(top, GroundTruthEntry):
        with open(tmp_path / "gt.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([GT_HEADER, [obj[k] for k in
                                                  ("video_id", "start", "end")]])
        return read_ground_truth(tmp_path / "gt.csv")
    raise AssertionError(f"no file holds a {type(top).__name__}")


class TestEveryRoute:
    @pytest.mark.parametrize("name, top, path, changes, words", RULES, ids=IDS)
    def test_constructor(self, name, top, path, changes, words):
        owner = owner_of(top, path)
        kwargs = {f.name: getattr(owner, f.name) for f in fields(owner)}
        with pytest.raises(StallwatchError, match=words):
            type(owner)(**{**kwargs, **changes})

    @pytest.mark.parametrize("name, top, path, changes, words", RULES, ids=IDS)
    def test_replace(self, name, top, path, changes, words):
        with pytest.raises(StallwatchError, match=words):
            replace(owner_of(top, path), **changes)

    @pytest.mark.parametrize("name, top, path, changes, words", FILE_CASES,
                             ids=[case[0] for case in FILE_CASES])
    def test_file(self, tmp_path, name, top, path, changes, words):
        obj = with_changes_in_json(top, path, changes)
        with pytest.raises(StallwatchError, match=words) as error:
            read_back(tmp_path, top, obj)
        if isinstance(top, PipelineConfig):
            assert error.type is ConfigError
        elif isinstance(top, GroundTruthEntry):
            assert str(error.value).startswith(f"{tmp_path / 'gt.csv'}:2: ")
        else:
            assert error.type is ParseError
            assert str(tmp_path) in str(error.value)

    @pytest.mark.parametrize("name, top, path, changes, words", CONFIG_CASES,
                             ids=[case[0] for case in CONFIG_CASES])
    def test_cli_config(self, tmp_path, capsys, name, top, path, changes, words):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(with_changes_in_json(top, path, changes)))
        assert run(["--config", str(cfg), "--dump-config"]) == EXIT_CONFIG
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err.startswith("config error: ")
        assert words in printed.err

    @pytest.mark.parametrize("name, top, path, changes, words", VIDEO_ID_CASES,
                             ids=[case[0] for case in VIDEO_ID_CASES])
    def test_make_scene(self, name, top, path, changes, words):
        with pytest.raises(InvalidSpec, match=words):
            make_scene(changes["video_id"], LightingClass.DAY, False, (1.0, 8.0),
                       False, seed=0, duration=10.0)

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_cli_jobs(self, capsys, jobs):
        assert run(["--jobs", jobs, "--dump-config"]) == EXIT_CONFIG
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err.startswith("config error: jobs ")

    @pytest.mark.parametrize("top", [CONFIG, SCENE, META, GT],
                             ids=["config", "scene", "meta", "gt"])
    def test_the_valid_values_read_back(self, tmp_path, top):
        value = read_back(tmp_path, top, encode(top))
        if isinstance(top, PipelineConfig | SceneSpec):
            assert value == top
        elif isinstance(top, SequenceMeta):
            assert SequenceMeta(**{f.name: getattr(value, f.name)
                                   for f in fields(SequenceMeta)}) == top
        else:
            assert value == [top]


class TestConstructorOnly:
    """Rules that no file can break: from_obj merges `k1k2` over the
    default, so every class keeps its pair."""

    def test_k1k2_missing_a_class(self):
        with pytest.raises(ConfigError, match="k1k2 missing class 'snow'"):
            replace(CONFIG, k1k2={"day": [2.0, 0.6], "night": [2.0, 0.6]})
