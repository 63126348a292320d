import pytest

from stallwatch.codec import encode, write_json
from stallwatch.config import DetectorConfig, PipelineConfig
from stallwatch.errors import ConfigError
from stallwatch.sorting import LightingClass


class TestDefaults:
    def test_defaults_are_valid(self):
        cfg = PipelineConfig()
        assert cfg == PipelineConfig.from_obj({})

    def test_mask_params_per_class(self):
        cfg = PipelineConfig()
        for cls in LightingClass:
            params = cfg.mask_params(cls)
            assert params.k1 > 0 and params.k2 > 0
            assert params.block == cfg.mask_block


class TestRoundTrip:
    def test_obj_round_trip(self):
        cfg = PipelineConfig(seed=7, jobs=3)
        assert PipelineConfig.from_obj(encode(cfg)) == cfg

    def test_partial_override(self):
        cfg = PipelineConfig.from_obj({"seed": 5, "decision": {"score_min": 0.7}})
        assert cfg.seed == 5
        assert cfg.decision.score_min == 0.7
        assert cfg.decision.iou_merge == 0.5  # untouched default

    def test_k1k2_partial_override(self):
        cfg = PipelineConfig.from_obj({"k1k2": {"night": [1.0, 0.4]}})
        assert cfg.k1k2["night"] == [1.0, 0.4]
        assert cfg.k1k2["day"] == list(PipelineConfig().k1k2["day"])

    def test_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_json(path, PipelineConfig(seed=11))
        assert PipelineConfig.from_json_file(path).seed == 11

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            PipelineConfig.from_json_file(path)


class TestValidation:
    # the range rules of every config field: tests/test_rules.py
    @pytest.mark.parametrize("obj", [
        {"histogram_strid": 5},
        {"detector": {"timout": 5}},
        {"k1k2": {"dusk": [1, 1]}},
    ])
    def test_unknown_key_rejected(self, obj):
        with pytest.raises(ConfigError, match="unknown config keys"):
            PipelineConfig.from_obj(obj)

    def test_external_with_command_ok(self):
        cfg = PipelineConfig.from_obj(
            {"detector": {"kind": "external", "command": ["cat"]}})
        assert cfg.detector == DetectorConfig(kind="external", command=("cat",))


class TestHash:
    def test_stable(self):
        assert PipelineConfig().content_hash() == PipelineConfig().content_hash()

    def test_changes_with_content(self):
        assert PipelineConfig().content_hash() != \
               PipelineConfig(seed=1).content_hash()

    def test_integer_k1k2_hashes_like_float(self):
        # [2, 0.6] runs exactly like the default [2.0, 0.6]
        cfg = PipelineConfig.from_obj({"k1k2": {"day": [2, 0.6]}})
        assert cfg.k1k2["day"] == [2.0, 0.6]
        assert all(isinstance(v, float) for v in cfg.k1k2["day"])
        assert cfg.content_hash() == PipelineConfig().content_hash()
