import json
from collections import Counter

from stallwatch import anomaly, media, pipeline, roadmask
from stallwatch.config import PipelineConfig


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

        video_dir = mini_corpus / "videos" / "mini_day_stall"
        out_vid = tmp_path / "mini_day_stall"
        events = pipeline.process_video(video_dir, out_vid, PipelineConfig())
        index = json.loads((out_vid / "backgrounds" / "index.json").read_text())

        assert len(events) == 1
        assert counts["parse"] == 1
        assert counts["mask"] == len(index["windows"]) == 2

        # a finished video is answered from events.json without any parse
        assert pipeline.process_video(video_dir, out_vid, PipelineConfig()) == events
        assert counts == {"parse": 1, "mask": 2}
