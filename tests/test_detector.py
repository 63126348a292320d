import sys
import textwrap
import time

import numpy as np
import pytest

from stallwatch.detector import (
    ExternalProcessDetector,
    OracleDetector,
    PrecomputedDetector,
)
from stallwatch.errors import (
    DetectionOutOfFrame,
    DetectorTimeout,
    MissingDetections,
    ProtocolError,
)
from stallwatch.media import BBox, Detection, Frame, write_detections
from stallwatch.sorting import LightingClass
from stallwatch.synth import RoadBand, SceneSpec, VehicleSpec

# The precomputed and external detectors read the path, not the pixels.
BLANK = Frame(np.zeros((60, 100), dtype=np.uint8))


def stall_scene() -> SceneSpec:
    return SceneSpec(
        video_id="v1", duration=60.0, fps=10.0, width=100, height=60,
        lighting=LightingClass.DAY, offroad_intensity=190.0,
        bands=(RoadBand(0, 20, 100, 20, 70.0, 0.0),),
        vehicles=(VehicleSpec(width=16, height=6, intensity=25.0, speed=3.0,
                              spawn=0.0, axis="h", lane=24, direction=1,
                              start=10.0, stall=(10.0, 50.0)),),
    )


class TestOracle:
    def test_detects_present_stall(self):
        scene = stall_scene()
        box = scene.vehicles[0].stall_box(100, 60)
        img = np.full((60, 100), 190, dtype=np.uint8)
        img[20:40, :] = 70
        img[box.y:box.y2, box.x:box.x2] = 25
        dets = OracleDetector(scene=scene).detect("bg_0.pgm", Frame(img))
        assert [d.bbox for d in dets] == [box]
        assert dets[0].class_label == "car"

    def test_absent_stall_not_reported(self):
        scene = stall_scene()
        img = np.full((60, 100), 190, dtype=np.uint8)
        img[20:40, :] = 70
        assert OracleDetector(scene=scene).detect("bg_0.pgm", Frame(img)) == []

    def test_class_filter(self):
        scene = stall_scene()
        box = scene.vehicles[0].stall_box(100, 60)
        img = np.full((60, 100), 190, dtype=np.uint8)
        img[box.y:box.y2, box.x:box.x2] = 25
        det = OracleDetector(scene=scene, vehicle_classes=frozenset({"bus"}))
        assert det.detect("bg_0.pgm", Frame(img)) == []


class TestPrecomputed:
    def test_reads_sidecar_file(self, tmp_path):
        dets = [Detection(0, "car", 0.9, BBox(1, 2, 3, 4))]
        write_detections(dets, tmp_path / "bg_0.det.jsonl")
        handle = PrecomputedDetector()
        assert handle.detect(tmp_path / "bg_0.pgm", BLANK) == dets

    def test_configured_directory(self, tmp_path):
        side = tmp_path / "dets"
        side.mkdir()
        dets = [Detection(0, "truck", 0.8, BBox(5, 5, 10, 10))]
        write_detections(dets, side / "bg_0.det.jsonl")
        handle = PrecomputedDetector(directory=side)
        assert handle.detect(tmp_path / "bg_0.pgm", BLANK) == dets

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingDetections):
            PrecomputedDetector().detect(tmp_path / "bg_0.pgm", BLANK)

    def test_non_vehicle_classes_dropped(self, tmp_path):
        dets = [Detection(0, "person", 0.9, BBox(1, 1, 2, 2)),
                Detection(0, "car", 0.9, BBox(4, 4, 2, 2))]
        write_detections(dets, tmp_path / "bg_0.det.jsonl")
        out = PrecomputedDetector().detect(tmp_path / "bg_0.pgm", BLANK)
        assert [d.class_label for d in out] == ["car"]

    @pytest.mark.parametrize("box", [BBox(90, 10, 20, 6), BBox(10, 55, 6, 20)])
    def test_box_outside_frame_names_box_and_image(self, tmp_path, box):
        # the first box touches the bottom-right corner: inside
        dets = [Detection(0, "car", 0.9, BBox(84, 54, 16, 6)),
                Detection(0, "car", 0.9, box)]
        write_detections(dets, tmp_path / "bg_0.det.jsonl")
        want = (rf"bg_0\.pgm: box \[{box.x}, {box.y}, {box.w}, {box.h}\] "
                r"lies outside the 100x60 image")
        with pytest.raises(DetectionOutOfFrame, match=want):
            PrecomputedDetector().detect(tmp_path / "bg_0.pgm", BLANK)

    def test_out_of_frame_box_of_other_class_dropped(self, tmp_path):
        dets = [Detection(0, "person", 0.9, BBox(90, 10, 20, 6))]
        write_detections(dets, tmp_path / "bg_0.det.jsonl")
        assert PrecomputedDetector().detect(tmp_path / "bg_0.pgm", BLANK) == []


def child_script(tmp_path, body: str) -> list[str]:
    path = tmp_path / "child.py"
    path.write_text(textwrap.dedent(body))
    return [sys.executable, str(path)]


ECHO_DETECTOR = """
    import json, sys
    for line in sys.stdin:
        req = json.loads(line)
        if "ping" in req:
            print(json.dumps({"ready": True}), flush=True)
        else:
            dets = [{"class": "car", "score": 0.9, "bbox": [10, 10, 20, 20]}]
            print(json.dumps({"detections": dets}), flush=True)
"""


class TestExternal:
    def test_handshake_and_detect(self, tmp_path):
        with ExternalProcessDetector(child_script(tmp_path, ECHO_DETECTOR),
                                     timeout=10.0) as handle:
            dets = handle.detect("/some/frame.pgm", BLANK)
        assert dets == [Detection(0, "car", 0.9, BBox(10, 10, 20, 20))]

    def test_timeout(self, tmp_path):
        cmd = child_script(tmp_path, """
            import json, sys, time
            for line in sys.stdin:
                req = json.loads(line)
                if "ping" in req:
                    print(json.dumps({"ready": True}), flush=True)
                else:
                    time.sleep(60)
        """)
        with pytest.raises(DetectorTimeout):
            handle = ExternalProcessDetector(cmd, timeout=0.5)
            handle.detect("/some/frame.pgm", BLANK)

    def test_timeout_restarts_the_child_and_retries_the_request(self, tmp_path):
        # the first image request hangs; the restarted child answers it
        cmd = child_script(tmp_path, """
            import json, os, sys, time
            for line in sys.stdin:
                req = json.loads(line)
                if "ping" in req:
                    print(json.dumps({"ready": True}), flush=True)
                    continue
                if not os.path.exists(sys.argv[1]):
                    open(sys.argv[1], "w").close()
                    time.sleep(60)
                dets = [{"class": "car", "score": 0.9, "bbox": [10, 10, 20, 20]}]
                print(json.dumps({"detections": dets}), flush=True)
        """) + [str(tmp_path / "hung")]
        with ExternalProcessDetector(cmd, timeout=0.5) as handle:
            got = [handle.detect(f"/some/frame{i}.pgm", BLANK) for i in range(3)]
        assert got == [[Detection(0, "car", 0.9, BBox(10, 10, 20, 20))]] * 3

    def test_timeout_after_the_restart_is_raised(self, tmp_path):
        starts = tmp_path / "starts"
        cmd = child_script(tmp_path, """
            import json, sys, time
            with open(sys.argv[1], "a") as starts:
                starts.write("started\\n")
            for line in sys.stdin:
                if "ping" in json.loads(line):
                    print(json.dumps({"ready": True}), flush=True)
                else:
                    time.sleep(60)
        """) + [str(starts)]
        handle = ExternalProcessDetector(cmd, timeout=0.5)
        with pytest.raises(DetectorTimeout, match=r"frame\.pgm: .*after a restart"):
            handle.detect("/some/frame.pgm", BLANK)
        assert starts.read_text() == "started\n" * 2

    def test_garbage_response(self, tmp_path):
        cmd = child_script(tmp_path, """
            import json, sys
            for line in sys.stdin:
                req = json.loads(line)
                if "ping" in req:
                    print(json.dumps({"ready": True}), flush=True)
                else:
                    print("!!! not json !!!", flush=True)
        """)
        with ExternalProcessDetector(cmd, timeout=10.0) as handle:
            with pytest.raises(ProtocolError):
                handle.detect("/some/frame.pgm", BLANK)

    def test_bad_handshake(self, tmp_path):
        cmd = child_script(tmp_path, """
            import json, sys
            for line in sys.stdin:
                print(json.dumps({"ready": False}), flush=True)
        """)
        with pytest.raises(ProtocolError):
            ExternalProcessDetector(cmd, timeout=10.0)

    def test_process_exit_detected(self, tmp_path):
        cmd = child_script(tmp_path, """
            import json, sys
            line = sys.stdin.readline()
            print(json.dumps({"ready": True}), flush=True)
        """)
        with ExternalProcessDetector(cmd, timeout=10.0) as handle:
            with pytest.raises(ProtocolError):
                handle.detect("/some/frame.pgm", BLANK)

    def test_requests_after_the_child_exits_fail_at_once(self, tmp_path):
        # the child exits on its first image request
        cmd = child_script(tmp_path, """
            import json, sys
            for line in sys.stdin:
                if "ping" not in json.loads(line):
                    sys.exit(0)
                print(json.dumps({"ready": True}), flush=True)
        """)
        handle = ExternalProcessDetector(cmd, timeout=3.0)
        for request in range(4):
            if request == 3:
                handle.close()
            start = time.monotonic()
            with pytest.raises(ProtocolError):
                handle.detect(f"/some/frame{request}.pgm", BLANK)
            assert time.monotonic() - start < 1.0
        handle.close()

    def test_malformed_detection_record(self, tmp_path):
        cmd = child_script(tmp_path, """
            import json, sys
            for line in sys.stdin:
                req = json.loads(line)
                if "ping" in req:
                    print(json.dumps({"ready": True}), flush=True)
                else:
                    dets = [{"class": "car", "score": 7.0, "bbox": [1, 1, 2, 2]}]
                    print(json.dumps({"detections": dets}), flush=True)
        """)
        with ExternalProcessDetector(cmd, timeout=10.0) as handle:
            with pytest.raises(ProtocolError):
                handle.detect("/some/frame.pgm", BLANK)
