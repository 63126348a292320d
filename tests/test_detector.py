import os
import shlex
import signal
import sys
import textwrap
import threading
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
from stallwatch.media import BBox, Frame, write_detections
from stallwatch.sorting import LightingClass
from stallwatch.synth import RoadBand, SceneSpec, VehicleSpec, static_boxes

from conftest import Row, columns, rows_of

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
        dets = OracleDetector(static_boxes=static_boxes(scene)).detect(
            "bg_0.pgm", Frame(img))
        assert rows_of(dets) == [Row(0, "car", 1.0, box)]

    def test_absent_stall_not_reported(self):
        scene = stall_scene()
        img = np.full((60, 100), 190, dtype=np.uint8)
        img[20:40, :] = 70
        assert len(OracleDetector(static_boxes=static_boxes(scene)).detect(
            "bg_0.pgm", Frame(img))) == 0

    def test_class_filter(self):
        scene = stall_scene()
        box = scene.vehicles[0].stall_box(100, 60)
        img = np.full((60, 100), 190, dtype=np.uint8)
        img[box.y:box.y2, box.x:box.x2] = 25
        det = OracleDetector(static_boxes=static_boxes(scene),
                             vehicle_classes=frozenset({"bus"}))
        assert len(det.detect("bg_0.pgm", Frame(img))) == 0


class TestPrecomputed:
    def test_reads_sidecar_file(self, tmp_path):
        # the detections of a frame may sit beside it: the directory is then
        # the frame's own
        dets = [Row(0, "car", 0.9, BBox(1, 2, 3, 4))]
        write_detections(columns(dets), tmp_path / "bg_0.det.jsonl")
        handle = PrecomputedDetector(directory=tmp_path)
        assert rows_of(handle.detect(tmp_path / "bg_0.pgm", BLANK)) == dets

    def test_configured_directory(self, tmp_path):
        # `<frame stem>.det.jsonl` is read from the directory, not from
        # beside the frame
        side = tmp_path / "dets"
        side.mkdir()
        dets = [Row(0, "truck", 0.8, BBox(5, 5, 10, 10))]
        write_detections(columns(dets), side / "bg_0.det.jsonl")
        write_detections(columns([Row(0, "car", 0.9, BBox(1, 2, 3, 4))]),
                         tmp_path / "bg_0.det.jsonl")
        handle = PrecomputedDetector(directory=side)
        assert rows_of(handle.detect(tmp_path / "bg_0.pgm", BLANK)) == dets

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingDetections):
            PrecomputedDetector(tmp_path).detect(tmp_path / "bg_0.pgm", BLANK)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(MissingDetections, match="no detection directory"):
            PrecomputedDetector(tmp_path / "dets")

    def test_non_vehicle_classes_dropped(self, tmp_path):
        dets = [Row(0, "person", 0.9, BBox(1, 1, 2, 2)),
                Row(0, "car", 0.9, BBox(4, 4, 2, 2))]
        write_detections(columns(dets), tmp_path / "bg_0.det.jsonl")
        out = PrecomputedDetector(tmp_path).detect(tmp_path / "bg_0.pgm", BLANK)
        assert rows_of(out) == dets[1:]

    @pytest.mark.parametrize("box", [BBox(90, 10, 20, 6), BBox(10, 55, 6, 20)])
    def test_box_outside_frame_names_box_and_image(self, tmp_path, box):
        # the first box touches the bottom-right corner: inside
        dets = [Row(0, "car", 0.9, BBox(84, 54, 16, 6)),
                Row(0, "car", 0.9, box)]
        write_detections(columns(dets), tmp_path / "bg_0.det.jsonl")
        want = (rf"bg_0\.pgm: box \[{box.x}, {box.y}, {box.w}, {box.h}\] "
                r"lies outside the 100x60 image")
        with pytest.raises(DetectionOutOfFrame, match=want):
            PrecomputedDetector(tmp_path).detect(tmp_path / "bg_0.pgm", BLANK)

    def test_out_of_frame_box_of_other_class_dropped(self, tmp_path):
        dets = [Row(0, "person", 0.9, BBox(90, 10, 20, 6))]
        write_detections(columns(dets), tmp_path / "bg_0.det.jsonl")
        assert len(PrecomputedDetector(tmp_path).detect(tmp_path / "bg_0.pgm",
                                                        BLANK)) == 0


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
        assert rows_of(dets) == [Row(0, "car", 0.9, BBox(10, 10, 20, 20))]

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
            got = [rows_of(handle.detect(f"/some/frame{i}.pgm", BLANK))
                   for i in range(3)]
        assert got == [[Row(0, "car", 0.9, BBox(10, 10, 20, 20))]] * 3

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

    def test_non_utf8_reply_fails_that_request_only(self, tmp_path):
        # one byte that is not UTF-8 in the first image reply; the reader
        # thread keeps going, and the next request is answered
        cmd = child_script(tmp_path, """
            import json, sys
            replies = [b'{"detections": [], "x": "\\xff"}\\n',
                       b'{"detections": []}\\n']
            for line in sys.stdin:
                if "ping" in json.loads(line):
                    print(json.dumps({"ready": True}), flush=True)
                else:
                    sys.stdout.buffer.write(replies.pop(0))
                    sys.stdout.buffer.flush()
        """)
        with ExternalProcessDetector(cmd, timeout=3.0) as handle:
            start = time.monotonic()
            with pytest.raises(ProtocolError, match="invalid response line"):
                handle.detect("/some/frame0.pgm", BLANK)
            assert time.monotonic() - start < 1.0
            assert len(handle.detect("/some/frame1.pgm", BLANK)) == 0

    def test_reply_nested_too_deep_fails_that_request_only(self, tmp_path):
        cmd = child_script(tmp_path, """
            import json, sys
            replies = ["[" * 100_000, '{"detections": []}']
            for line in sys.stdin:
                if "ping" in json.loads(line):
                    print(json.dumps({"ready": True}), flush=True)
                else:
                    print(replies.pop(0), flush=True)
        """)
        with ExternalProcessDetector(cmd, timeout=3.0) as handle:
            with pytest.raises(ProtocolError, match="invalid response line"):
                handle.detect("/some/frame0.pgm", BLANK)
            assert len(handle.detect("/some/frame1.pgm", BLANK)) == 0

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

    def test_bad_reply_row_fails_that_request_naming_it(self, tmp_path):
        # reply rows are checked as a detection file's rows are; the first
        # bad one is named, and the next request is answered
        cmd = child_script(tmp_path, """
            import json, sys
            good = {"class": "car", "score": 0.9, "bbox": [10.5, 10, 20, 20]}
            bad = {"class": "car", "score": 7.0, "bbox": [1, 1, 2, 2]}
            replies = [[good, bad, 3], [good, good, 3, bad], [good]]
            for line in sys.stdin:
                if "ping" in json.loads(line):
                    print(json.dumps({"ready": True}), flush=True)
                else:
                    print(json.dumps({"detections": replies.pop(0)}), flush=True)
        """)
        with ExternalProcessDetector(cmd, timeout=10.0) as handle:
            with pytest.raises(ProtocolError, match=r"response\[1\]: score"):
                handle.detect("/some/frame0.pgm", BLANK)
            with pytest.raises(ProtocolError,
                               match=r"response\[2\]: expected a JSON object"):
                handle.detect("/some/frame1.pgm", BLANK)
            dets = handle.detect("/some/frame2.pgm", BLANK)
        assert rows_of(dets) == [Row(0, "car", 0.9, BBox(10, 10, 20, 20))]

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

    def test_makes_no_thread(self, tmp_path):
        before = threading.active_count()
        with ExternalProcessDetector(child_script(tmp_path, ECHO_DETECTOR),
                                     timeout=10.0) as handle:
            handle.detect("/some/frame.pgm", BLANK)
            assert threading.active_count() == before
        assert threading.active_count() == before

    def test_close_does_not_wait_for_a_grandchild_holding_the_output(self, tmp_path):
        # the shell leaves a `sleep` behind that inherits the child's output,
        # so that the output does not end when the child does
        pid_file = tmp_path / "sleep.pid"
        python, script = child_script(tmp_path, ECHO_DETECTOR)
        cmd = ["sh", "-c", f"sleep 30 & echo $! > {shlex.quote(str(pid_file))}; "
                           f"exec {shlex.quote(python)} {shlex.quote(script)}"]
        before = threading.active_count()
        handle = ExternalProcessDetector(cmd, timeout=10.0)
        try:
            assert len(handle.detect("/some/frame.pgm", BLANK)) == 1
            start = time.monotonic()
            handle.close()
            assert time.monotonic() - start < 1.0
            assert threading.active_count() == before
        finally:
            handle.close()
            os.kill(int(pid_file.read_text()), signal.SIGKILL)

    def test_longest_timeout(self, tmp_path):
        # a single poll cannot wait this long; the bridge polls in steps
        with ExternalProcessDetector(child_script(tmp_path, ECHO_DETECTOR),
                                     timeout=threading.TIMEOUT_MAX) as handle:
            dets = handle.detect("/some/frame.pgm", BLANK)
        assert rows_of(dets) == [Row(0, "car", 0.9, BBox(10, 10, 20, 20))]
