"""
Uniform interface to the object detector that scans background images.

Every handle is called as ``detect(path, frame)`` with a background
image's file and its pixels; each kind uses the one it needs:

* ``oracle``       -- the pixels: knows a synthetic scene's geometry and
                      reports the stationary rectangles actually present in
                      an image; anchors end-to-end tests with zero detector
                      noise.
* ``precomputed``  -- the path: reads ``<frame_stem>.det.jsonl`` next to (or
                      in a configured directory for) each frame.
* ``external``     -- the path: a child process speaking a line protocol:
                      we write one line ``{"image": "<path>"}``, it replies
                      one line ``{"detections": [{"class": ..., "score": ...,
                      "bbox": [x, y, w, h]}, ...]}``. On startup the bridge
                      sends ``{"ping": 1}`` and expects ``{"ready": true}``.
                      A request unanswered within the timeout kills the
                      child; it is started again, once, and the request
                      retried. If that fails too, `DetectorTimeout` is
                      raised, and the pipeline fails the video.

Detections are filtered to the configured vehicle classes. A kept box that
reaches past the image's edges raises `DetectionOutOfFrame`, naming the box
and the image; the pipeline then skips that window, like any detector
failure but a `DetectorTimeout`.
"""

from __future__ import annotations

import contextlib
import json
import logging
import queue
import subprocess
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DetectionOutOfFrame,
    DetectorTimeout,
    MissingDetections,
    ProtocolError,
    StallwatchError,
)
from .media import Frame, read_detections, _detection_from_obj, Detection
from .synth import SceneSpec, static_boxes

# also the config's defaults (`vehicle_classes`, `detector.timeout`)
VEHICLE_CLASSES = ("car", "truck", "bus")
TIMEOUT_S = 30.0
ORACLE_MATCH_TOLERANCE = 6.0

logger = logging.getLogger(__name__)


class DetectorHandle:
    """Base class; subclasses implement `_detect_raw`."""

    vehicle_classes: tuple[str, ...] = VEHICLE_CLASSES

    def detect(self, path: str | Path, frame: Frame) -> list[Detection]:
        dets = [d for d in self._detect_raw(path, frame)
                if d.class_label in self.vehicle_classes]
        for d in dets:
            box = d.bbox
            if box.x2 > frame.width or box.y2 > frame.height:
                raise DetectionOutOfFrame(
                    f"{path}: box [{box.x}, {box.y}, {box.w}, {box.h}] lies "
                    f"outside the {frame.width}x{frame.height} image")
        return dets

    def _detect_raw(self, path: str | Path, frame: Frame) -> list[Detection]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@dataclass
class OracleDetector(DetectorHandle):
    """Reports a scene's stationary rectangles present in a given image.

    A stationary box counts as present when the image patch matches the
    vehicle's intensity to within a small tolerance; moving vehicles are
    erased by the background median and therefore never match.
    """

    scene: SceneSpec
    vehicle_classes: tuple[str, ...] = VEHICLE_CLASSES

    def _detect_raw(self, path: str | Path, frame: Frame) -> list[Detection]:
        out = []
        for box, intensity, label in static_boxes(self.scene):
            patch = frame.pixels[box.y : box.y2, box.x : box.x2].astype(np.float64)
            if np.abs(patch - intensity).mean() <= ORACLE_MATCH_TOLERANCE:
                out.append(Detection(frame_index=0, class_label=label,
                                     score=1.0, bbox=box))
        return out


@dataclass
class PrecomputedDetector(DetectorHandle):
    """Reads `<frame_stem>.det.jsonl` from `directory` (or beside the frame)."""

    directory: Path | None = None
    vehicle_classes: tuple[str, ...] = VEHICLE_CLASSES

    def _detect_raw(self, path: str | Path, frame: Frame) -> list[Detection]:
        frame_path = Path(path)
        base = self.directory if self.directory is not None else frame_path.parent
        det_path = base / (frame_path.stem + ".det.jsonl")
        if not det_path.is_file():
            raise MissingDetections(f"no detection file {det_path}")
        return read_detections(det_path).rows()


class ExternalProcessDetector(DetectorHandle):
    """Child process behind the one-line-request / one-line-response protocol."""

    def __init__(self, command: list[str], timeout: float = TIMEOUT_S,
                 vehicle_classes: tuple[str, ...] = VEHICLE_CLASSES):
        self.command = command
        self.timeout = timeout
        self.vehicle_classes = vehicle_classes
        self._start()

    def _start(self) -> None:
        """Start the child, with a reader thread and line queue of its own,
        and shake hands with it; a failed handshake closes the child."""
        self._proc = subprocess.Popen(
            self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, bufsize=1,
        )
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(
            target=_pump, args=(self._proc.stdout, self._lines), daemon=True)
        self._reader.start()
        try:
            reply = self._roundtrip({"ping": 1})
            if reply.get("ready") is not True:
                raise ProtocolError(f"bad handshake reply: {reply}")
        except BaseException:
            self.close()
            raise

    def _roundtrip(self, request: dict) -> dict:
        try:
            self._proc.stdin.write(json.dumps(request) + "\n")
            self._proc.stdin.flush()
        except (OSError, ValueError) as exc:  # ValueError: closed by `close`
            raise ProtocolError(f"detector process is gone: {exc}") from exc
        try:
            line = self._lines.get(timeout=self.timeout)
        except queue.Empty:
            self.close()
            raise DetectorTimeout(f"no response within {self.timeout}s")
        if line is None:
            self._lines.put(None)  # the output stays closed for later requests
            raise ProtocolError("detector process closed its output")
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"invalid response line: {exc}") from exc
        if not isinstance(obj, dict):
            raise ProtocolError("response must be a JSON object")
        return obj

    def _detect_raw(self, path: str | Path, frame: Frame) -> list[Detection]:
        request = {"image": str(path)}
        try:
            reply = self._roundtrip(request)
        except DetectorTimeout as exc:
            logger.warning("%s: %s; restarting the detector", path, exc)
            try:
                self._start()
                reply = self._roundtrip(request)
            except (StallwatchError, OSError) as again:
                self.close()
                raise DetectorTimeout(
                    f"{path}: {exc}, then after a restart: {again}") from again
        if "detections" not in reply or not isinstance(reply["detections"], list):
            raise ProtocolError(f"response missing detections list: {reply}")
        out = []
        for i, obj in enumerate(reply["detections"]):
            if not isinstance(obj, dict):
                raise ProtocolError(f"detection {i} is not an object")
            try:
                out.append(_detection_from_obj({"frame": 0, **obj}, f"response[{i}]"))
            except Exception as exc:
                raise ProtocolError(f"malformed detection {i}: {exc}") from exc
        return out

    def close(self) -> None:
        """Reap the child and join the reader thread, which closes its output."""
        with contextlib.suppress(OSError):  # input a dead child never read
            self._proc.stdin.close()
        self._proc.terminate()  # a no-op once the child is reaped
        try:
            self._proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._reader.join(timeout=5)  # a grandchild may hold the output open


def _pump(lines, out: queue.Queue) -> None:
    """Put each line of a child's output on `out`, then None; close it."""
    with lines:
        for line in lines:
            out.put(line)
    out.put(None)
