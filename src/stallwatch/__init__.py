"""Stalled-vehicle anomaly detection for traffic-camera frame sequences."""

__version__ = "0.1.0"

from .media import (AnomalyEvent, BBox, Detection, Detections, Frame,
                    GroundTruthEntry)
from .sorting import LightingClass, RoadType, VideoCategory

__all__ = [
    "AnomalyEvent",
    "BBox",
    "Detection",
    "Detections",
    "Frame",
    "GroundTruthEntry",
    "LightingClass",
    "RoadType",
    "VideoCategory",
]
