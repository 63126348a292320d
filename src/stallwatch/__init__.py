"""Stalled-vehicle anomaly detection for traffic-camera frame sequences."""

__version__ = "0.1.0"

from .media import AnomalyEvent, BBox, Detections, Frame, GroundTruthEntry
from .sorting import LightingClass, RoadType, VideoCategory

__all__ = [
    "AnomalyEvent",
    "BBox",
    "Detections",
    "Frame",
    "GroundTruthEntry",
    "LightingClass",
    "RoadType",
    "VideoCategory",
]
