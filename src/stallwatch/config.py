"""
Single JSON configuration for every tunable in the pipeline, with full
defaults embedded so the effective config can always be dumped and audited.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .anomaly import DecisionParams
from .codec import decode, encode, read_json
from .detector import TIMEOUT_S, VEHICLE_CLASSES
from .errors import ConfigError, InvalidParam, ParseError
from .roadmask import DEFAULT_BLOCK, DEFAULT_MIN_OVERLAP, MaskParams
from .sorting import DEFAULT_K1K2, LightingClass


@dataclass(frozen=True)
class DetectorConfig:
    kind: str = "oracle"                 # oracle | precomputed | external
    command: tuple[str, ...] = ()        # external: argv of the child process
    directory: str | None = None         # precomputed: detection file dir
    timeout: float = TIMEOUT_S

    def validate(self) -> None:
        if self.kind not in ("oracle", "precomputed", "external"):
            raise ConfigError(f"unknown detector kind {self.kind!r}")
        if self.kind == "external" and not self.command:
            raise ConfigError("external detector needs a command")


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    background_fraction: float = 0.10
    histogram_stride: int = 30
    mask_min_overlap: float = DEFAULT_MIN_OVERLAP
    mask_block: int = DEFAULT_BLOCK
    # (k1, k2) per lighting class, keyed by the class value
    k1k2: dict[str, list[float]] = field(default_factory=lambda: {
        cls.value: list(DEFAULT_K1K2[cls]) for cls in LightingClass
    })
    decision: DecisionParams = field(default_factory=DecisionParams)
    vehicle_classes: tuple[str, ...] = VEHICLE_CLASSES
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    jobs: int = 1

    def validate(self) -> None:
        if not 0.0 < self.background_fraction <= 1.0:
            raise ConfigError(f"background_fraction {self.background_fraction} outside (0, 1]")
        if self.histogram_stride < 1:
            raise ConfigError("histogram_stride must be >= 1")
        if not 0.0 < self.mask_min_overlap <= 1.0:
            raise ConfigError(f"mask_min_overlap {self.mask_min_overlap} outside (0, 1]")
        for cls in LightingClass:
            if cls.value not in self.k1k2:
                raise ConfigError(f"k1k2 missing class {cls.value!r}")
            try:  # MaskParams checks k1, k2 and mask_block
                self.mask_params(cls)
            except InvalidParam as exc:
                raise ConfigError(f"{cls.value} road mask: {exc}") from exc
        d = self.decision
        for name in ("score_min", "iou_support", "iou_merge", "min_support_density"):
            v = getattr(d, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"decision.{name} {v} outside [0, 1]")
        if d.area_min < 0 or d.min_windows < 1 or d.min_support_seconds <= 0:
            raise ConfigError("bad decision-tree thresholds")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        self.detector.validate()

    def mask_params(self, lighting: LightingClass) -> MaskParams:
        k1, k2 = self.k1k2[lighting.value]
        return MaskParams(k1=k1, k2=k2, block=self.mask_block)

    @classmethod
    def from_obj(cls, obj: dict) -> "PipelineConfig":
        """Defaults overridden by `obj`; a key `--dump-config` does not
        print, at any level, is rejected."""
        unknown = sorted(_unknown_keys(obj, encode(cls())))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        try:
            cfg = decode(cls, obj, default=cls())
            cfg.validate()
        except (ParseError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed config: {exc}") from exc
        return cfg

    @classmethod
    def from_json_file(cls, path: str | Path) -> "PipelineConfig":
        try:
            obj = read_json(path, dict)
        except (OSError, ParseError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_obj(obj)

    def content_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(encode(self), sort_keys=True).encode()
        ).hexdigest()


def _unknown_keys(obj: dict, known: dict, prefix: str = ""):
    """Dotted names of the keys of `obj` absent from the key tree `known`."""
    for key, value in obj.items():
        if key not in known:
            yield prefix + key
        elif isinstance(value, dict) and isinstance(known[key], dict):
            yield from _unknown_keys(value, known[key], f"{prefix}{key}.")
