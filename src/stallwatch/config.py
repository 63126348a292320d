"""
Single JSON configuration for every tunable in the pipeline, with full
defaults embedded so the effective config can always be dumped and audited.
Each config type checks its fields in `__post_init__`, however it is built
(k1, k2 and the block in `MaskParams`); the stages do not check them again.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from pathlib import Path

from .anomaly import DecisionParams
from .codec import decode, encode, read_json
from .detector import TIMEOUT_S, VEHICLE_CLASSES
from .errors import AT_LEAST_1, SHARE, ConfigError, InvalidParam, ParseError, check
from .roadmask import DEFAULT_BLOCK, MaskParams
from .sorting import DEFAULT_K1K2, LightingClass


@dataclass(frozen=True)
class DetectorConfig:
    kind: str = "oracle"                 # oracle | precomputed | external
    command: tuple[str, ...] = ()        # external: argv of the child process
    directory: str | None = None         # precomputed: detection file dir
    timeout: float = TIMEOUT_S

    def __post_init__(self):
        # a finite deadline; the bridge polls for a reply an hour at most
        # at a time, so each timeout up to TIMEOUT_MAX is honoured
        check(ConfigError, self, "detector ",
              kind=(lambda k: k in ("oracle", "precomputed", "external"),
                    "oracle, precomputed or external"),
              timeout=(lambda t: 0 < t <= threading.TIMEOUT_MAX,
                       f"in (0, {threading.TIMEOUT_MAX}]"))
        if self.kind == "external" and not self.command:
            raise ConfigError("external detector needs a command")


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    background_fraction: float = 0.10
    histogram_stride: int = 30
    mask_block: int = DEFAULT_BLOCK
    # (k1, k2) per lighting class, keyed by the class value
    k1k2: dict[str, list[float]] = field(default_factory=lambda: {
        cls.value: list(DEFAULT_K1K2[cls]) for cls in LightingClass
    })
    decision: DecisionParams = field(default_factory=DecisionParams)
    vehicle_classes: tuple[str, ...] = VEHICLE_CLASSES
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    jobs: int = 1

    def __post_init__(self):
        check(ConfigError, self, background_fraction=SHARE,
              histogram_stride=AT_LEAST_1, jobs=AT_LEAST_1)
        for cls in LightingClass:
            if cls.value not in self.k1k2:
                raise ConfigError(f"k1k2 missing class {cls.value!r}")
            try:  # MaskParams checks k1, k2 and mask_block
                self.mask_params(cls)
            except (InvalidParam, ValueError) as exc:  # ValueError: not a pair
                raise ConfigError(f"k1k2 {cls.value!r} or mask_block: {exc}") from exc

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
        try:  # a nested type's own rule raises InvalidParam
            return decode(cls, obj, default=cls())
        except (ParseError, InvalidParam) as exc:
            raise ConfigError(f"malformed config: {exc}") from exc

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
