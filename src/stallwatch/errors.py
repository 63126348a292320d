"""Typed error hierarchy shared by every stage of the pipeline. Raised in
one video's chain, a `StallwatchError`, like an `OSError`, fails that video
only (see `pipeline.process_video`). A record's `__post_init__` checks its
fields with `check`, so a record that exists is valid however it was built."""

import math


class StallwatchError(Exception):
    """Base class for all pipeline errors."""


# --- file formats / parsing ---

class ParseError(StallwatchError):
    pass


class MissingMetadata(StallwatchError):
    pass


class SequenceGap(StallwatchError):
    pass


class DimensionMismatch(StallwatchError):
    pass


class InvalidBBox(StallwatchError):
    pass


class InvalidInterval(StallwatchError):
    pass


# --- algorithm preconditions ---

class EmptyInput(StallwatchError):
    pass


class InsufficientData(StallwatchError):
    pass


class VideoTooShort(StallwatchError):
    pass


class InvalidParam(StallwatchError):
    pass


# --- detector bridge ---

class DetectorTimeout(StallwatchError):
    pass


class ProtocolError(StallwatchError):
    pass


class MissingDetections(StallwatchError):
    pass


class DetectionOutOfFrame(StallwatchError):
    pass


# --- scoring ---

class DuplicateGroundTruth(StallwatchError):
    pass


class UndefinedScore(StallwatchError):
    pass


# --- synthesis / configuration ---

class InvalidSpec(StallwatchError):
    pass


class ConfigError(StallwatchError):
    pass


# rules for `check`: (test, what it asks); nan fails every comparison
FINITE = (math.isfinite, "finite")
POSITIVE = (lambda v: 0 < v < math.inf, "positive and finite")
NON_NEGATIVE = (lambda v: 0 <= v < math.inf, "non-negative and finite")
FRACTION = (lambda v: 0 <= v <= 1, "in [0, 1]")
AT_LEAST_1 = (lambda v: v >= 1, ">= 1")


def check(error: type[StallwatchError], record, prefix: str = "", **rules) -> None:
    """Raise `error` for the first field of `record`, in `rules` order,
    that fails its rule: "<prefix><field> must be <what>, got <value>"."""
    for name, (test, what) in rules.items():
        value = getattr(record, name)
        if not test(value):
            raise error(f"{prefix}{name} must be {what}, got {value!r}")


def prefixed(exc: StallwatchError, where: str) -> StallwatchError:
    """An error of `exc`'s type, with `exc`'s traceback, whose message is
    `exc`'s prefixed by `where`. Raise it `from None`."""
    return type(exc)(f"{where}: {exc}").with_traceback(exc.__traceback__)
