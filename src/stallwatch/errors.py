"""Typed error hierarchy shared by every stage of the pipeline. Raised in
one video's chain, a `StallwatchError`, like an `OSError`, fails that video
only (see `pipeline.process_video`)."""


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


def prefixed(exc: StallwatchError, where: str) -> StallwatchError:
    """An error of `exc`'s type, with `exc`'s traceback, whose message is
    `exc`'s prefixed by `where`. Raise it `from None`."""
    return type(exc)(f"{where}: {exc}").with_traceback(exc.__traceback__)
