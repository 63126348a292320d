"""Host-speed probe: a fixed task timed next to every measured operation.

On a few cores of a shared host the speed one process gets swings: by about
+-25 % in phases of 5 to 20 seconds on 2 vCPUs of an Intel Xeon at 2.1 GHz.
A run of a few dozen seconds lands in a different mix of phases each time,
so medians of raw wall times from runs of the same code spread by 10-25 %
(interquartile range over median, ten runs). The probe is a fixed task made
of the same kinds of work as the program (stat calls on files, a numpy
median over a uint8 stack, a pure-Python loop) but none of its code. Timed
just before and just after each operation, it tells how fast the host was
at that moment; the gated times are wall times scaled to a reference host
speed, `wall_s * REFERENCE_S / probe_s`.

The probe runs outside the operation: after its output was checked, and
after `os.sync()`, so writeback the operation leaves behind is flushed
before the probe starts.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

FILES = 1000
# probe for at least this share of the neighbouring operation's wall time,
# so that a long operation is compared with more than one short snapshot
SHARE = 0.05
# one probe round on 2 vCPUs of an Intel Xeon at 2.1 GHz, the host the
# bounds were set on: scaled times are wall times at that host's speed
REFERENCE_S = 0.040


class Probe:
    def __init__(self, directory: Path):
        directory.mkdir(parents=True, exist_ok=True)
        self.files = []
        for i in range(FILES):
            path = directory / f"{i:04d}.bin"
            path.write_bytes(b"\0" * 64)
            self.files.append(path)
        rng = np.random.default_rng(0)
        self.stack = rng.integers(0, 256, (15, 240, 320), dtype=np.uint8)

    def _round(self) -> None:
        assert sum(p.is_file() for p in self.files) == FILES
        np.median(self.stack, axis=0)
        total = 0
        for i in range(100_000):
            total += i * i % 7

    def time(self, near_s: float = 0.0) -> float:
        """Wall seconds of one round, averaged over as many rounds as take
        SHARE of `near_s` (at least one)."""
        rounds = 0
        t0 = time.perf_counter()
        while True:
            self._round()
            rounds += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= SHARE * near_s:
                return elapsed / rounds


def scaled(wall_s: float, before_s: float, after_s: float) -> float:
    """`wall_s` at the reference host speed, from the probes around it."""
    return wall_s * REFERENCE_S / ((before_s + after_s) / 2)
