"""Host-speed probe, to take the shared machine's speed drift out of a timing.

The host this benchmark was built on runs the same code up to ~1.5x slower
for seconds to minutes at a time. While a `SpeedProbe` is active, a SIGALRM
timer runs a fixed snippet of small NumPy ops on the benchmark's own thread
every `INTERVAL_S` and records when it ran and how long it took. Python runs
the handler between bytecodes, so it never lands inside a NumPy call of the
program.

`reference_seconds` turns wall time into reference-core seconds: it removes
the probe's own time and scales by REFERENCE_S / (the probe's median time).
This tracks tape-free prediction within ~5 % across the host's phases,
where raw wall time moves by up to ~35 %. It over-corrects training, whose
backward slows down less than the snippet does, so training is not scaled.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Sequence, Tuple

import numpy as np

INTERVAL_S = 0.1
REFERENCE_S = 5e-4  # the snippet's time on an unloaded core of the reference machine


class SpeedProbe:
    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (start, duration)
        self._x = np.ones((20, 32))
        self._w = np.full((32, 32), 0.01)
        self._previous = None

    def _snippet(self, signum, frame) -> None:
        t0 = time.perf_counter()
        for _ in range(100):
            float(np.maximum(self._x @ self._w, 0.0).sum())
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._snippet)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def reference_seconds(
    samples: Sequence[Tuple[float, float]], interval: Tuple[float, float], speed_from: Sequence[float]
) -> float:
    """Reference-core seconds of the wall-clock `interval` (t0, t1).

    The probe time that fell inside the interval is removed; the rest is
    scaled by REFERENCE_S / median(`speed_from`), the probe durations that
    describe the host's speed at the time.
    """
    t0, t1 = interval
    own = sum(d for start, d in samples if t0 <= start < t1)
    return (t1 - t0 - own) * REFERENCE_S / statistics.median(speed_from)
