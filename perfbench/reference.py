"""The reference loop by which op times are scaled to a fixed machine speed.

On a shared host the machine's speed drifts: a fixed op's time moves
by up to 1.5x between windows of a second or less. A fixed loop that
uses no biqknot code slows down with it: in 4-second windows over 90
seconds, the time of a coloring count varied by 18% (coefficient of
variation) and its ratio to this loop by 3%. The loop mixes integer
arithmetic with the list copies, tuples and dict lookups the library's
searches are made of.

A Speed probe samples the loop once before an op, every INTERVAL_S
while it runs (from a SIGALRM handler, so a long op is sampled in the
state it ran in) and once after; run.py scales the op's time, less the
time spent sampling, by SAMPLE_NOMINAL_S over the mean sample. A change
to biqknot does not change the loop, so it moves the scaled times in
full.
"""

import math
import signal
import time

SAMPLE_NOMINAL_S = 0.00025  # the time of one sample that reported times are scaled to
INTERVAL_S = 0.025
_BASE = list(range(40))


def _loop() -> int:
    s = 0
    for i in range(1_250):
        s = (s * 31 + i) % 1000003
    for i in range(150):
        a = _BASE.copy()
        a[i % 40] = i
        t = tuple(a)
        s += hash(t) & 7
        s += {t: i}[t] & 1
    return s


def sample() -> float:
    """Best of two timings of the loop."""
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best


class Speed:
    """Samples of the loop around and during one timed region."""

    def __init__(self, before: float):
        self.samples = [before]
        self.overhead = 0.0  # seconds the in-region samples took

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(sample())
        self.overhead += time.perf_counter() - start

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.samples.append(sample())
        return False

    @property
    def after(self) -> float:
        return self.samples[-1]

    def scale(self) -> float:
        """SAMPLE_NOMINAL_S over the mean sample: the factor to a nominal-speed machine."""
        return SAMPLE_NOMINAL_S * len(self.samples) / sum(self.samples)
