"""Speed calibration: fixed reference work that scales the benchmark's times.

The machines the benchmark runs on are shared virtual machines whose
speed changes from one tenth of a second to the next and whose mix of
fast and slow periods drifts from minute to minute (the same pass may
take 1.8 s or 3.3 s), by far more than the bounds the benchmark sets.
So while a timed segment (one classify command, one trace, one set-up)
runs, a timer signal interrupts it every SAMPLE_EVERY_S seconds and the
handler, on the same thread, times a small fixed piece of reference work.
The segment's own wall time (the samples' time taken out) is then scaled
by REF_SAMPLE_S over the mean sample time: the result is the segment's
time in reference seconds, that is at the speed at which one sample takes
REF_SAMPLE_S.

`reference_work` is plain Python that imports nothing from smfgeo, so no
change to the program moves it; it mixes what the program spends its
time on: float arithmetic on small objects, dictionaries keyed by
tuples, and big-integer arithmetic.
"""

from __future__ import annotations

import contextlib
import gc
import math
import signal
import statistics
import time

# A sample is reference_work(SAMPLE_N).  It takes REF_SAMPLE_S seconds
# on the reference machine (2-vCPU Intel Xeon VM at 2.1 GHz, Python
# 3.11.7) in its fast periods, and about 1.7 times as long in its slow ones.
SAMPLE_N = 1000
REF_SAMPLE_S = 0.0011
SAMPLE_EVERY_S = 0.05


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def reference_work(n: int):
    """Fixed work; returns a checksum so nothing is skipped."""
    pts = [_Point(math.cos(i * 0.001), math.sin(i * 0.0013)) for i in range(n)]
    area = 0.0
    for a, b in zip(pts, pts[1:]):
        area += a.x * b.y - a.y * b.x
    adj = {}
    for i in range(n):
        adj[(i, i + 1)] = i
        adj[(i + 1, i)] = -i
    hits = 0
    for i in range(n):
        hits += adj[(i + 1, i)] + adj.get((i, i + 2), 0)
    a, b = 1, 1
    for _ in range(n // 4):
        a, b = (a * 3 + b * 7) % (1 << 200) + 1, (a * b) % (1 << 180) + 1
        if a * a - 3 * b * b > 0:
            hits += 1
    return area, hits


def sample_seconds() -> float:
    """Wall time of one sample of reference work.

    The collector is off while it runs (the work makes no cycles), so that
    how many objects the program left alive does not change its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_work(SAMPLE_N)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Segment:
    """One timed segment: `wall` is its own wall time, sampling taken out;
    `scaled` is the same in reference seconds."""

    wall = 0.0
    scaled = 0.0


class SpeedScale:
    """Times segments and scales them by the speed sampled while they ran.

        with scale.segment() as seg:
            work()
        seg.wall, seg.scaled

    One sample is also taken just before and just after each segment, so
    that short segments have some.  `sample_every=0` takes only those two,
    for segments whose inner timings must not include the samples.
    """

    def __init__(self, sample_every: float = SAMPLE_EVERY_S):
        self.sample_every = sample_every

    @contextlib.contextmanager
    def segment(self):
        seg = Segment()
        samples = [sample_seconds()]
        spent = 0.0
        busy = False

        def on_alarm(signum, frame):
            nonlocal spent, busy
            if busy:
                return
            busy = True
            t0 = time.perf_counter()
            samples.append(sample_seconds())
            spent += time.perf_counter() - t0
            busy = False

        every = self.sample_every
        if every:
            previous = signal.signal(signal.SIGALRM, on_alarm)
        t0 = time.perf_counter()
        if every:
            signal.setitimer(signal.ITIMER_REAL, every, every)
        try:
            yield seg
        finally:
            if every:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            seg.wall = time.perf_counter() - t0 - spent
            samples.append(sample_seconds())
            seg.scaled = seg.wall * REF_SAMPLE_S / statistics.fmean(samples)
