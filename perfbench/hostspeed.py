"""Host-speed sampling, so host times can be read at one reference speed.

On a shared host the same CPU runs the same code up to 1.5x slower for
milliseconds to minutes at a time, as other tenants come and go.  A slow
phase that spans a whole run moves every host time in it; no choice of
median or minimum over the run's own repeats removes it.

So the benchmark measures the host's speed while it runs.  Between
:func:`start` and :func:`stop` a ``SIGALRM`` timer interrupts the main
thread every ``INTERVAL_S`` and times one fixed reference loop: plain
interpreter work that never calls the program under test.
:func:`factor` is the mean reference time around an interval divided by
``REFERENCE_NS``: how much slower the host ran then than a host on which
the loop takes exactly that long.  A host time divided by the factor of
its own interval is that time at the reference speed.  A change to the
program moves the host times and not the factor, so it shows in full.

The sampler's own time is kept out of every measurement: :func:`clock`
is ``perf_counter_ns`` minus the time spent in the sampler so far.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List

#: Seconds between two samples (wall time).
INTERVAL_S = 0.025
#: Iterations of the reference loop in one sample (about 0.3 ms).
REFERENCE_ITERS = 1500
#: Nominal time of one sample: the reference speed host times are read at.
REFERENCE_NS = 300_000
#: :func:`factor` widens a short interval to this many samples.
MIN_SAMPLES = 8

_busy_ns = 0
_table = dict.fromkeys(range(64), 0)
_times: List[int] = []      # clock() at each sample
_durations: List[int] = []  # each sample's reference time, ns


def clock() -> int:
    """``perf_counter_ns`` less the time spent taking samples."""
    while True:
        busy = _busy_ns
        now = time.perf_counter_ns()
        if busy == _busy_ns:
            return now - busy


def _reference_work() -> int:
    # Dict stores, integer arithmetic and a loop: the interpreter work
    # the program under test is made of, without any of its code.  It
    # allocates no container, so it never sets off a garbage collection.
    table = _table
    acc = 0
    for i in range(REFERENCE_ITERS):
        table[i & 63] = acc
        acc = (acc + i * 7 + table[(i * 5) & 63]) & 0xFFFF
    return acc


def _sample(_signum, _frame) -> None:
    global _busy_ns
    t0 = time.perf_counter_ns()
    _reference_work()
    elapsed = time.perf_counter_ns() - t0
    _times.append(t0 - _busy_ns)
    _durations.append(elapsed)
    # Counts the handler's own bookkeeping too, up to this line.
    _busy_ns += time.perf_counter_ns() - t0


def start() -> None:
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def count() -> int:
    return len(_times)


def factor(start_ns: int, end_ns: int) -> float:
    """Host slowdown over ``[start_ns, end_ns]`` (:func:`clock` readings).

    The mean of the samples taken in the interval -- or, for a short
    interval, of the ``MIN_SAMPLES`` nearest it -- over ``REFERENCE_NS``.
    Samples over twice their median are left out: an interrupt or a page
    fault, not the host's speed.
    """
    lo = bisect.bisect_left(_times, start_ns)
    hi = bisect.bisect_right(_times, end_ns)
    while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(_times)):
        if lo > 0:
            lo -= 1
        if hi < len(_times) and hi - lo < MIN_SAMPLES:
            hi += 1
    window = _durations[lo:hi]
    limit = 2 * statistics.median(window)
    return statistics.fmean(d for d in window if d <= limit) / REFERENCE_NS
