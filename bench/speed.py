"""Time a block of work at a fixed reference speed of the processor.

On a shared machine the processor's speed drifts with other load: on 2
shared vCPUs the same round of work took from 2.4 s to 5.3 s within a
few minutes, and slow phases last from seconds to minutes, longer than a run.
Wall times of whole runs then differ by more than any change worth
measuring.  ``Timer`` measures the speed while the block runs: a timer
signal runs a fixed pure-Python loop every ``PERIOD`` seconds of wall time,
and the block's wall time, less the loop's own time, is scaled by the mean
speed the loop saw, relative to ``REF_S``.  The result is the time the block
would take on a processor where the loop takes ``REF_S``; it varies far
less between runs than the wall time, while a change in the block's own
work moves it in full.
"""

import signal
import statistics
import time

PERIOD = 0.1  # seconds of wall time between speed samples
LOOP = 10000  # iterations of the sampling loop, about 1 ms
REF_S = 1e-3  # the loop's time at the reference speed


def _timed_loop() -> float:
    """Seconds taken by the fixed sampling loop."""
    t0 = time.perf_counter()
    s = 0
    for i in range(LOOP):
        s += i * i % 7
    return time.perf_counter() - t0


class Timer:
    """Context manager giving ``wall`` and ``ref`` seconds of its block.

    ``wall`` includes the sampling loop (about 1% of it); ``ref`` is the
    block's time without the loop, at the reference speed.  Uses SIGALRM and
    ITIMER_REAL, so blocks must not nest and the block must not use them.
    """

    def __enter__(self):
        self.samples = [_timed_loop()]
        self._in_block = []
        self._previous = signal.signal(
            signal.SIGALRM, lambda signum, frame: self._in_block.append(_timed_loop())
        )
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.wall = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        self.samples += self._in_block + [_timed_loop()]
        work = self.wall - sum(self._in_block)
        self.ref = work * statistics.fmean(REF_S / s for s in self.samples)
        return False
