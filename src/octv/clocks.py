"""Time sources, a wall clock and a virtual one; each offers now, sleep and advance_to."""

import time


class RealClock:
    """Wall-clock time; ``now`` is epoch seconds."""

    def now(self) -> float:
        return time.time()

    def sleep(self, duration: float) -> None:
        if duration > 0:
            time.sleep(duration)

    def advance_to(self, t: float) -> None:
        """Sleep until ``t``; return at once if it has passed."""
        self.sleep(t - time.time())


class SimClock:
    """Virtual clock: ``sleep`` advances time instantly.

    Drives deterministic single-threaded runs; never goes backwards.
    """

    def __init__(self, start: float = 0.0):
        self._now = start

    def now(self) -> float:
        return self._now

    def sleep(self, duration: float) -> None:
        if duration > 0:
            self._now += duration

    def advance_to(self, t: float) -> None:
        if t > self._now:
            self._now = t
