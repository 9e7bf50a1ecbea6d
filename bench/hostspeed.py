"""Host-speed probe: scales measured CPU time to one fixed host speed.

On a shared virtual machine the CPU a process gets changes speed, by up
to a factor of two and a half for minutes at a time, as other guests
load the hyperthread siblings, caches and memory it shares with them.
CPU time does not leave that out; a pure-Python loop slows down as much
as the simulator does.  So the probe measures the speed while the
simulator runs: a background thread wakes every :data:`PERIOD_S`, runs a
fixed loop of :data:`REFERENCE_LOOPS` iterations and records the CPU
time it took.  The process is pinned to one CPU, so both threads measure
the same one, and the GIL lets only one of them run at a time.

A stretch of simulator CPU time is multiplied by :data:`REFERENCE_S`
over the mean loop time measured during the stretch: *reference
seconds*, the CPU time the stretch would take on the reference host
with nothing contending.  On a quiet host the two are about equal.
"""

import os
import statistics
import threading
import time

REFERENCE_LOOPS = 30000
#: CPU seconds the loop takes uncontended on the reference host (Intel
#: Xeon, 2-vCPU virtual machine, Python 3.11.7): the fastest of 3000.
REFERENCE_S = 0.00105
PERIOD_S = 0.02


def reference_loop(loops=REFERENCE_LOOPS):
    total = 0
    for index in range(loops):
        total += index & 7
    return total


def _pin_to_one_cpu():
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # not Linux, or not allowed
        pass


class SpeedProbe:
    """The sampling thread and its loop times, in seconds.  Start it
    from the thread to be measured, before anything else is timed."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-probe", daemon=True)

    def start(self):
        _pin_to_one_cpu()
        self._thread.start()
        return self

    def stop(self):
        self._stop.set()
        self._thread.join()

    def _sample(self):
        clock = time.thread_time
        while not self._stop.wait(PERIOD_S):
            start = clock()
            reference_loop()
            self.samples.append(clock() - start)

    def mark(self):
        """Where a stretch starts: the number of samples so far."""
        return len(self.samples)

    def scale(self, cpu_s, since):
        """*cpu_s* CPU seconds used since mark *since*, in reference
        seconds.  The speed is the mean over the samples taken since,
        plus the one before; with none at all yet, this waits for one."""
        first = max(0, since - 1)
        while len(self.samples) <= first and self._thread.is_alive():
            time.sleep(PERIOD_S)
        window = self.samples[first:]
        return cpu_s * REFERENCE_S / statistics.mean(window)

    def speed(self):
        """Median host speed over all samples, as a fraction of the
        reference host's."""
        return REFERENCE_S / statistics.median(self.samples)
