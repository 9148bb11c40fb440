"""Host-speed meter: rescales times to a reference host speed.

The benchmark runs on a shared virtual machine whose speed moves by about
1.5x, in stretches of seconds to minutes.  A pass timed on a slow stretch
reads longer although the program did the same work.  The meter samples
the host's speed while the program runs: a real-time interval timer
interrupts the program every ``PERIOD_S`` and the signal handler times a
fixed kernel.  A time is then rescaled to the speed at which that kernel
takes ``REF_KERNEL_S``:

    normalized = (wall - handler time) * REF_KERNEL_S / mean(kernel time)

The handler time is taken out first, since it is the meter's and not the
program's.  The kernel is the interpreter calling short C functions on a
small list, as weakdep's hot paths call numpy on small arrays.  On the
baseline host it tracked the workloads' pass times better than a pure
byte-code loop did (README.md, "Host speed and the bounds"), and it needs
no numpy, so it can run in the set-up child before numpy is imported.
The kernel does not touch the program's state, so the program's outputs
are unchanged.  A signal handler runs between Python byte codes, so a
long C call delays a sample but does not lose the time.
"""

from __future__ import annotations

import math
import signal
import time

PERIOD_S = 0.01
KERNEL_LOOPS = 50
KERNEL_DATA = [float(i) for i in range(64)]
# just under the fastest pass mean of the kernel (71.5 us) on the 2-core Xeon VM of the baseline
REF_KERNEL_S = 70e-6


def kernel() -> None:
    data = KERNEL_DATA
    for _ in range(KERNEL_LOOPS):
        math.fsum(data)
        data.copy()
        data.index(data[-1])


class Meter:
    """Samples the kernel time while started; not reentrant, main thread only."""

    def __init__(self):
        self.samples: list[float] = []
        self.busy = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.busy += elapsed

    def start(self) -> None:
        self.samples = []
        self.busy = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def kernel_s(self) -> float:
        """Mean kernel time over the samples; one extra sample if there were none."""
        if not self.samples:
            self._tick(signal.SIGALRM, None)
            self.busy -= self.samples[-1]
        return sum(self.samples) / len(self.samples)

    def normalize(self, wall: float) -> tuple[float, float]:
        """(own, normalized): wall minus the handler time, and that rescaled to the reference speed."""
        own = wall - self.busy
        return own, own * REF_KERNEL_S / self.kernel_s()
