"""Host-speed gauge: a fixed reference kernel timed throughout a run.

The benchmark shares a few vCPUs of a host with other tenants, whose
load slows everything in the process by up to about 2x, in phases that
last from seconds to minutes.  Timing alone cannot tell such a phase
from a slower program.  While a gauge runs, a ``SIGALRM`` timer
interrupts the workload every :data:`PERIOD_S` and times a reference
kernel: fixed work that lives in the benchmark (no ``repro`` code), so
the program under test cannot change it.  Each workload names the
kernel that slows as its own hot loop does (see :data:`KERNELS`).  A
timing taken while the gauge runs is

* exclusive of the probes, through :meth:`Gauge.clock`, a
  ``perf_counter`` that stops while a probe runs, and
* convertible to *reference seconds* through :meth:`Gauge.factor`:
  seconds on a host where the probe takes the kernel's reference time
  inside the run (on a calm 2-vCPU Xeon at 2.0 GHz the dense kernel
  takes about its reference time, the interpreter kernel about 0.7 of
  it).
"""

import signal
import statistics
import time

import numpy as np

#: Seconds between two probes (1-2 % of the run goes to probes).
PERIOD_S = 0.025

_MATRIX = np.random.default_rng(0).random((24, 24)) + 24.0 * np.eye(24)
# A fixed random program for the register machine: 64 instructions of
# (opcode 0-4, destination, source, source) over 16 registers.
_PROGRAM = [
    tuple(int(field) for field in row)
    for row in np.random.default_rng(1).integers(0, 16, (64, 4)) % (5, 16, 16, 16)
]


def dense_kernel():
    """Dict traffic, a float loop and small dense solves, as in the
    power, thermal and scenario layers."""
    table = {}
    total = 0.0
    for i in range(400):
        key = i & 31
        table[key] = table.get(key, 0.0) + i * 0.5
        total += table[key] % 7.0
    vector = np.ones(24)
    for _ in range(12):
        vector = np.linalg.solve(_MATRIX, vector)
        vector *= 1.0 / vector.sum()
    return total + float(vector[0])


def interpreter_kernel():
    """A register machine stepping a fixed program, as the ISA
    interpreter does."""
    regs = [1] * 16
    memory = {}
    for _ in range(36):
        for op, a, b, c in _PROGRAM:
            if op == 0:
                regs[a] = (regs[b] + regs[c]) & 0xFFFF
            elif op == 1:
                regs[a] = (regs[b] * 3 + 1) & 0xFFFF
            elif op == 2:
                memory[regs[b] & 255] = regs[a]
            elif op == 3:
                regs[a] = memory.get(regs[b] & 255, 0)
            else:
                regs[a] = regs[b] >> 1 if regs[c] & 1 else regs[b] << 1 & 0xFFFF
    return regs[0]


#: Reference kernels by name, each with the mean probe time (seconds)
#: that defines one reference second.
KERNELS = {
    "dense": (dense_kernel, 4.0e-4),
    "interpreter": (interpreter_kernel, 3.0e-4),
}


class Gauge:
    """Times a reference kernel every :data:`PERIOD_S` while entered.

    ``samples`` holds the host seconds of every probe; ``spent`` the
    host seconds the probes took, signal handler included.
    """

    def __init__(self, kernel, period_s=PERIOD_S):
        self.kernel, self.reference_s = KERNELS[kernel]
        self.period_s = period_s
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _probe(self, signum, frame):
        start = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - start)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def clock(self):
        """``perf_counter`` minus the time spent in probes so far."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if self.spent == spent:  # no probe ran in between
                return now - spent

    def mark(self):
        """A position in ``samples``, to select the probes of an interval."""
        return len(self.samples)

    def factor(self, since):
        """Reference seconds per second of :meth:`clock`, over the probes
        since ``mark()`` returned ``since``.

        The probes' mean follows the bursts of contention the workload
        also sees; the slowest and fastest tenth are dropped first, so
        one probe caught by a long preemption does not count.
        """
        probes = sorted(self.samples[since:])
        if not probes:
            raise RuntimeError("no gauge probe in the interval: run longer")
        trim = len(probes) // 10
        return self.reference_s / statistics.fmean(probes[trim:len(probes) - trim])
