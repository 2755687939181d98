"""Machine-speed probe: rescales measured times to a reference speed.

On a shared host the speed of one process drifts.  On the 2-vCPU Xeon VM
(2.1 GHz) this benchmark was written on, one engine-dense pass took from
1.7 s to 2.7 s within a minute (coefficient of variation 13%), process CPU
time moved with wall time, and the steal counter in /proc/stat did not: the
slowdown is contention on the host, not preemption.  Raw seconds therefore
cannot hold a regression bound of a few tens of percent.

While a pass runs, a timer signal runs a small fixed kernel every
INTERVAL_S: dict updates on integer keys, a small term dict rebuilt into a
frozen dataclass step by step, a 4x4 complex QR and int64 vector arithmetic,
which is the operation mix of the package's layers.  Its median duration tells
how fast the machine is during that pass.  Kernel time is excluded from the
pass time, and the pass time is multiplied by REF_KERNEL_S / median kernel
time.  That gives "reference seconds": seconds on a machine on which the
kernel takes REF_KERNEL_S.  The kernel never calls the package, so a faster
or slower program moves reference seconds exactly as it moves raw seconds.
On the VM above this cut the pass-to-pass coefficient of variation of
engine-dense and engine-sparse from about 18% to about 6%.

Set-up is too short to sample (tens of milliseconds for most workloads), and
a burst of kernel runs right after it is slowed by garbage collection of the
freshly imported modules, so set-up is rescaled with the median scale of the
passes that follow it in the same run.
"""

from __future__ import annotations

import signal
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

INTERVAL_S = 0.05
REF_KERNEL_S = 2e-3

_KEYS = [i * 2654435761 & 0xFFFFFFFFFFFF for i in range(1024)]
_VALUES = dict.fromkeys(_KEYS, 1.0)
_GINIBRE = np.random.default_rng(0).standard_normal((2, 4, 4))
_ROW = np.arange(401, dtype=np.int64)


@dataclass(frozen=True)
class _Terms:
    terms: dict
    n: int


def kernel() -> None:
    out: dict[int, float] = {}
    for k in _KEYS:
        b = k & ~0xF0F0
        out[b] = out.get(b, 0.0) + _VALUES[k] * 0.5
    v = _Terms({1: 1.0, 6: 0.5}, 48)
    for _ in range(300):
        out = {}
        for b, c in v.terms.items():
            (b & 0xF0).bit_count()
            out[b & ~3] = out.get(b & ~3, 0.0) + c * 0.5
            out[b | 3] = out.get(b | 3, 0.0) + c * 0.5
        v = _Terms({b: c for b, c in out.items() if c >= 1e-15}, v.n)
    z = _GINIBRE[0] + 1j * _GINIBRE[1]
    for _ in range(6):
        np.linalg.qr(z)
    for _ in range(20):
        (_ROW * 7 + _ROW) % 2147483629


class SpeedProbe:
    """Samples the kernel from SIGALRM while active; one instance per process."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # total kernel time since creation
        self._previous = None

    def clock(self) -> float:
        """perf_counter without the time spent in the kernel."""
        return perf_counter() - self.spent

    def _sample(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        kernel()
        dt = perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Factor from raw seconds to reference seconds for the last active period."""
        return REF_KERNEL_S / statistics.median(self.samples)
