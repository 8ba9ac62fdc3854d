"""Host speed sampled during a timed call, to express times at a fixed reference speed.

On a shared host the speed of a vCPU changes by up to 1.7x for tens of
seconds at a time, so a raw time mixes the program's cost with the host's
state.  While ``timed(fn)`` runs ``fn``, an interval timer interrupts it
every ``INTERVAL_S`` and times one run of a fixed reference loop: complex
exponential quadratures on a 2401-node grid, each followed by scalar Python
arithmetic, as in the Newton steps of the program's root search.
The mean loop time over the call is the host's speed during it, and

    ref_s = (elapsed - time spent in the samples) * REF_LOOP_S / mean loop time

is the call's time on a host where the loop takes ``REF_LOOP_S``.  The loop
is part of the benchmark and never changes with the program, so a change in
the program's cost shows in ``ref_s`` in full.

Only the main thread can take the timer's signal; ``timed`` is not re-entrant.
"""
from __future__ import annotations

import signal
import time
from dataclasses import dataclass

import numpy as np

#: timer period; one loop takes about 1.5% of it
INTERVAL_S = 0.025
#: the reference loop's time on the baseline host (2-vCPU Xeon VM) in its
#: fast state; it only scales ``ref_s`` so that it reads as seconds there
REF_LOOP_S = 3.6e-4
#: samples taken right after a call too short to be interrupted
MIN_SAMPLES = 4

_NODES = np.linspace(0.0, 8.0, 2401)
_KERNEL = 2.0 * np.exp(-_NODES)
_WEIGHTS = np.full(_NODES.size, _NODES[1])


def reference_loop() -> float:
    """Seconds taken by one run of the fixed reference work.

    Of the loops tried, this one tracked the program best: over repeated
    identical passes on the baseline host, times at the reference speed
    varied by 1.4-1.8% (CV) on long-horizon and kernel-screen, against
    3.5-5% with a loop of real-valued exponentials on 1601 nodes.
    """
    start = time.perf_counter()
    z, acc = complex(-1.0, 2.0), 0.0
    for _ in range(6):
        z += complex(_WEIGHTS @ (_KERNEL * np.exp(-z * _NODES))) * 1e-9
        for j in range(60):
            acc += j * 0.5
    return time.perf_counter() - start


@dataclass
class Timing:
    """One call: its time without the samples, and the host's mean loop time during it."""

    elapsed_s: float
    cpu_s: float
    loop_s: float


def at_reference(seconds: float, loop_s: float) -> float:
    """A time taken while the reference loop took ``loop_s``, at the reference speed."""
    return seconds * REF_LOOP_S / loop_s


class _Sampler:
    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0

    def __call__(self, signum, frame):
        t0, c0 = time.perf_counter(), time.process_time()
        self.samples.append(reference_loop())
        self.spent_s += time.perf_counter() - t0
        self.spent_cpu_s += time.process_time() - c0


def timed(fn, interval_s: float = INTERVAL_S):
    """(fn's value, Timing) with the host's speed sampled while fn runs."""
    sampler = _Sampler()
    previous = signal.signal(signal.SIGALRM, sampler)
    t0, c0 = time.perf_counter(), time.process_time()
    signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)
    try:
        value = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed, cpu = time.perf_counter() - t0, time.process_time() - c0
        signal.signal(signal.SIGALRM, previous)
    samples = sampler.samples
    if len(samples) < MIN_SAMPLES:
        samples = samples + [reference_loop() for _ in range(MIN_SAMPLES - len(samples))]
    loop_s = sum(samples) / len(samples)
    return value, Timing(elapsed - sampler.spent_s, cpu - sampler.spent_cpu_s, loop_s)
