"""Host-speed references: rescale measured times to a reference host speed.

The benchmark shares a few cores of a busy host, and the speed those cores
give a single process jumps by 20-75 % from one process to the next and
drifts over minutes (the process's CPU time follows its wall time, so it is
not time stolen from it).  Medians over more children do not remove a drift
that lasts longer than a run, so each time is set against a reference that
never runs hilb2 code: a library change cannot change the reference, which
only shows how fast the host ran at that moment.

Workload time: each child runs a fixed pure-Python kernel, ``kernel``, in a
background thread every ``PERIOD_S`` while its workload runs, and once before
and once after it in the main thread.  ``normalised(wall_s, probe_s)`` is the
wall time the child would have taken at the speed where one kernel call takes
``REF_PROBE_S``: ``wall_s * REF_PROBE_S / probe_s`` with ``probe_s`` the mean
kernel time.  The kernel takes about 0.3 ms of every 20 ms, so it adds
roughly 1.5 % to the workload's wall time, the same on every commit.  While the workload is inside a
numpy call that releases the GIL, the kernel shares the CPU with it; that
adds to the probe time only as much as the OS lets the two interleave within
one kernel call (a few tenths of a millisecond).

Set-up time: the kernel tracks start-up poorly (start-up is system calls,
page faults and module loading), so the reference is a process doing the
start-up work hilb2's import shares with any library -- start the
interpreter, import numpy and the standard modules hilb2 uses -- spawned
right before the measured child.  ``normalised_setup(setup_s, ref_s)`` is
``setup_s * REF_SPAWN_S / ref_s``.
"""

from __future__ import annotations

import subprocess
import sys
import threading
import time
from fractions import Fraction
from math import gcd

PERIOD_S = 0.02
# Kernel time that defines the reference speed: about the mean kernel time
# in a workload child on a 2-vCPU Xeon (Sapphire Rapids, KVM guest) under
# Python 3.11.  It only sets the scale; comparisons between commits do not
# depend on it.
REF_PROBE_S = 300e-6
# Spawn-to-import time of REF_SPAWN_CODE that defines the reference speed for
# set-up time, about its median on that host.
REF_SPAWN_S = 0.14
# pins itself to one CPU as child.py does, then imports what hilb2 imports
# except hilb2; prints its clock reading when done
REF_SPAWN_CODE = (
    "import os, time\n"
    "os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})\n"
    "import argparse, csv, dataclasses, fractions, functools, itertools, json\n"
    "import multiprocessing.pool, random, numpy\n"
    "print(time.perf_counter())\n"
)


def kernel() -> int:
    """Fixed interpreter work of the kind hilb2 does: ``Fraction``
    arithmetic, small-int arithmetic, ``gcd``, tuples and a dict keyed by
    tuples.  The Fraction part matters: a purely integer kernel follows the
    host's speed changes less closely on these workloads."""
    q = Fraction(0)
    for i in range(1, 20):
        q += Fraction(i, i + 1) * Fraction(3, i + 2)
    acc = 0
    seen = {}
    for i in range(1, 150):
        a, b = divmod(i * 7919, 97)
        t = (a, b, i & 15)
        acc += gcd(a * b + 1, i) + t[0] * t[2]
        seen[t] = acc
    return acc + len(seen) + q.denominator


class Probe:
    """Times ``kernel`` while a ``with`` block runs; see the module docstring."""

    def __init__(self, period: float = PERIOD_S) -> None:
        self.period = period
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="hostprobe", daemon=True)

    def _sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def _loop(self) -> None:
        while not self._stop.wait(self.period):
            self._sample()

    def __enter__(self) -> Probe:
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    def mean_s(self) -> float:
        return sum(self.samples) / len(self.samples)


def normalised(wall_s: float, probe_s: float) -> float:
    return wall_s * REF_PROBE_S / probe_s


def reference_spawn(env: dict, cwd, timeout: float) -> float:
    """Spawn-to-import time of one ``REF_SPAWN_CODE`` process, timed as
    run.py times a child's set-up; raises if the process fails."""
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-B", "-c", REF_SPAWN_CODE],
        env=env, cwd=cwd, capture_output=True, timeout=timeout, check=True,
    )
    return float(out.stdout) - t0


def normalised_setup(setup_s: float, ref_s: float) -> float:
    return setup_s * REF_SPAWN_S / ref_s
