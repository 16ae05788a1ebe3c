"""Fixed reference kernel that gauges how fast this machine runs right now.

On a shared host the same work can take 50 % longer for tens of seconds
at a time while other tenants load the cores. Run medians then follow the
host, not the program. The benchmark times this kernel on every core at
once next to each operation and scales its throughputs and set-up time to
a host on which the kernel takes ``NOMINAL_S``; the raw figures stay in
the run record. The kernel mixes what the program does: 2-D FFTs, sorting
and elementwise math on 1e5-element vectors, and a pure-Python loop.
"""

from __future__ import annotations

import os
import time

import numpy as np

NOMINAL_S = 0.010  # reported figures are those of a host where the kernel takes this
REPEATS = 3

_rng = np.random.default_rng(20250326)
_GRID = _rng.standard_normal((128, 128)) + 1j * _rng.standard_normal((128, 128))
_VECTOR = _rng.standard_normal(100_000)


def kernel_seconds() -> float:
    start = time.perf_counter()
    for _ in range(4):
        np.fft.fft2(_GRID, s=(256, 256))
    for _ in range(3):
        np.sort(_VECTOR)
        np.hypot(_VECTOR, _VECTOR)
        np.arccos(np.clip(_VECTOR, -1.0, 1.0))
    total = 0
    for i in range(20_000):
        total += i * i
    return time.perf_counter() - start


def _fastest() -> float:
    return min(kernel_seconds() for _ in range(REPEATS))


def all_cores_mean() -> float:
    """Kernel time averaged over the cores this process may run on.

    The kernel runs on every core at once, one pinned process per core,
    because the sweeps load every core and a loaded host runs slower than
    one busy core shows. On each core the fastest of REPEATS runs counts,
    so one interrupt does not set the figure. The helpers are forked and
    reaped here; the caller's affinity is restored before returning.
    """
    cpus = sorted(os.sched_getaffinity(0))
    helpers = []
    for cpu in cpus[1:]:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read_fd)
                os.sched_setaffinity(0, {cpu})
                os.write(write_fd, repr(_fastest()).encode())
            finally:
                os._exit(0)
        os.close(write_fd)
        helpers.append((pid, read_fd))
    saved = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {cpus[0]})
        times = [_fastest()]
    finally:
        os.sched_setaffinity(0, saved)
        for pid, read_fd in helpers:
            with os.fdopen(read_fd) as fh:
                text = fh.read()
            os.waitpid(pid, 0)
            if text:
                times.append(float(text))
    if len(times) != len(cpus):
        raise RuntimeError("a reference helper process died")
    return sum(times) / len(times)
