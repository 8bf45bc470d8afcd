"""Machine-speed calibration for a shared, noisy host.

On a host whose cores are shared with other tenants the same Python code
runs up to twice as fast at one moment as at another, and a process's CPU
time moves with its wall time, so neither hides the drift.  The benchmark
therefore times this fixed kernel, several runs at a time, next to every
measured call and scales the call's time by ``NOMINAL_S / kernel time``:
the result is the time the call would take at the host's nominal speed.
The kernel is the same kind of work as airnav's (a Python loop around 7x7
numpy and scipy algebra) and imports nothing from airnav, so a change to
airnav cannot move it.  Do not edit the kernel or ``NOMINAL_S``: every
recorded figure depends on both.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.linalg

# Kernel time that defines "nominal speed": about the median on the host
# the baseline was recorded on (see baseline.json).  It only sets the scale.
NOMINAL_S = 0.1
STEPS = 2000
REPEATS = 7


def kernel(steps: int = STEPS) -> float:
    """Riccati-style predict/update loop; returns a checksum."""
    rng = np.random.default_rng(0)
    noise = rng.standard_normal((steps, 3))
    p = np.eye(7)
    s = 0.01 * np.eye(7)
    q = np.eye(3)
    c = np.zeros((3, 7))
    c[:, 0:3] = np.eye(3)
    a = np.eye(7)
    v = np.zeros(3)
    state = {}
    for i in range(steps):
        w = noise[i]
        a[3:6, 0:3] = 0.005 * np.array([[0.0, -w[2], w[1]],
                                        [w[2], 0.0, -w[0]],
                                        [-w[1], w[0], 0.0]])
        p = a @ p @ a.T + s * 0.005
        if i % 4 == 0:
            cho = scipy.linalg.cho_factor(c @ p @ c.T + q)
            k = scipy.linalg.cho_solve(cho, c @ p).T
            p = (np.eye(7) - k @ c) @ p
            p = 0.5 * (p + p.T)
        v = v + 0.005 * np.cross(w, v) + 1e-3 * w
        state = {"v": v, "h": float(v[2])}
    return float(np.trace(p)) + state["h"]


def kernel_times(repeats: int = REPEATS) -> list[float]:
    """Times of ``repeats`` back-to-back kernel runs, in seconds."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return times
