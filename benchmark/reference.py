"""A fixed reference computation that measures the machine's current speed.

On a shared machine, load from other tenants slows every process by up to
about 1.8x, in phases that last from a second to minutes. The benchmark times
this kernel after every sweep and between its set-up probes, and scales its
timings to the speed at which the kernel takes ``REFERENCE_SECONDS``, so a run
made during a slow phase reports about the same figures as one made during a
fast phase. The kernel's mix follows the package's: small complex LAPACK
calls, numpy random draws and interpreter work. It allocates only small
arrays, so it never sets the worker's peak memory, and it uses no tomoreduce
code, so no change to the package can move it.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_SECONDS = 0.05  # the kernel's time when the machine is not contended
_ITERATIONS = 1200


def reference_seconds() -> float:
    """Wall time of one pass of the reference kernel."""
    rng = np.random.default_rng(20240611)
    start = time.perf_counter()
    acc = 0.0
    for _ in range(_ITERATIONS):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
        acc += float(np.linalg.svd((v * np.abs(w)) @ v.conj().T, compute_uv=False).sum())
        acc += sum(x * x for x in range(20))
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):  # keeps the result live; never true
        raise ArithmeticError("reference kernel diverged")
    return elapsed
