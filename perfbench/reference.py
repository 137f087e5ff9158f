"""A fixed reference kernel that measures the machine's current speed.

On a shared host the speed of the cores drifts by a quarter or more over
tens of seconds, with the program's work unchanged.  The timed phase runs
this kernel between jobs and reports each job's time as a multiple of the
kernel's time around it (one "ref"), which cancels that drift.  The kernel
is code of the benchmark, not of renyiflow, so a change to the program
cannot move it; it mixes the kinds of work the workloads do: many tiny
Hermitian eigendecompositions (Python-overhead bound), a few 64x64 BLAS
products and eigendecompositions, and plain Python arithmetic.
"""

from __future__ import annotations

import time

import numpy as np


def _hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return m + m.conj().T


class Reference:
    def __init__(self) -> None:
        rng = np.random.default_rng(20181002)
        self.small = [_hermitian(rng, (2, 3, 4)[i % 3]) for i in range(60)]
        self.large = _hermitian(rng, 64)
        self.expected = self._work()

    def _work(self) -> float:
        acc = 0.0
        for _ in range(3):
            for a in self.small:
                w, v = np.linalg.eigh(a)
                acc += float(w[0]) + float(abs(v[0, 0]))
        for _ in range(3):
            acc += float(np.linalg.eigvalsh(self.large)[0])
            acc += float((self.large @ self.large).real[0, 0])
        x = 0
        for i in range(40000):
            x += i * i % 7
        return acc + x

    def time(self) -> float:
        """Seconds one pass of the kernel takes now."""
        t0 = time.perf_counter()
        value = self._work()
        elapsed = time.perf_counter() - t0
        if value != self.expected:
            raise RuntimeError(f"reference kernel computed {value!r}, expected {self.expected!r}")
        return elapsed
