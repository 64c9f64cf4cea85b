"""A fixed reference slice that measures how fast the host runs right now.

The benchmark runs one slice before the first operation of a timed pass and
one after each operation.  Each operation's wall time is divided by the mean
of the two slices around it and multiplied by ``NOMINAL_SLICE_S``.  So a pass
time reads in seconds at the host speed where one slice takes
``NOMINAL_SLICE_S``.  On a shared host whose speed drifts by tens of percent
from minute to minute, this ratio repeats far better than the wall time does
(see README.md, "Noise findings").

The slice is the benchmark's own numpy code, shaped like the program's hot
paths, so a change to loccwork cannot change it:

- ``marginals``: single-site marginals and their entropies of 2^10-amplitude
  vectors, one einsum and one 2x2 eigvalsh per site (protocol scoring);
- ``sweeps``: a tensordot suffix chain and environment contractions on a
  2^12 tensor (the alternating product-overlap search);
- ``sampling``: complex Gaussian blocks and overlap thresholds (tail
  sampling).
"""

from __future__ import annotations

import time

import numpy as np

# One slice's time at the reference speed: the median slice time over the
# reference runs in README.md, rounded.
NOMINAL_SLICE_S = 0.060

_RNG = np.random.default_rng(12345)
_VECTORS = []
for _ in range(4):
    _v = _RNG.standard_normal(1024) + 1j * _RNG.standard_normal(1024)
    _VECTORS.append(_v / np.linalg.norm(_v))
_TENSOR = (_RNG.standard_normal(4096) + 1j * _RNG.standard_normal(4096)).reshape((2,) * 12)
_FACTORS = [np.array([0.6, 0.8j]) for _ in range(12)]
_THRESHOLDS = np.array([1e-4, 1e-3, 1e-2])


def _marginals() -> None:
    for v in _VECTORS:
        for site in range(10):
            t = v.reshape(2 ** (10 - site - 1), 2, 2**site)
            lam = np.linalg.eigvalsh(np.einsum("aib,ajb->ij", t, t.conj()))
            lam = lam[lam > 1e-12]
            float(-(lam * np.log(lam)).sum())


def _sweeps() -> None:
    n = _TENSOR.ndim
    suffix = [None] * n
    suffix[n - 1] = _TENSOR
    for m in range(n - 1, 0, -1):
        suffix[m - 1] = np.tensordot(suffix[m], _FACTORS[m].conj(), axes=([m], [0]))
    for k in range(n):
        env = suffix[k]
        for m in range(k):
            env = np.tensordot(env, _FACTORS[m].conj(), axes=([0], [0]))
        float(np.linalg.norm(env))


def _sampling() -> None:
    rng = np.random.default_rng(7)
    x = rng.standard_normal((32, 1024)) + 1j * rng.standard_normal((32, 1024))
    p = np.abs(x[:, 0]) ** 2 / (np.abs(x) ** 2).sum(axis=1)
    (p[:, None] > _THRESHOLDS).sum(axis=0)


# (kernel, repetitions): about a third of the slice each.
_PARTS = ((_marginals, 20), (_sweeps, 2), (_sampling, 15))


def slice_seconds() -> float:
    """Run one reference slice; return its wall time."""
    t0 = time.perf_counter()
    for kernel, reps in _PARTS:
        for _ in range(reps):
            kernel()
    return time.perf_counter() - t0
