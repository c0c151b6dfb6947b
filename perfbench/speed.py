"""How fast the machine runs right now, from frozen reference kernels.

On a shared host the same code runs up to 2x slower at one time than at
another, and the drift lasts from seconds to minutes: no median inside
one run removes it.  ``SpeedProbe`` times short blocks of a fixed kernel
between the workload's calls (``pause``).  The kernels import nothing
from fastpart, so a change to fastpart moves the calls and not the
probe; a change in machine speed moves both.  ``scale(start, end)`` is
the factor that turns the wall time of a call into the time it would
have taken at the speed the reference block times below were measured
at: the reference block time over the probe's median block time, taken
as the mean of the factors just before the call and just after it.

Two kernels cover the workloads' two regimes:

- ``dispatch``: a toy particle solver written here (5 particles, batch
  of 1, 30 steps): many small numpy calls from Python, like
  ``tiny_seed_sweep``;
- ``arithmetic``: elementwise work and a matrix product on a 64 x 1001
  array, like ``wide_cloud`` and the grid oracle of ``gmm3a_compare``.

A workload names the kernels that match it; with two, the factor is the
geometric mean of both.
"""
from __future__ import annotations

import bisect
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

# median block times on the development box (see README.md); constants,
# so that runs at different times and of different commits compare
REFERENCE_S = {"dispatch": 0.0032, "arithmetic": 0.0021}
MIN_BLOCKS = 3


@dataclass(frozen=True)
class _Batch:
    idx: np.ndarray
    u: np.ndarray
    v: np.ndarray


@dataclass
class _State:
    w: np.ndarray
    x: np.ndarray
    k: int = 0


def _draw(w, m, rng):
    cdf = np.cumsum(w)
    idx = np.searchsorted(cdf, rng.random(m) * cdf[-1], side="right")
    np.minimum(idx, len(w) - 1, out=idx)
    return _Batch(idx, rng.normal(size=(m, 1)), rng.normal(size=(m, 1)))


def _fields(state, batch, y):
    x = state.x[:, None, :]
    d = x - (state.x[batch.idx][None] + 0.1 * batch.u[None])
    k = np.exp(-0.5 * np.sum(d * d, axis=-1))
    dy = x - (y[None, :1, :] + 0.1 * batch.v[None])
    ky = np.exp(-0.5 * np.sum(dy * dy, axis=-1))
    cost = (k * state.w[batch.idx][None]).sum(axis=1) / len(batch.idx) \
        - ky.mean(axis=1) + 0.25
    grad = (dy * ky[..., None]).mean(axis=1) - (d * k[..., None]).mean(axis=1)
    return cost, grad


def _step(state, rng, y):
    batch = _draw(state.w, 1, rng)
    cost, grad = _fields(state, batch, y)
    w = state.w * np.exp(-0.5 * cost)
    if not math.isfinite(float(w.sum())):
        raise RuntimeError("probe weights overflowed")
    x = np.clip(state.x - 1e-3 * grad, -1.0, 1.0)
    return _State(w, x, state.k + 1)


class SpeedProbe:
    def __init__(self, kernels):
        rng = np.random.default_rng(1205993)
        self._y = rng.standard_normal((300, 1))
        self._a = rng.standard_normal((64, 1001))
        self._b = rng.standard_normal((1001, 64))
        self.kernels = tuple(kernels)
        self._fns = {"dispatch": self._dispatch, "arithmetic": self._arithmetic}
        # one entry per pause: start, end, {kernel: median block time}
        self.starts: list[float] = []
        self.clusters: list[tuple[float, float, dict]] = []
        self.busy_s = 0.0

    def _dispatch(self):
        rng = np.random.default_rng(3)
        state = _State(np.full(5, 0.2), np.linspace(-0.5, 0.5, 5)[:, None])
        for _ in range(30):
            state = _step(state, rng, self._y)
        return state.k

    def _arithmetic(self):
        a, b = self._a, self._b
        acc = 0.0
        for _ in range(4):
            acc += float((np.exp(-0.5 * a * a) @ b).sum())
        return acc

    def pause(self, seconds: float) -> None:
        """Time blocks of each kernel for about ``seconds`` in all, at least
        ``MIN_BLOCKS`` of each."""
        start = time.perf_counter()
        end = start + seconds
        times = {k: [] for k in self.kernels}
        while True:
            for kernel in self.kernels:
                t0 = time.perf_counter()
                self._fns[kernel]()
                times[kernel].append(time.perf_counter() - t0)
            now = time.perf_counter()
            if now >= end and len(times[self.kernels[0]]) >= MIN_BLOCKS:
                break
        self.starts.append(start)
        self.clusters.append((start, now, {k: statistics.median(v)
                                           for k, v in times.items()}))
        self.busy_s += now - start

    def _factor(self, cluster) -> float:
        blocks = cluster[2]
        return math.prod(REFERENCE_S[k] / blocks[k]
                         for k in self.kernels) ** (1 / len(self.kernels))

    def scale(self, start: float, end: float) -> float:
        """Factor for a call that ran from ``start`` to ``end``
        (``time.perf_counter`` seconds), from the pauses around it."""
        i = bisect.bisect_left(self.starts, end)
        around = self.clusters[max(i - 1, 0):i + 1]
        before = [c for c in around if c[1] <= start] or around[:1]
        after = [c for c in around if c[0] >= end] or around[-1:]
        return 0.5 * (self._factor(before[-1]) + self._factor(after[0]))

    def overall(self) -> float:
        """Median factor over every pause of the run."""
        return statistics.median(self._factor(c) for c in self.clusters)
