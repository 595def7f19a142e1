"""Host-speed probes: fixed numpy-only jobs timed between workload jobs.

The benchmark's host is a shared virtual machine whose speed drifts by tens
of percent over seconds to minutes, with CPU time drifting along with wall
time.  A probe repetition takes a few milliseconds and does a fixed kind of
work.  Timed right after a workload job, its median repetition measures the
host's speed at that moment, so a job's time divided by it is the job's cost
in units that do not move with the host.

There are two kinds, matched to the work of the workloads:

- ``compute``: interpreted Python, small dense solves and small FFTs, all in
  cache, like the Levenberg-Marquardt search;
- ``memory``: complex FFTs of a 1.7 MB grid and streaming arithmetic over
  16 MB arrays, like the band calculus on large periodic grids.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

SHARE = 0.1  # probe time after a job, as a share of the job's time
MAX_REPS = 400


class HostProbe:
    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        if kind == "compute":
            self.x = rng.standard_normal((32, 32, 32))
            a = rng.standard_normal((16, 16))
            self.a = a @ a.T + 16 * np.eye(16)
            self.b = rng.standard_normal(16)
            self.once, self.nominal_s = self._compute, 0.003
        elif kind == "memory":
            self.z = rng.standard_normal((48, 48, 48)) + 0j
            self.u = rng.standard_normal(2_000_000)
            self.v = np.empty_like(self.u)
            self.once, self.nominal_s = self._memory, 0.012
        else:
            raise ValueError(f"unknown probe kind {kind!r}")
        self.kind = kind

    def _compute(self) -> None:
        s, d = 0, {}
        for i in range(3000):
            s += i * i % 7
            d[i & 63] = s
        v = self.b
        for _ in range(60):
            v = np.linalg.solve(self.a, v + self.b) * 0.5
        for _ in range(2):
            np.fft.irfftn(np.fft.rfftn(self.x, axes=(0, 1, 2)), s=self.x.shape, axes=(0, 1, 2))

    def _memory(self) -> None:
        np.fft.ifftn(np.fft.fftn(self.z))
        np.multiply(self.u, 1.0001, out=self.v)
        np.add(self.v, self.u, out=self.v)
        np.ones(500_000).sum()

    def time(self, job_wall: float) -> tuple:
        """Median (wall, CPU) seconds of one repetition, over enough
        repetitions to fill ``SHARE`` of ``job_wall``."""
        reps = max(1, min(MAX_REPS, round(SHARE * job_wall / self.nominal_s)))
        walls, cpus = [], []
        for _ in range(reps):
            w0, c0 = time.perf_counter(), time.process_time()
            self.once()
            walls.append(time.perf_counter() - w0)
            cpus.append(time.process_time() - c0)
        return statistics.median(walls), statistics.median(cpus)
