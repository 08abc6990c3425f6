"""Fixed calibration tasks that measure the machine's speed, not perron's.

On a shared host the same operation can take 60 % longer from one ten
seconds to the next, and a whole set of runs can be a third faster or
slower than one taken half an hour earlier.  The benchmark therefore
times a calibration task between the operations and also reports the
median latency as a multiple of the median calibration time.  A change to perron moves that
ratio; a change in the machine's speed moves both terms alike.

The tasks use only numpy and scipy on inputs fixed here, never the run's
seed or the program, so a change to perron cannot change them.  Each
workload names the task closest to its own mix of work:

- ``dense``: one LU of a 1000 x 1000 matrix, for the O(n^3) workloads;
- ``small``: LUs, solves and norms of 20..60 matrices in a Python loop,
  for the per-call-overhead workload.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.linalg

_rng = np.random.default_rng(20260101)
_DENSE = _rng.random((1000, 1000)) + 1000.0 * np.eye(1000)
# Many separate arrays, so that how each happens to be aligned in memory
# averages out instead of setting the speed of a whole run.
_SMALL = [(_rng.random((k, k)) + k * np.eye(k), _rng.random(k))
          for k in _rng.integers(20, 61, size=100)]


def _dense() -> None:
    scipy.linalg.lu_factor(_DENSE)


def _small() -> None:
    for _ in range(2):
        for a, v in _SMALL:
            scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), v)
            scipy.linalg.norm(a, 1)


TASKS = {"dense": _dense, "small": _small}
REPEATS = 8


def calibrate(kind: str) -> list[float]:
    """Wall times in seconds of REPEATS runs of the task."""
    task = TASKS[kind]
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        task()
        times.append(perf_counter() - start)
    return times
