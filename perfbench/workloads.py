"""The three benchmark workloads and the loops that run them.

A workload turns the seed into a pool of inputs and an independent
reference lambda0 for each (set-up, untimed); one operation runs the
program on one input.  An operation returns lambda0 as the program
reports it, or raises a named ``PerronError`` / ``CliFailure``.  The
program sees only the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import perron
from calibrate import calibrate
from perron.cli import main as cli_main
from perron.errors import PerronError
from perron.kernel_op import spectral_radius_oracle

WRONG_REL = 1e-7          # the CLI's own oracle_delta_rel threshold
GOLDEN = 0.6180339887498949
SIGMA_RANGE = (0.3, 0.4)
BATCH_S = 0.5             # shortest stretch of operations between two calibrations


class CliFailure(Exception):
    """A CLI command exited with a nonzero code."""


FAILURES = (PerronError, CliFailure)   # named failures; anything else is a bug


def golden_sigmas(seed: int, count: int) -> list[float]:
    """Kernel widths drawn from SIGMA_RANGE by a golden-ratio sequence with a
    seeded start: every prefix spreads over the range, so the few
    operations of one run sample it evenly."""
    start = np.random.default_rng(seed).random()
    lo, hi = SIGMA_RANGE
    return [lo + (hi - lo) * ((start + i * GOLDEN) % 1.0) for i in range(count)]


@dataclass(frozen=True)
class Input:
    reference: float
    sigma: float = 0.0
    matrix: np.ndarray | None = None


def gaussian_inputs(n: int, seed: int, count: int) -> list[Input]:
    """Widths from the seed, each with the power-iteration oracle's lambda0."""
    inputs = []
    for sigma in golden_sigmas(seed, count):
        space = perron.make_interval_space(0.0, 1.0, n, "midpoint")
        kernel = perron.gaussian_kernel(space, sigma)
        inputs.append(Input(spectral_radius_oracle(kernel, tol=1e-12).rho, sigma=sigma))
    return inputs


class GaussN2000:
    name = "gauss_n2000"
    why = "ROADMAP baseline shape: O(n^3) shifted solves in the root search dominate"
    op_estimate_s = 7.7       # sizes the traced run; never used to judge a result
    pool = 6
    calibration = "dense"

    def __init__(self, n: int = 2000):
        self.n = n

    def make_inputs(self, seed: int) -> list[Input]:
        return gaussian_inputs(self.n, seed, self.pool)

    def warm_up(self, workdir: Path) -> None:
        GaussN2000(n=100).run(Input(0.0, sigma=0.35), workdir)

    def run(self, x: Input, workdir: Path) -> float:
        space = perron.make_interval_space(0.0, 1.0, self.n, "midpoint")
        kernel = perron.gaussian_kernel(space, x.sigma)
        return perron.solve(kernel, "row_min", tol=1e-12, solver="direct_lu").lambda0


class MatrixLognormal:
    name = "matrix_lognormal"
    why = "tiny heterogeneous matrices: per-call overhead, certificate, rho(R) and the failure path"
    op_estimate_s = 0.018
    pool = 1024
    calibration = "small"

    def make_inputs(self, seed: int) -> list[Input]:
        rng = np.random.default_rng(seed)
        inputs = []
        for _ in range(self.pool):
            n = int(rng.integers(20, 61))
            a = np.exp(4.0 * rng.standard_normal((n, n)))
            # counting measure: unit weights, so the operator matrix is a
            inputs.append(Input(float(np.abs(np.linalg.eigvals(a)).max()), matrix=a))
        return inputs

    def warm_up(self, workdir: Path) -> None:
        self.run(Input(0.0, matrix=1.0 + np.random.default_rng(0).random((20, 20))), workdir)

    def run(self, x: Input, workdir: Path) -> float:
        n = x.matrix.shape[0]
        kernel = perron.Kernel(x.matrix, perron.make_counting_space(n))
        return perron.solve(kernel, "row_min", tol=1e-12).lambda0


class CliConfig:
    name = "cli_config"
    why = "perron solve + verify at n=600: one-shot shifts (dcurve, scans), cli and the verify battery"
    op_estimate_s = 6.8
    pool = 6
    calibration = "dense"

    def __init__(self, n: int = 600):
        self.n = n

    def make_inputs(self, seed: int) -> list[Input]:
        return gaussian_inputs(self.n, seed, self.pool)

    def warm_up(self, workdir: Path) -> None:
        CliConfig(n=60).run(Input(0.0, sigma=0.35), workdir)

    def run(self, x: Input, workdir: Path) -> float:
        config = {
            "kernel": {"family": "gaussian", "sigma": x.sigma},
            "space": {"kind": "interval", "a": 0.0, "b": 1.0, "n": self.n, "rule": "midpoint"},
            "certificate": {"strategy": "row_min"},
            "solver": {"mode": "direct_lu", "tol": 1e-12},
            "outputs": {"report": "report.json", "eigenfunction": "eigenfunction.csv",
                        "dcurve": "dcurve.csv"},
        }
        config_path = workdir / "gaussian_interval.json"
        config_path.write_text(json.dumps(config))
        for command in ("solve", "verify"):
            code = _cli(command, "--config", str(config_path), "--out", str(workdir))
            if code != 0:
                raise CliFailure(f"perron {command} exited with {code}")
        return float(json.loads((workdir / "report.json").read_text())["lambda0"])


def _cli(*argv: str) -> int:
    """Run a perron command in-process; its printed output is discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            cli_main(list(argv), standalone_mode=False)
        except SystemExit as exc:
            return 0 if exc.code is None else int(exc.code)
    return 0


WORKLOADS = {w.name: w for w in (GaussN2000(), MatrixLognormal(), CliConfig())}


@dataclass
class Outcome:
    latency: float
    reference: float
    value: float | None = None
    error: str | None = None

    @property
    def rel_err(self) -> float | None:
        return None if self.value is None else abs(self.value - self.reference) / self.reference

    @property
    def wrong(self) -> bool:
        # written as `not <=` so that a NaN answer counts as wrong
        return self.value is not None and not self.rel_err <= WRONG_REL

    @property
    def failed(self) -> bool:
        return self.error is not None or self.wrong


def run_op(workload, x, workdir: Path) -> Outcome:
    start = perf_counter()
    try:
        value = workload.run(x, workdir)
    except FAILURES as exc:
        return Outcome(perf_counter() - start, x.reference, error=type(exc).__name__)
    return Outcome(perf_counter() - start, x.reference, value=value)


def timed_loop(workload, inputs, seconds: float, workdir, between_batches=None):
    """Closed loop, one client: operations back to back, cycling through the
    pool, until ``seconds`` of operation time have passed.

    Operations run in batches of at least BATCH_S (one operation, on the
    long workloads).  ``between_batches(wall)``, if given, is called after
    each batch.  The workload's calibration task runs before the first
    batch and after every batch, so each operation lies between two
    calibrations; its calibrated latency is its wall time over the median
    of those two calibrations' samples.  Returns the outcomes, their
    calibrated latencies, every calibration time and the wall time spent
    in operations."""
    outcomes, ratios, wall = [], [], 0.0
    calibs = [calibrate(workload.calibration)]
    while wall < seconds:
        batch, start = [], perf_counter()
        while True:
            x = inputs[(len(outcomes) + len(batch)) % len(inputs)]
            batch.append(run_op(workload, x, workdir))
            elapsed = perf_counter() - start
            if elapsed >= BATCH_S or wall + elapsed >= seconds:
                break
        wall += elapsed
        if between_batches is not None:
            between_batches(wall)
        calibs.append(calibrate(workload.calibration))
        around = statistics.median(calibs[-2] + calibs[-1])
        ratios += [o.latency / around for o in batch]
        outcomes += batch
    return outcomes, ratios, [t for samples in calibs for t in samples], wall


def traced_rounds(workload, inputs, seconds: float, workdir, tracer):
    """Each input untraced and traced, alternating which goes first.  The
    round count comes from --seconds and a fixed per-workload estimate, so
    counts repeat exactly at one seed."""
    rounds = max(1, round(seconds / (2.0 * workload.op_estimate_s)))
    plain, traced = [], []
    for r in range(rounds):
        x = inputs[r % len(inputs)]
        for with_trace in ((False, True) if r % 2 == 0 else (True, False)):
            if not with_trace:
                plain.append(run_op(workload, x, workdir))
                continue
            tracer.begin_op(r)
            undo = tracer.install()
            try:
                traced.append(run_op(workload, x, workdir))
            finally:
                undo()
    return plain, traced
