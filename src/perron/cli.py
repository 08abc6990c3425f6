"""Command-line interface: solve, dcurve, power-doeblin, verify.

Each command reads a JSON config describing the kernel, the space, the
certificate strategy, solver tolerances, and output paths.  Outputs are
flat files: a JSON run report and RFC-4180-style CSVs with full float
precision (17 significant digits).  Exit codes, one contract for every
command: 0 all residuals within thresholds, 1 config errors (a bad
config or option value), 2 kernel not minorizable (or no power
certificate found), 3 numerical failure (any other ``PerronError``).
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import NoReturn

import click
import numpy as np

from . import __version__
from .change_of_measure import MeasureChange, conjugate_kernel, transform_schur
from .corrected_kernels import probe_resolvent_identity
from .doeblin import (
    STRATEGIES,
    NotMinorizable,
    _is_number,
    extract_minorization,
    load_certificate,
    positivity_improving_check,
    verify_certificate,
)
from .errors import (
    DimensionMismatchError,
    NotMinorizableError,
    PerronError,
    SlowConvergenceError,
)
from .expressions import ExpressionError, evaluate
from .kernel_op import (
    Kernel,
    _pow2_scale,
    constant_kernel,
    gaussian_kernel,
    kernel_from_csv,
    separable_kernel,
    spectral_radius_oracle,
    tight_schur_bound,
    verify_schur,
)
from .measure import GridFunction, make_counting_space, make_interval_space
from .mollified import convergence_study
from .spectral import (
    MIN_TOL,
    collatz_wielandt,
    eigenfunction_series,
    power_doeblin_analyze,
    solve,
    verify_dominance,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOT_MINORIZABLE = 2
EXIT_NUMERICAL = 3

DEFAULT_SEED = 20240808
PROBES = 4  # columns of the probe block for the kernel resolvent identity
OUT_ENV = "PERRON_OUT"

THRESHOLDS = {
    "eig_residual": 1e-8,
    "proj_idempotency": 1e-8,
    "left_residual": 1e-8,
    "rank_one_defect": 1e-8,
    "oracle_delta_rel": 1e-7,
    "series_vs_residue": 1e-8,
}


class ConfigError(Exception):
    pass


def _write_text(path: Path, text: str) -> None:
    """Write over the file in place and cut it to the new length.

    Truncating a non-empty file to zero on open can stall for tens of
    milliseconds on some file systems; cutting only the stale tail after
    the write does not.  The inode, its permissions and any symlink in
    the path are kept.  The stall avoided is most likely the file
    system's flush on replace-via-truncate (ext4 ``auto_da_alloc``), a
    crash-safety feature: a run killed between the write and the cut,
    or a power loss before the overwritten blocks reach the disk, can
    leave the new content followed by a stale tail of the old file.
    """
    data = memoryview(text.encode())
    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o666)
    try:
        size = len(data)
        while data:
            data = data[os.write(fd, data):]
        os.ftruncate(fd, size)
    finally:
        os.close(fd)


def _write_csv(path: Path, header, template: str, rows) -> None:
    """Write a CSV with CRLF line ends, each row formatted by one
    %-template: ``%.17g`` for a float round-trips it, ``%d`` an index."""
    lines = [",".join(header)]
    lines.extend(template % row for row in rows)
    _write_text(path, "\r\n".join(lines) + "\r\n")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path!r} must be a JSON object")
    return cfg


def _block(cfg: dict, name: str) -> dict:
    """The config block ``name``, empty when absent; it must be an object."""
    block = cfg.get(name, {})
    if not isinstance(block, dict):
        raise ConfigError(f"{name!r} must be an object, got {json.dumps(block)}")
    return block


def _number(cfg: dict, key: str, field: str, default=None, integer: bool = False):
    """The JSON number ``cfg[key]``, or ``default`` where the key is absent
    and a default is given (a missing key without one raises KeyError).
    A bool, a string, or a fraction where ``integer`` asks for an integer,
    is a config error naming ``field``: Python would read true as 1, "0.3"
    as 0.3 and 200.7 nodes as 200."""
    if key not in cfg and default is not None:
        return default
    value = cfg[key]
    if not _is_number(value) or (integer and not isinstance(value, int)):
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{field} must be {kind}, got {json.dumps(value)}")
    return value


def _build_space(cfg: dict):
    try:
        kind = cfg["kind"]
        if kind == "interval":
            return make_interval_space(
                float(_number(cfg, "a", "space.a")), float(_number(cfg, "b", "space.b")),
                _number(cfg, "n", "space.n", integer=True), cfg.get("rule", "midpoint"),
            )
        if kind == "counting":
            return make_counting_space(_number(cfg, "n", "space.n", integer=True))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad space config: {exc}") from exc
    raise ConfigError(f"unknown space kind {kind!r}")


def _build_kernel(cfg: dict, space, config_dir: Path) -> Kernel:
    try:
        family = cfg["family"]
        if family == "constant":
            return constant_kernel(space, float(_number(cfg, "c", "kernel.c", default=1.0)))
        if family == "gaussian":
            return gaussian_kernel(space, float(_number(cfg, "sigma", "kernel.sigma")))
        if family == "separable":
            v = evaluate(cfg["v"], space.nodes)
            u = evaluate(cfg["u"], space.nodes)
            return separable_kernel(space, v, u)
        if family == "csv":
            path = Path(cfg["path"])
            if not path.is_absolute():
                path = config_dir / path
            return kernel_from_csv(path, space)
    except (KeyError, TypeError, ValueError, OSError, ExpressionError,
            DimensionMismatchError) as exc:
        raise ConfigError(f"bad kernel config: {exc}") from exc
    raise ConfigError(f"unknown kernel family {family!r}")


def _strategy(cert_cfg: dict) -> str:
    """The certificate strategy of the ``certificate`` block, row_min by default."""
    strategy = cert_cfg.get("strategy", "row_min")
    if strategy not in STRATEGIES or strategy == "user":
        raise ConfigError(
            f"unknown certificate strategy {strategy!r}: use 'row_min' or "
            "'column_profile', or load a certificate from 'path'"
        )
    return strategy


def _resolve_certificate(cfg: dict, kernel: Kernel, config_dir: Path):
    cert_cfg = _block(cfg, "certificate")
    if "path" in cert_cfg:
        path = Path(cert_cfg["path"])
        if not path.is_absolute():
            path = config_dir / path
        try:
            cert = load_certificate(path, kernel.space)
        except (OSError, json.JSONDecodeError, KeyError, ValueError, OverflowError,
                DimensionMismatchError) as exc:
            raise ConfigError(f"cannot load certificate {path}: {exc}") from exc
        if cert.power != 1:
            raise ConfigError(f"certificate {path} has power {cert.power}: this command needs "
                              "a power-1 certificate; 'perron power-doeblin' searches the powers")
        return cert
    return extract_minorization(kernel, _strategy(cert_cfg))


def _solver_tol(cfg: dict) -> float:
    """The root-search tolerance of the config's ``solver`` block, read
    the same way by every command.  ``mode`` may be left out or name the
    one shifted solve, ``direct_lu``."""
    solver_cfg = _block(cfg, "solver")
    mode = solver_cfg.get("mode", "direct_lu")
    if mode == "neumann":
        raise ConfigError("solver mode 'neumann': the Neumann series backend was removed; "
                          "use 'direct_lu' or leave the mode out")
    if mode != "direct_lu":
        raise ConfigError(f"unknown solver mode {mode!r}: the only mode is 'direct_lu'")
    tol = float(_number(solver_cfg, "tol", "solver.tol", default=1e-12))
    if not tol >= MIN_TOL:
        raise ConfigError(f"solver tol {tol!r} is below {MIN_TOL:g}, which double "
                          "precision does not resolve")
    return tol


def _out_dir(out_flag) -> Path:
    base = out_flag or os.environ.get(OUT_ENV) or "."
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _prepare(config_path: str):
    cfg = _load_config(config_path)
    config_dir = Path(config_path).resolve().parent
    space = _build_space(cfg.get("space", {}))
    kernel = _build_kernel(cfg.get("kernel", {}), space, config_dir)
    return cfg, config_dir, kernel


def _echo_fail(code: int, message: str) -> NoReturn:
    click.echo(message, err=True)
    sys.exit(code)


def _contract(command):
    """``command`` under the exit-code contract of the module docstring:
    a ConfigError exits 1, a NotMinorizableError 2 and any other
    PerronError 3, each with its message on stderr."""

    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            command(*args, **kwargs)
        except ConfigError as exc:
            _echo_fail(EXIT_CONFIG, f"config error: {exc}")
        except NotMinorizableError as exc:
            _echo_fail(EXIT_NOT_MINORIZABLE, str(exc))
        except PerronError as exc:
            _echo_fail(EXIT_NUMERICAL, f"numerical failure: {exc}")

    return run


def _residuals(kernel: Kernel, result) -> tuple[dict, float]:
    """The named residuals of a solve of ``kernel``, the relative distance
    of lambda0 from the power-iteration oracle among them, and the
    oracle's rho."""
    oracle = spectral_radius_oracle(kernel, tol=1e-12)
    diagnostics = result.diagnostics
    residuals = {
        "eig_residual": diagnostics.eig_residual,
        "proj_idempotency": diagnostics.proj_idempotency,
        "left_residual": diagnostics.left_residual,
        "rank_one_defect": diagnostics.rank_one_defect,
        "bs_at_lambda0": abs(diagnostics.bs_at_lambda0),
        "oracle_delta_rel": abs(result.lambda0 - oracle.rho) / result.lambda0,
    }
    return residuals, oracle.rho


def _relative_residual(kernel: Kernel, lam: float, f: np.ndarray) -> float:
    """max|T f - lam f| / (max|f| ||T||_inf): the eigen-residual of the
    pair (lam, f) on ``kernel``, relative as ``eig_residual`` of a solve."""
    misfit = np.max(np.abs(kernel.matvec(f) - lam * f))
    return float(misfit / (np.max(np.abs(f)) * kernel.weighted_inf_norm()))


def _remainder_bracket(result) -> tuple[float, float]:
    """A certified bracket of rho(R), R the split's clamped remainder, from
    steps of the implicit T - alpha u x phi clamped at 0
    (``remainder_product``), whose upper ends add the clamp's O(n) lift
    (``remainder_lift``): no n x n remainder is formed.  The steps start
    from the Perron vector of R's compression (``remainder_start``) and
    close in 3 to 5.  Without one, or where that bracket does not lie
    below lambda0, they start from the eigenfunction w of ``result``,
    whose first step,
    [lambda0 - alpha max u/w, lambda0 - alpha min u/w], lies below
    lambda0."""
    ev = result.evaluator
    start = ev.remainder_start()
    if start is not None:
        bracket = collatz_wielandt(ev.remainder_product, start, lift=ev.remainder_lift)
        if bracket[1] < result.lambda0:
            return bracket
    return collatz_wielandt(ev.remainder_product, result.eigenfunction.values,
                            lift=ev.remainder_lift)


@click.group()
@click.version_option(version=__version__, prog_name="perron")
def main():
    """Dominant spectra of positive kernel operators via rank-one
    minorization and Birman-Schwinger root finding."""


@main.command(name="solve")
@click.option("--config", "config_path", required=True, type=click.Path(exists=False))
@click.option("--out", "out_flag", default=None, help="Output directory (default: $PERRON_OUT or cwd).")
@_contract
def solve_cmd(config_path, out_flag):
    """Solve for the dominant eigenvalue, eigenfunction, and projection."""
    t_start = time.perf_counter()
    cfg, config_dir, kernel = _prepare(config_path)
    cert = _resolve_certificate(cfg, kernel, config_dir)
    tol = _solver_tol(cfg)
    outputs = _block(cfg, "outputs")
    if isinstance(cert, NotMinorizable):
        _echo_fail(
            EXIT_NOT_MINORIZABLE,
            f"{cert}\nhint: run 'perron power-doeblin --config {config_path}' "
            "to look for a usable power",
        )
    out = _out_dir(out_flag)
    result = solve(kernel, certificate=cert, tol=tol)
    t_solve = time.perf_counter()
    residuals, oracle_rho = _residuals(kernel, result)
    dominance = verify_dominance(result)
    bracket = _remainder_bracket(result)
    # the series route is only meaningful when its geometric ratio is
    # workable; where the series shows that its term budget cannot meet its
    # tolerance, the residual is omitted, never faked
    try:
        series = eigenfunction_series(result.evaluator, result.lambda0, tol=1e-12)
    except SlowConvergenceError:
        pass
    else:
        residuals["series_vs_residue"] = float(
            np.max(np.abs(series.values - result.eigenfunction.values))
            / max(1.0, result.eigenfunction.sup_norm())
        )
    # written as `not <=` so that a NaN residual fails
    failed = {name: value for name, value in residuals.items()
              if name in THRESHOLDS and not value <= THRESHOLDS[name]}
    # the curve comes before the report, which names its route
    curve = None
    if "dcurve" in outputs:
        grid = _dcurve_grid(result, bracket[1], 200)
        curve = (grid, *result.evaluator.curve(grid))
    report = {
        "config": cfg,
        "certificate": {
            "alpha": result.certificate.alpha,
            "power": result.certificate.power,
            "strict": result.certificate.strict,
        },
        "curve": None if curve is None else result.evaluator.curve_route(),
        "lambda0": result.lambda0,
        "lambda0_bracket": result.diagnostics.lambda0_bracket,
        "oracle_rho": oracle_rho,
        "remainder_radius_bracket": list(bracket),
        "spectral_gap": {
            "second_radius": dominance.second_radius,
            "ratio": dominance.gap_ratio,
            "strictly_dominant": dominance.strictly_dominant,
            "residual": dominance.residual,
            "route": dominance.route,
        },
        "residuals": residuals,
        "thresholds": {k: THRESHOLDS[k] for k in residuals if k in THRESHOLDS},
        "passed": not failed,
        "timings_s": {
            "solve": t_solve - t_start,
            "total": time.perf_counter() - t_start,
        },
    }
    report_path = out / outputs.get("report", "report.json")
    _write_text(report_path, json.dumps(report, indent=2, sort_keys=True) + "\n")
    eig_path = out / outputs.get("eigenfunction", "eigenfunction.csv")
    _write_csv(
        eig_path,
        ["index", "node", "weight", "eigenfunction", "left_density"],
        "%d,%.17g,%.17g,%.17g,%.17g",
        zip(
            range(kernel.size),
            kernel.space.nodes.tolist(),
            kernel.space.weights.tolist(),
            result.eigenfunction.values.tolist(),
            result.left_row.density.tolist(),
        ),
    )
    if curve is not None:
        _write_dcurve(out / outputs["dcurve"], *curve)
    click.echo(
        f"lambda0 = {result.lambda0:.12g}  (oracle delta "
        f"{residuals['oracle_delta_rel']:.3e}, gap ratio {dominance.gap_ratio:.6g})"
    )
    for name, value in sorted(failed.items()):
        click.echo(
            f"residual over threshold: {name} = {value:.3e} > {THRESHOLDS[name]:.1e}",
            err=True,
        )
    sys.exit(EXIT_OK if not failed else EXIT_NUMERICAL)


def _dcurve_grid(result, radius, points, lam_min=None, lam_max=None) -> np.ndarray:
    """The geometric lambda grid of the D-curve and of the verify scan.  The
    default start is just above ``radius``, a certified upper end of rho(R)
    below lambda0, and at most midway between the two, so the grid starts
    below the root even where rho(R) lies within 0.2 % of it.  A grid must
    rise from a positive start over two points or more."""
    if points < 2:
        raise ConfigError(f"--points must be at least 2, got {points}")
    for name, value in (("--lambda-min", lam_min), ("--lambda-max", lam_max)):
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    norm = result.evaluator.operator_norm
    if lam_min is None:
        lam_min = min(radius * 1.001 + 1e-6 * max(norm, 1e-12), 0.5 * (radius + result.lambda0))
    elif not lam_min > 0:
        raise ConfigError(f"--lambda-min must be positive, got {lam_min:.12g}")
    if lam_max is None:
        lam_max = 2.0 * max(norm, lam_min * 1.5)
    elif not lam_min < lam_max:
        raise ConfigError(f"--lambda-min must be below --lambda-max, "
                          f"got {lam_min:.12g} >= {lam_max:.12g}")
    return np.geomspace(lam_min, lam_max, points)


def _write_dcurve(path: Path, grid, values, slopes):
    """Write D and D' on ``grid``; returns the first grid interval on
    which D changes sign from negative, or None."""
    _write_csv(
        path,
        ["lambda", "D", "D_prime"],
        "%.17g,%.17g,%.17g",
        zip(grid.tolist(), values.tolist(), slopes.tolist()),
    )
    for i in range(1, len(values)):
        if values[i - 1] < 0 <= values[i]:
            return grid[i - 1], grid[i]
    return None


@main.command()
@click.option("--config", "config_path", required=True)
@click.option("--lambda-min", type=float, default=None)
@click.option("--lambda-max", type=float, default=None)
@click.option("--points", type=int, default=200)
@click.option("--out", "out_flag", default=None)
@_contract
def dcurve(config_path, lambda_min, lambda_max, points, out_flag):
    """Sample the scalar function D and its derivative on a lambda grid."""
    cfg, config_dir, kernel = _prepare(config_path)
    cert = _resolve_certificate(cfg, kernel, config_dir)
    tol = _solver_tol(cfg)
    name = _block(cfg, "outputs").get("dcurve", "dcurve.csv")
    if isinstance(cert, NotMinorizable):
        _echo_fail(EXIT_NOT_MINORIZABLE, str(cert))
    path = _out_dir(out_flag) / name
    # the root and its eigenfunction give the certified start of the grid
    result = solve(kernel, certificate=cert, tol=tol)
    grid = _dcurve_grid(result, _remainder_bracket(result)[1], points, lambda_min, lambda_max)
    values, slopes = result.evaluator.curve(grid)
    bracket = _write_dcurve(path, grid, values, slopes)
    monotone = bool(np.all(np.diff(values) > 0))
    click.echo(f"wrote {path} ({points} points, monotone={monotone})")
    if bracket:
        click.echo(f"sign change bracketed in [{bracket[0]:.12g}, {bracket[1]:.12g}]")
    else:
        click.echo("no sign change in the sampled range", err=True)
    sys.exit(EXIT_OK)


@main.command(name="power-doeblin")
@click.option("--config", "config_path", required=True)
@click.option("--n-max", type=int, default=8)
@click.option("--out", "out_flag", default=None)
@_contract
def power_doeblin(config_path, n_max, out_flag):
    """Search for the smallest power with a strict certificate and
    classify the peripheral spectrum."""
    cfg, _, kernel = _prepare(config_path)
    cert_cfg = _block(cfg, "certificate")
    if "path" in cert_cfg:
        raise ConfigError("power-doeblin searches the powers for its own certificate; "
                          "a certificate 'path' does not apply")
    strategy = _strategy(cert_cfg)
    tol = _solver_tol(cfg)
    # the report is text, always power_doeblin.txt: outputs.report names
    # the JSON report of solve, but the block must still be an object
    _block(cfg, "outputs")
    if n_max < 1:
        raise ConfigError(f"--n-max must be at least 1, got {n_max}")
    report = power_doeblin_analyze(kernel, n_max=n_max, strategy=strategy, tol=tol)
    lines = [
        f"power-Doeblin certificate found at N = {report.power}",
        f"spectral radius rho = {report.rho:.12g}",
        f"candidates (N-th roots): "
        + ", ".join(f"{c:.6g}" for c in report.roots_of_unity_candidates),
        f"peripheral eigenvalues: "
        + ", ".join(f"{c:.6g}" for c in report.peripheral_candidates),
        f"dominant eigenvalue of the N-th power simple: {report.simple}",
        f"second modulus: {report.second_modulus:.12g}",
        f"rank-one projection defect: {report.rank_one_defect:.3e}",
    ]
    text = "\n".join(lines)
    click.echo(text)
    out = _out_dir(out_flag)
    _write_text(out / "power_doeblin.txt", text + "\n")
    sys.exit(EXIT_OK)


@main.command()
@click.option("--config", "config_path", required=True)
@click.option("--out", "out_flag", default=None)
@_contract
def verify(config_path, out_flag):
    """Run the invariant battery applicable to the configured kernel."""
    cfg, config_dir, kernel = _prepare(config_path)
    cert = _resolve_certificate(cfg, kernel, config_dir)
    tol = _solver_tol(cfg)
    seed = _number(cfg, "seed", "seed", default=DEFAULT_SEED, integer=True)
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    checks = []

    def record(name, passed, detail):
        checks.append((name, bool(passed), detail))
        click.echo(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")

    if isinstance(cert, NotMinorizable):
        record("doeblin_minorization_n1", False, f"{cert} (expected for kernels with zeros)")
        report = power_doeblin_analyze(kernel, strategy=_strategy(_block(cfg, "certificate")),
                                       tol=tol)
        record(
            "power_doeblin_certificate",
            True,
            f"N = {report.power}, rho = {report.rho:.12g}, "
            f"peripheral = {[f'{c:.6g}' for c in report.peripheral_candidates]}",
        )
        # the residuals of the T^N solve, and the eigen-residual of its
        # eigenfunction on T itself, relative to ||T||_inf as in ``solve``
        diagnostics = report.power_result.diagnostics
        for name in ("eig_residual", "left_residual"):
            value = getattr(diagnostics, name)
            record(f"power_{name}", value <= THRESHOLDS[name], f"{value:.3e} on T^{report.power}")
        on_t = _relative_residual(kernel, report.rho, report.power_result.eigenfunction.values)
        record("power_eig_residual_on_T", on_t <= THRESHOLDS["eig_residual"], f"{on_t:.3e}")
        ok = all(p for name, p, _ in checks if name != "doeblin_minorization_n1")
        sys.exit(EXIT_OK if ok else EXIT_NUMERICAL)
    cert_report = verify_certificate(kernel, cert)
    record(
        "certificate_holds",
        cert_report.holds,
        f"worst slack {cert_report.worst_slack:.3e}, strict phi {cert_report.strict_phi}",
    )
    result = solve(kernel, certificate=cert, tol=tol)
    lam, ev = result.lambda0, result.evaluator
    defect = ev.split.reconstruction_defect()
    record(
        "split_reconstruction",
        defect <= 1e-12 * max(1.0, kernel.max_entry),
        f"max defect {defect:.3e}",
    )
    record(
        "positivity_improving",
        positivity_improving_check(kernel, cert),
        "entrywise: K > 0 and K >= alpha profile x density",
    )
    residuals, _ = _residuals(kernel, result)
    for name in ("eig_residual", "proj_idempotency", "left_residual"):
        record(name, residuals[name] <= THRESHOLDS[name], f"{residuals[name]:.3e}")
    delta = residuals["oracle_delta_rel"]
    record("oracle_agreement", delta <= THRESHOLDS["oracle_delta_rel"],
           f"relative delta {delta:.3e}")

    grid = _dcurve_grid(result, _remainder_bracket(result)[1], 64)
    # the scan, the finite-difference probes and lambda0 are one grid, so
    # one factorization serves all of them
    probes = np.array([lam * 1.5, lam * 3.0])
    h = 1e-5 * probes
    m = grid.size
    dvals, slopes = ev.curve(np.concatenate([grid, probes - h, probes + h, probes, [lam]]))
    record("bs_monotone", bool(np.all(np.diff(dvals[:m]) > 0)), "64-point geometric scan")
    sign_changes = int(np.sum(np.diff(np.sign(dvals[:m])) != 0))
    record("bs_single_root", sign_changes == 1, f"{sign_changes} sign change(s)")
    # each bound is the larger of a fixed one and the rounding floor of
    # its comparison: where D' is small against D, rounding in the two
    # D values of a central difference alone exceeds 1e-6 relative
    eps = np.finfo(float).eps
    fds = (dvals[m + 2 : m + 4] - dvals[m : m + 2]) / (2 * h)
    for probe, step, fd, d, an in zip(probes, h, fds, dvals[m + 4 : m + 6],
                                      slopes[m + 4 : m + 6]):
        rel = abs(fd - an) / abs(an)
        bound = max(1e-6, eps * abs(d) / (step * abs(an)))
        record(f"bs_derivative_at_{probe:.6g}", rel <= bound, f"fd mismatch {rel:.3e}")
    # the curve against the pointwise solves that found the root and
    # scaled the residue; the solve left lambda0 cached, so this costs no
    # new shift.  Both may read the kernel's compression, but the
    # pointwise side is refined against the float64 residual from R's own
    # entries: that residual certifies it, not the compression, so a
    # wrong compression shows here.  A solve at condition number kappa
    # carries a relative error of about kappa * eps: D takes one solve, D'
    # two.
    d_lu, dp_lu = ev.value(lam), ev.derivative(lam)
    kappa_eps = ev.condition(lam) * eps
    d_gap = abs(dvals[-1] - d_lu)
    dp_gap = abs(slopes[-1] - dp_lu) / abs(dp_lu)
    record(
        "bs_curve_matches_lu",
        d_gap <= max(1e-9, kappa_eps * abs(1.0 - d_lu))
        and dp_gap <= max(1e-9, 2.0 * kappa_eps),
        f"at lambda0: D gap {d_gap:.3e}, D' relative gap {dp_gap:.3e}",
    )

    lam_test = 2.0 * ev.operator_norm
    probes = np.random.default_rng(seed).uniform(0.0, 1.0, (kernel.size, PROBES)) - 0.5
    ident = probe_resolvent_identity(ev.split, lam_test, probes)
    record(
        "kernel_resolvent_identity",
        ident.relative_residual <= 1e-9,
        f"relative residual {ident.relative_residual:.3e} at lambda = {lam_test:.6g}",
    )

    rng = np.random.default_rng(seed)
    h = GridFunction(1.0 + rng.uniform(0.0, 1.0, kernel.size), kernel.space)
    mc = MeasureChange(h, 2.0)
    conj = conjugate_kernel(kernel, mc)
    # the isometry carries the eigenpair to (lambda0, h^(1/2) w), and a
    # positive eigenvector belongs only to the Perron root: its residual
    # checks the conjugate, where a second solve would repeat S = W^1/2 K W^1/2
    invariance = _relative_residual(conj, lam, mc.row_factor() * result.eigenfunction.values)
    record("measure_change_invariance", invariance <= 1e-8, f"eigen-residual {invariance:.3e}")
    schur = transform_schur(tight_schur_bound(kernel), mc)
    schur_report = verify_schur(conj, schur)
    record(
        "measure_change_schur",
        schur_report.holds,
        f"row {schur_report.max_row_ratio:.9f}, col {schur_report.max_col_ratio:.9f}",
    )

    if kernel.space.kind == "interval" and kernel.size >= 50:
        span = kernel.space.nodes[-1] - kernel.space.nodes[0]
        mid = 0.5 * (kernel.space.nodes[0] + kernel.space.nodes[-1])
        widths = (0.2 * span, 0.1 * span)
        # on T times the power of two of ||T||_inf, exact: no power of T
        # over- or underflows, and the slack below is relative
        unit = _pow2_scale(ev.operator_norm)
        unit_kernel = kernel
        if unit != 1.0:
            # frozen, so the Kernel shares the product and does not copy it
            entries = unit * kernel.entries
            entries.flags.writeable = False
            unit_kernel = Kernel(entries, kernel.space)
        study = convergence_study(unit_kernel, mid, mid, widths, 3)
        record(
            "mollified_convergence",
            study.errors[1] <= study.errors[0] + 1e-12,
            f"errors {study.errors[0]:.3e} -> {study.errors[1]:.3e}",
        )
    ok = all(p for _, p, _ in checks)
    sys.exit(EXIT_OK if ok else EXIT_NUMERICAL)


if __name__ == "__main__":
    main()
