import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import perron as pr
import perron.cli
import perron.doeblin
import perron.kernel_op
import perron.mollified
import perron.resolvent
from perron.cli import main
from perron.errors import IllConditionedError
from conftest import count_calls, perturb_top_value, remainder_radius, save_certificate


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture
def runner():
    return CliRunner()


def write_config(path, payload):
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


@pytest.fixture
def constant_config(tmp_path):
    return write_config(
        tmp_path / "constant.json",
        {
            "kernel": {"family": "constant", "c": 1.0},
            "space": {"kind": "interval", "a": 0.0, "b": 1.0, "n": 64, "rule": "midpoint"},
            "certificate": {"strategy": "row_min"},
            "solver": {"mode": "direct_lu", "tol": 1e-12},
            "outputs": {
                "report": "report.json",
                "eigenfunction": "eigenfunction.csv",
                "dcurve": "dcurve.csv",
            },
        },
    )


def gaussian_config(n):
    return {
        "kernel": {"family": "gaussian", "sigma": 0.35},
        "space": {"kind": "interval", "a": 0.0, "b": 1.0, "n": n, "rule": "midpoint"},
        "certificate": {"strategy": "row_min"},
        "solver": {"mode": "direct_lu", "tol": 1e-12},
        "outputs": {"report": "report.json", "eigenfunction": "eigenfunction.csv",
                    "dcurve": "dcurve.csv"},
    }


def close_radius_config(path):
    """Gaussian sigma = 0.1 at n = 200: rho(R) / lambda0 = 0.9999992."""
    payload = gaussian_config(200)
    payload["kernel"]["sigma"] = 0.1
    return write_config(path, payload)


@pytest.fixture
def chain_config(tmp_path):
    (tmp_path / "chain.csv").write_text("0,1\n0.5,0.5\n")
    return write_config(
        tmp_path / "chain.json",
        {
            "kernel": {"family": "csv", "path": "chain.csv"},
            "space": {"kind": "counting", "n": 2},
            "certificate": {"strategy": "row_min"},
        },
    )


# config payloads with a field that is no JSON number, or no integer where
# one is due, and the field the config error names
NUMBER_FIELD_CASES = [
    ({"kernel": {"sigma": True}, "solver": {"tol": True}}, "kernel.sigma"),
    ({"solver": {"tol": True}}, "solver.tol"),
    ({"space": {"a": False, "b": True}}, "space.a"),
    ({"space": {"b": True}}, "space.b"),
    ({"space": {"n": 200.7}}, "space.n"),
    ({"space": {"n": 200.0}}, "space.n"),
    ({"space": {"n": "200"}}, "space.n"),
    ({"space": {"kind": "counting", "n": True}}, "space.n"),
    ({"kernel": {"sigma": "0.3"}}, "kernel.sigma"),
    ({"kernel": {"family": "constant", "c": True}}, "kernel.c"),
    ({"kernel": {"family": "constant", "c": "2"}}, "kernel.c"),
    ({"solver": {"tol": "1e-12"}}, "solver.tol"),
    ({"seed": True}, "seed"),
    ({"seed": 3.5}, "seed"),
]


class TestSolveCommand:
    def test_constant_kernel_exit_zero(self, runner, constant_config, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, ["solve", "--config", constant_config, "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert report["lambda0"] == pytest.approx(1.0, abs=1e-10)
        assert report["passed"] is True
        assert report["spectral_gap"]["second_radius"] <= 1e-8
        assert report["spectral_gap"]["route"] == "dense"
        # every reported residual was computed: no placeholder zeros for
        # the series when it ran (constant kernel: ratio 0, so it runs)
        assert "series_vs_residue" in report["residuals"]

    def test_csv_matrix_lambda0(self, runner, tmp_path):
        (tmp_path / "m.csv").write_text("2,1\n1,2\n")
        cfg = write_config(
            tmp_path / "m.json",
            {
                "kernel": {"family": "csv", "path": "m.csv"},
                "space": {"kind": "counting", "n": 2},
            },
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["solve", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert report["lambda0"] == pytest.approx(3.0, abs=1e-10)

    def test_gaussian_oracle_delta_reported(self, runner, tmp_path):
        cfg = write_config(
            tmp_path / "g.json",
            {
                "kernel": {"family": "gaussian", "sigma": 0.2},
                "space": {"kind": "interval", "a": 0.0, "b": 1.0, "n": 200, "rule": "midpoint"},
            },
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["solve", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert report["residuals"]["oracle_delta_rel"] <= 1e-8
        assert report["residuals"]["series_vs_residue"] <= 1e-8
        # sigma = 0.2 at n = 200 has a compression, which gives the second
        # radius; the residual of its eigenpair against P is reported
        assert report["spectral_gap"]["route"] == "compression"
        assert report["spectral_gap"]["residual"] <= 1e-8

    def test_near_degenerate_gap_omits_series_residual(self, runner, tmp_path):
        # an intentionally feeble certificate pushes the remainder radius
        # within ppm of the root; the series residual must be omitted from
        # the report rather than faked or ground out
        cert = {"alpha": 1e-6, "power": 1, "profile": [1.0] * 4, "density": [0.25] * 4}
        (tmp_path / "weak.json").write_text(json.dumps(cert))
        cfg = write_config(
            tmp_path / "c.json",
            {
                "kernel": {"family": "constant", "c": 1.0},
                "space": {"kind": "counting", "n": 4},
                "certificate": {"path": "weak.json"},
            },
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["solve", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert report["lambda0"] == pytest.approx(4.0, abs=1e-9)
        assert "series_vs_residue" not in report["residuals"]

    def test_series_beyond_its_term_budget_is_omitted_early(self, runner, tmp_path, monkeypatch):
        # sigma = 0.15 at n = 200: rho(R) / lambda0 = 0.99878, so a tail of
        # 1e-12 needs more than the 20,000 terms of the budget; the series
        # sees that from its own ratios within a few terms
        matvecs = []
        real_series, real_matvec = perron.cli.eigenfunction_series, pr.Kernel.matvec

        def counted(self, x):
            matvecs.append(1)
            return real_matvec(self, x)

        def series(*args, **kwargs):
            monkeypatch.setattr(pr.Kernel, "matvec", counted)
            try:
                return real_series(*args, **kwargs)
            finally:
                monkeypatch.setattr(pr.Kernel, "matvec", real_matvec)

        monkeypatch.setattr(perron.cli, "eigenfunction_series", series)
        cfg = write_config(tmp_path / "g.json", {
            "kernel": {"family": "gaussian", "sigma": 0.15},
            "space": {"kind": "interval", "a": 0.0, "b": 1.0, "n": 200, "rule": "midpoint"},
        })
        out = tmp_path / "out"
        result = runner.invoke(main, ["solve", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert "series_vs_residue" not in report["residuals"]
        assert 0 < len(matvecs) < 200

    def test_solve_product_budget_on_the_benchmark_shape(self, runner, tmp_path, monkeypatch):
        # sigma = 0.35 at n = 600, the shape of the cli_config benchmark: 44
        # kernel product columns with BLAS on one thread, 45 on two,
        # besides the compression's 42 (26 + 16): the series 15, the oracle
        # 14, the Collatz-Wielandt brackets of lambda0 3 and of rho(R) 3 (4
        # on two threads, where dsymv sums in another order), the
        # evaluator's row and column sums 2, the refinement at the root 4,
        # the solve's residuals 2 and growth_radius 1, which takes
        # ||T||_inf from the evaluator.  The bracket of rho(R) took 21 from
        # the eigenfunction, where it now starts from the Perron vector of
        # R's compression; growth_radius took 28 through ARPACK, and the
        # compression 74 with one block of 32 columns
        columns = {"compression": 0, "other": 0}
        where = ["other"]
        real_product, real_compress = pr.Kernel.product, perron.kernel_op.compress_symmetric

        def counted(self, x):
            columns[where[-1]] += 1 if x.ndim == 1 else x.shape[1]
            return real_product(self, x)

        def compress(kernel):
            where.append("compression")
            try:
                return real_compress(kernel)
            finally:
                where.pop()

        monkeypatch.setattr(pr.Kernel, "product", counted)
        monkeypatch.setattr(perron.kernel_op, "compress_symmetric", compress)
        cfg = write_config(tmp_path / "g.json", {
            "kernel": {"family": "gaussian", "sigma": 0.35},
            "space": {"kind": "interval", "a": 0.0, "b": 1.0, "n": 600, "rule": "midpoint"},
        })
        result = runner.invoke(main, ["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        assert columns["other"] <= 45, columns
        assert columns["compression"] == 42

    @pytest.mark.parametrize("c", [1e-300, 1e-6, 1e300])
    def test_scaled_kernel_passes_every_check(self, runner, tmp_path, c):
        # the checks are relative: c K passes where K does, and its curve
        # neither over- nor underflows
        kernel = pr.gaussian_kernel(pr.make_interval_space(0, 1, 200, "midpoint"), 0.35)
        np.savetxt(tmp_path / "k.csv", c * kernel.entries, delimiter=",", fmt="%.17g")
        cfg = write_config(tmp_path / "k.json", {
            "kernel": {"family": "csv", "path": "k.csv"},
            "space": {"kind": "interval", "a": 0.0, "b": 1.0, "n": 200, "rule": "midpoint"},
            "outputs": {"dcurve": "dcurve.csv"},
        })
        out = tmp_path / "out"
        result = runner.invoke(main, ["solve", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        reference = np.linalg.eigvalsh(kernel.operator_matrix()).max()
        assert report["lambda0"] == pytest.approx(c * reference, rel=1e-12)
        rows = np.loadtxt(out / "dcurve.csv", delimiter=",", skiprows=1)
        assert np.all(np.isfinite(rows)) and rows[0, 1] < 0 < rows[-1, 1]

    def test_report_brackets_the_remainder_radius_below_lambda0(self, runner, tmp_path):
        cfg = write_config(tmp_path / "g.json", gaussian_config(200))
        out = tmp_path / "out"
        result = runner.invoke(main, ["solve", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        lo, hi = report["remainder_radius_bracket"]
        kernel = pr.gaussian_kernel(pr.make_interval_space(0, 1, 200, "midpoint"), 0.35)
        rho = remainder_radius(pr.solve(kernel).evaluator)
        assert lo * (1 - 1e-12) <= rho <= hi * (1 + 1e-12)
        assert hi < report["lambda0"]
        # and the Collatz-Wielandt bracket of lambda0 from the solve's T w
        lo, hi = report["lambda0_bracket"]
        assert lo <= np.linalg.eigvalsh(kernel.operator_matrix()).max() <= hi

    def test_not_minorizable_exit_two(self, runner, chain_config, tmp_path):
        result = runner.invoke(
            main, ["solve", "--config", chain_config, "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 2
        assert "power-doeblin" in result.output

    def test_broken_certificate_exit_three(self, runner, tmp_path, constant_config):
        cert = {"alpha": 99.0, "power": 1, "profile": [1.0] * 64, "density": [1.0] * 64}
        (tmp_path / "bad_cert.json").write_text(json.dumps(cert))
        cfg = json.loads((tmp_path / "constant.json").read_text())
        cfg["certificate"] = {"path": "bad_cert.json"}
        path = write_config(tmp_path / "broken.json", cfg)
        result = runner.invoke(main, ["solve", "--config", path, "--out", str(tmp_path / "o")])
        assert result.exit_code == 3

    def test_config_error_exit_one(self, runner, tmp_path, constant_config):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = runner.invoke(main, ["solve", "--config", str(bad)])
        assert result.exit_code == 1
        cfg = write_config(tmp_path / "nokernel.json", {"space": {"kind": "counting", "n": 2}})
        result = runner.invoke(main, ["solve", "--config", cfg])
        assert result.exit_code == 1
        # bad values of the certificate, solver and outputs blocks, per command
        # that reads them; a block that is not an object is a bad value too
        base = json.loads(Path(constant_config).read_text())
        every = ("solve", "verify", "dcurve")
        cases = [
            ("certificate", {"strategy": "bogus"}, every),
            ("certificate", {"strategy": "user"}, every),
            ("certificate", "row_min", every),
            ("solver", {"tol": "abc"}, every),
            ("solver", {"tol": 1e-14}, every),
            ("solver", {"mode": "bogus"}, every),
            ("solver", {"mode": "neumann"}, every),
            ("solver", 5, every),
            ("outputs", ["report.json"], ("solve", "dcurve")),
            ("seed", "abc", ("verify",)),
            ("seed", [1], ("verify",)),
        ]
        for i, (block, value, commands) in enumerate(cases):
            path = write_config(tmp_path / f"case{i}.json", {**base, block: value})
            for command in commands:
                result = runner.invoke(
                    main, [command, "--config", path, "--out", str(tmp_path / "o")]
                )
                assert result.exit_code == 1, (block, value, command, result.output)
                assert "config error" in result.output
                assert isinstance(result.exception, SystemExit)
                if isinstance(value, dict) and value.get("mode") == "neumann":
                    assert "removed" in result.output
        path = write_config(tmp_path / "list.json", [base])
        for command in every:
            result = runner.invoke(main, [command, "--config", path])
            assert result.exit_code == 1 and "config error" in result.output

    @pytest.mark.parametrize("command, changes, field", [
        (command, changes, field)
        for changes, field in NUMBER_FIELD_CASES
        # solve reads no seed
        for command in ("solve", "verify") if field != "seed" or command == "verify"
    ])
    def test_config_numbers_must_be_json_numbers(self, runner, tmp_path, command, changes, field):
        # Python reads true as 1, "0.3" as 0.3 and 200.7 nodes as 200; JSON
        # does not, and neither does the config: a bool, a string or a
        # fraction where an integer is due exits 1 naming the field
        cfg = gaussian_config(40)
        for block, value in changes.items():
            cfg[block] = {**cfg[block], **value} if isinstance(value, dict) else value
        path = write_config(tmp_path / "c.json", cfg)
        result = runner.invoke(main, [command, "--config", path, "--out", str(tmp_path / "o")])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith(f"config error: {field} must be ")

    @pytest.mark.parametrize("block, value, message", [
        ("space", {"kind": "interval", "b": 1.0, "n": 8}, "bad space config: 'a'"),
        ("space", {"kind": "sphere", "n": 8}, "unknown space kind 'sphere'"),
        ("kernel", {"family": "bessel"}, "unknown kernel family 'bessel'"),
    ])
    def test_unknown_space_or_kernel_exit_one(self, runner, tmp_path, constant_config,
                                              block, value, message):
        cfg = {**json.loads(Path(constant_config).read_text()), block: value}
        path = write_config(tmp_path / "bad.json", cfg)
        result = runner.invoke(main, ["solve", "--config", path, "--out", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == f"config error: {message}\n"

    def test_certificate_file_with_a_blind_functional_exit_two(self, runner, tmp_path):
        (tmp_path / "m.csv").write_text("2,1\n1,2\n")
        sp = pr.make_counting_space(2)
        k = pr.kernel_from_csv(tmp_path / "m.csv", sp)
        save_certificate(pr.extract_minorization(k, "user", [1.0, 1.0], [0.0, 1.0]),
                         tmp_path / "cert.json")
        cfg = write_config(tmp_path / "m.json", {
            "kernel": {"family": "csv", "path": "m.csv"},
            "space": {"kind": "counting", "n": 2},
            "certificate": {"path": "cert.json"},
        })
        result = runner.invoke(main, ["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert result.output == (
            "not minorizable: root finding requires a strictly positive functional\n"
        )

    def test_csv_dimension_mismatch_exit_one(self, runner, tmp_path):
        (tmp_path / "m.csv").write_text("1,2\n3,4\n")
        cfg = write_config(
            tmp_path / "m.json",
            {"kernel": {"family": "csv", "path": "m.csv"}, "space": {"kind": "counting", "n": 3}},
        )
        result = runner.invoke(main, ["solve", "--config", cfg])
        assert result.exit_code == 1

    def test_wrong_length_certificate_exit_one(self, runner, tmp_path, constant_config):
        cert = {"alpha": 1.0, "power": 1, "profile": [1.0] * 3, "density": [1.0] * 3}
        (tmp_path / "short.json").write_text(json.dumps(cert))
        cfg = json.loads((tmp_path / "constant.json").read_text())
        cfg["certificate"] = {"path": "short.json"}
        path = write_config(tmp_path / "shortcfg.json", cfg)
        result = runner.invoke(main, ["solve", "--config", path])
        assert result.exit_code == 1

    @pytest.mark.parametrize("command", ["solve", "dcurve", "verify"])
    def test_power_two_certificate_exit_one(self, runner, tmp_path, command):
        (tmp_path / "m.csv").write_text("2,1\n1,2\n")
        cert = {"alpha": 1.0, "power": 2, "profile": [1.0, 1.0], "density": [1.0, 1.0]}
        (tmp_path / "cert.json").write_text(json.dumps(cert))
        cfg = write_config(tmp_path / "m.json", {
            "kernel": {"family": "csv", "path": "m.csv"},
            "space": {"kind": "counting", "n": 2},
            "certificate": {"path": "cert.json"},
        })
        result = runner.invoke(main, [command, "--config", cfg, "--out", str(tmp_path / "o")])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("config error: certificate ")
        assert "has power 2" in result.output and "perron power-doeblin" in result.output

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize("payload, field", [
        ([1, 2], "JSON object"),
        ({"alpha": None}, "alpha"),
        ({"power": None}, "power"),
        ({"power": 1.5}, "power"),
        ({"power": True}, "power"),
        ({"profile": {"x": 1.0}}, "profile"),
        ({"alpha": 10**400}, "too large"),
    ])
    def test_malformed_certificate_file_exit_one(self, runner, tmp_path, command,
                                                 payload, field):
        (tmp_path / "m.csv").write_text("2,1\n1,2\n")
        cert = {"alpha": 1.0, "power": 1, "profile": [1.0, 1.0], "density": [0.5, 0.5]}
        if isinstance(payload, dict):
            payload = {**cert, **payload}
        (tmp_path / "cert.json").write_text(json.dumps(payload))
        cfg = write_config(tmp_path / "m.json", {
            "kernel": {"family": "csv", "path": "m.csv"},
            "space": {"kind": "counting", "n": 2},
            "certificate": {"path": "cert.json"},
        })
        result = runner.invoke(main, [command, "--config", cfg, "--out", str(tmp_path / "o")])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert result.output.startswith("config error: cannot load certificate ")
        assert field in result.output

    def test_residual_over_threshold_exits_three(self, runner, tmp_path, monkeypatch):
        monkeypatch.setitem(perron.cli.THRESHOLDS, "eig_residual", 0.0)
        cfg = write_config(tmp_path / "g.json", gaussian_config(64))
        out = tmp_path / "out"
        result = runner.invoke(main, ["solve", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        over = [line for line in result.output.splitlines()
                if line.startswith("residual over threshold: ")]
        assert len(over) == 1 and over[0].startswith("residual over threshold: eig_residual = ")
        assert over[0].endswith(" > 0.0e+00")
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is False

    def test_out_dir_from_environment(self, runner, constant_config, tmp_path, monkeypatch):
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv("PERRON_OUT", str(env_dir))
        result = runner.invoke(main, ["solve", "--config", constant_config])
        assert result.exit_code == 0, result.output
        assert (env_dir / "report.json").exists()

    def test_byte_identical_reruns(self, runner, constant_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            result = runner.invoke(main, ["solve", "--config", constant_config, "--out", str(out)])
            assert result.exit_code == 0
        assert (out_a / "eigenfunction.csv").read_bytes() == (out_b / "eigenfunction.csv").read_bytes()
        assert (out_a / "dcurve.csv").read_bytes() == (out_b / "dcurve.csv").read_bytes()

    def test_rerun_with_shorter_output_leaves_no_stale_tail(self, runner, tmp_path):
        # outputs are overwritten in place: same inode, mode and symlink.  The
        # long config carries a 31-digit seed, which solve ignores and
        # report.json echoes, so the rerun's report is shorter whatever its
        # timings and its rounding-level residuals, each of which prints as
        # 0.0 or as up to 22 characters
        long_payload = gaussian_config(60)
        long_payload["seed"] = 2**100
        long_cfg = write_config(tmp_path / "long.json", long_payload)
        short_cfg = write_config(tmp_path / "short.json", gaussian_config(12))
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert runner.invoke(main, ["solve", "--config", long_cfg, "--out", str(out)]).exit_code == 0
        (out / "dcurve.csv").rename(tmp_path / "curve.csv")
        (out / "dcurve.csv").symlink_to(tmp_path / "curve.csv")
        (out / "eigenfunction.csv").chmod(0o600)
        sizes = {name: (out / name).stat().st_size for name in ("report.json", "eigenfunction.csv")}
        inodes = {name: (out / name).stat().st_ino for name in sizes}
        for target in (out, fresh):
            result = runner.invoke(main, ["solve", "--config", short_cfg, "--out", str(target)])
            assert result.exit_code == 0, result.output
        assert all((out / name).stat().st_size < size for name, size in sizes.items())
        for name in ("eigenfunction.csv", "dcurve.csv"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes()
        reports = [json.loads((d / "report.json").read_text()) for d in (out, fresh)]
        for report in reports:
            report.pop("timings_s")
        assert reports[0] == reports[1]
        assert {name: (out / name).stat().st_ino for name in inodes} == inodes
        assert (out / "eigenfunction.csv").stat().st_mode & 0o777 == 0o600
        assert (out / "dcurve.csv").is_symlink()

    def test_dcurve_output_takes_one_factorization(self, runner, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, perron.resolvent, "lu_factor")
        cfg = write_config(tmp_path / "g.json", gaussian_config(100))
        result = runner.invoke(main, ["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert result.exit_code == 0, result.output
        assert len((tmp_path / "o" / "dcurve.csv").read_text().splitlines()) == 201
        assert len(calls) <= 1

    def test_dcurve_starts_below_lambda0_when_the_radius_is_close(self, runner, tmp_path):
        # sigma = 0.1 at n = 200: rho(R) / lambda0 = 0.9999992, so a grid
        # from 1.001 rho(R) lay wholly above lambda0 and held no root
        cfg = close_radius_config(tmp_path / "g.json")
        result = runner.invoke(main, ["solve", "--config", cfg, "--out", str(tmp_path / "s")])
        assert result.exit_code == 0, result.output
        lam = json.loads((tmp_path / "s" / "report.json").read_text())["lambda0"]
        rows = np.loadtxt(tmp_path / "s" / "dcurve.csv", delimiter=",", skiprows=1)
        assert rows[0, 0] < lam and rows[0, 1] < 0 < rows[-1, 1]
        result = runner.invoke(main, ["dcurve", "--config", cfg, "--out", str(tmp_path / "d")])
        assert result.exit_code == 0, result.output
        assert "sign change bracketed" in result.output
        rows = np.loadtxt(tmp_path / "d" / "dcurve.csv", delimiter=",", skiprows=1)
        assert rows[0, 0] < lam

    def test_separable_expression_kernel(self, runner, tmp_path):
        cfg = write_config(
            tmp_path / "sep.json",
            {
                "kernel": {"family": "separable", "v": "1 + x", "u": "exp(-x)"},
                "space": {"kind": "interval", "a": 0.0, "b": 1.0, "n": 50, "rule": "midpoint"},
                "certificate": {"strategy": "column_profile"},
            },
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["solve", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        # separable kernel: dominant eigenvalue is the pairing integral
        sp = pr.make_interval_space(0, 1, 50, "midpoint")
        expected = float(np.dot(sp.weights, (1 + sp.nodes) * np.exp(-sp.nodes)))
        assert report["lambda0"] == pytest.approx(expected, rel=1e-10)

    def test_expression_rejects_code(self, runner, tmp_path):
        cfg = write_config(
            tmp_path / "evil.json",
            {
                "kernel": {"family": "separable", "v": "__import__('os')", "u": "x"},
                "space": {"kind": "interval", "a": 0.0, "b": 1.0, "n": 10, "rule": "midpoint"},
            },
        )
        result = runner.invoke(main, ["solve", "--config", cfg])
        assert result.exit_code == 1

    def test_report_names_the_curve_route(self, runner, tmp_path):
        cfg = write_config(tmp_path / "g.json", gaussian_config(200))
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            result = runner.invoke(main, ["solve", "--config", cfg, "--out", str(out)])
            assert result.exit_code == 0, result.output
        report = json.loads((outs[0] / "report.json").read_text())
        curve = report["curve"]
        assert curve["route"] == "compressed"
        # sigma = 0.35 meets the probe gate with the first block
        assert curve["rank"] == 16
        assert 0 < curve["probe_bound"] <= 200 * np.finfo(float).eps * report["lambda0"]
        # the compression starts from a fixed seed
        assert (outs[0] / "dcurve.csv").read_bytes() == (outs[1] / "dcurve.csv").read_bytes()

    def test_report_without_a_curve(self, runner, tmp_path):
        out = tmp_path / "out"
        cfg = str(CONFIGS / "separable_growth.json")
        result = runner.invoke(main, ["solve", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert report["curve"] is None
        # a rank-one kernel deflates to rounding; its residual is at rounding too
        assert report["spectral_gap"]["residual"] <= 1e-8


class TestOperationCounts:
    """perron solve then perron verify on the shape of the benchmark's CLI
    workload: one compression of S per command serves the D-curve, the
    verify scan and the mollified study, the conjugate kernel of verify's
    measure-change check builds its own, and no n x n eigensolver runs."""

    def test_one_compression_per_command(self, runner, tmp_path, monkeypatch):
        n = 600
        cfg = write_config(tmp_path / "g.json", gaussian_config(n))
        calls = {
            name: count_calls(monkeypatch, module, name)
            for module, name in (
                (perron.kernel_op, "eigh"),
                (perron.resolvent, "schur"),
                (perron.mollified, "_kernel_powers"),
                (perron.kernel_op, "compress_symmetric"),
            )
        }
        # cumulative: verify builds one for the kernel and one for its
        # symmetric conjugate
        for command, builds in (("solve", 1), ("verify", 3)):
            result = runner.invoke(main, [command, "--config", cfg, "--out", str(tmp_path)])
            assert result.exit_code == 0, result.output
            assert len(calls["compress_symmetric"]) == builds
        for name in ("eigh", "schur"):
            assert (n, n) not in calls[name]
        assert calls["_kernel_powers"] == []
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["curve"]["route"] == "compressed"

    def test_verify_factors_nothing(self, runner, tmp_path, monkeypatch):
        # the p = 2 conjugate of the symmetric kernel is symmetric bit for
        # bit, so its solve takes the compression too
        factored = count_calls(monkeypatch, perron.resolvent, "lu_factor")
        cfg = write_config(tmp_path / "g.json", gaussian_config(600))
        result = runner.invoke(main, ["verify", "--config", cfg])
        assert result.exit_code == 0, result.output
        assert factored == []

    def test_library_solve_builds_one_compression_and_no_lu(self, monkeypatch):
        # from COMPRESSED_SOLVE_MIN_DIM nodes on the compression replaces
        # the factorization of every shift
        builds = count_calls(monkeypatch, perron.kernel_op, "compress_symmetric")
        factored = count_calls(monkeypatch, perron.resolvent, "lu_factor")
        pr.solve(pr.gaussian_kernel(pr.make_interval_space(0, 1, 600, "midpoint"), 0.35))
        assert len(builds) == 1
        assert factored == []

    @pytest.mark.parametrize("command", ["solve", "dcurve"])
    def test_solve_and_dcurve_build_no_remainder(self, runner, tmp_path, monkeypatch, command):
        # the bracket of rho(R) and the series apply R as T - alpha u x phi
        results = []
        real = perron.cli.solve

        def solve(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(perron.cli, "solve", solve)
        cfg = write_config(tmp_path / "g.json", gaussian_config(600))
        result = runner.invoke(main, [command, "--config", cfg, "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        (solved,) = results
        assert "remainder" not in vars(solved.evaluator.split)

    @pytest.mark.parametrize("command, arrays", [("solve", 1.85), ("verify", 3.6)])
    def test_memory_peak(self, runner, tmp_path, command, arrays):
        # tracemalloc peaks in n x n arrays at sigma = 0.35, n = 600: 1.77
        # for solve, K and two n x 200 blocks of the D-curve's solves
        # against 1, where the grid's shifted norms and finiteness mask
        # made 2.09 and the stored remainder 3.09; 3.53 for verify, K, the
        # remainder its cross-checks read and the conjugate kernel, where
        # the reconstruction's and the study's n x n temporaries and the
        # conjugate's copies made 6.15
        n = 600
        cfg = write_config(tmp_path / "g.json", gaussian_config(n))
        args = [command, "--config", cfg, "--out", str(tmp_path)]
        assert runner.invoke(main, args).exit_code == 0
        tracemalloc.start()
        try:
            result = runner.invoke(main, args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.output
        assert peak <= arrays * 8 * n * n

    def test_curve_check_is_independent_of_the_pointwise_solve(
        self, runner, tmp_path, monkeypatch
    ):
        """The curve and the pointwise solves read one compression; a top
        eigenvalue off by 1e-8 relative must show in bs_curve_matches_lu,
        while refinement against R's own entries keeps lambda0."""
        n = 600
        kernel = pr.gaussian_kernel(pr.make_interval_space(0, 1, n, "midpoint"), 0.35)
        exact = pr.solve(kernel).lambda0
        perturb_top_value(monkeypatch, 1e-8)
        assert pr.solve(pr.gaussian_kernel(kernel.space, 0.35)).lambda0 == exact
        cfg = write_config(tmp_path / "g.json", gaussian_config(n))
        result = runner.invoke(main, ["verify", "--config", cfg, "--out", str(tmp_path)])
        assert result.exit_code == 3, result.output
        failed = [line.split(":")[0] for line in result.output.splitlines()
                  if line.startswith("FAIL")]
        assert failed == ["FAIL  bs_curve_matches_lu"]


class TestDcurveCommand:
    def test_constant_kernel_crosses_at_one(self, runner, constant_config, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            [
                "dcurve", "--config", constant_config,
                "--lambda-min", "0.2", "--lambda-max", "3.0",
                "--points", "80", "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        lines = (out / "dcurve.csv").read_text().strip().splitlines()
        assert lines[0].strip() == "lambda,D,D_prime"
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        d_values = [r[1] for r in rows]
        assert all(b > a for a, b in zip(d_values, d_values[1:]))
        sign_changes = sum(
            1 for a, b in zip(d_values, d_values[1:]) if a < 0 <= b
        )
        assert sign_changes == 1
        assert "sign change bracketed" in result.output
        lams = [r[0] for r in rows]
        crossing = next(lam for lam, d in zip(lams, d_values) if d >= 0)
        assert 0.9 < crossing < 1.2

    def test_symmetric_2x2_crosses_at_three(self, runner, tmp_path):
        (tmp_path / "m.csv").write_text("2,1\n1,2\n")
        cfg = write_config(
            tmp_path / "m.json",
            {
                "kernel": {"family": "csv", "path": "m.csv"},
                "space": {"kind": "counting", "n": 2},
                "outputs": {"dcurve": "curve.csv"},
            },
        )
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            [
                "dcurve", "--config", cfg,
                "--lambda-min", "1.5", "--lambda-max", "6.0",
                "--points", "200", "--out", str(out),
            ],
        )
        assert result.exit_code == 0
        assert "bracketed" in result.output
        lines = (out / "curve.csv").read_text().strip().splitlines()[1:]
        rows = [tuple(map(float, line.split(","))) for line in lines]
        below = max(lam for lam, d, _ in rows if d < 0)
        above = min(lam for lam, d, _ in rows if d >= 0)
        assert below < 3.0 <= above

    def test_range_below_the_root_has_no_sign_change(self, runner, constant_config, tmp_path):
        # the constant kernel has R = 0 and lambda0 = 1: the grid starts at
        # 1e-6 and ends below the root
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["dcurve", "--config", constant_config, "--lambda-max", "0.5", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert "no sign change in the sampled range" in result.output
        assert "bracketed" not in result.output
        rows = np.loadtxt(out / "dcurve.csv", delimiter=",", skiprows=1)
        assert rows.shape == (200, 3)
        assert rows[-1, 0] == pytest.approx(0.5) and np.all(rows[:, 1] < 0)

    def test_below_radius_rejected(self, runner, tmp_path):
        (tmp_path / "m.csv").write_text("2,1\n1,2\n")
        cfg = write_config(
            tmp_path / "m.json",
            {
                "kernel": {"family": "csv", "path": "m.csv"},
                "space": {"kind": "counting", "n": 2},
            },
        )
        result = runner.invoke(
            main,
            ["dcurve", "--config", cfg, "--lambda-min", "0.5", "--lambda-max", "4.0",
             "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 3


class TestPowerDoeblinCommand:
    def test_chain(self, runner, chain_config, tmp_path):
        result = runner.invoke(
            main, ["power-doeblin", "--config", chain_config, "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 0, result.output
        assert "N = 2" in result.output
        assert "rho = 1" in result.output

    def test_strictly_positive(self, runner, tmp_path):
        (tmp_path / "m.csv").write_text("2,1\n1,2\n")
        cfg = write_config(
            tmp_path / "m.json",
            {"kernel": {"family": "csv", "path": "m.csv"}, "space": {"kind": "counting", "n": 2}},
        )
        result = runner.invoke(
            main, ["power-doeblin", "--config", cfg, "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 0
        assert "N = 1" in result.output

    def test_permutation_exit_two(self, runner, tmp_path):
        (tmp_path / "perm.csv").write_text("0,1\n1,0\n")
        cfg = write_config(
            tmp_path / "perm.json",
            {"kernel": {"family": "csv", "path": "perm.csv"}, "space": {"kind": "counting", "n": 2}},
        )
        result = runner.invoke(
            main, ["power-doeblin", "--config", cfg, "--n-max", "6", "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 2

    def test_interval_config(self, runner, tmp_path):
        cfg = write_config(tmp_path / "g.json", gaussian_config(20))
        out = tmp_path / "out"
        result = runner.invoke(main, ["power-doeblin", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[0] == "power-Doeblin certificate found at N = 1"
        assert (out / "power_doeblin.txt").read_text() == result.output
        assert not (out / "report.json").exists()

    def test_report_leaves_the_solve_report_alone(self, runner, tmp_path):
        # outputs.report names the JSON report of solve; power-doeblin
        # writes its text to power_doeblin.txt in the same directory
        (tmp_path / "m.csv").write_text("2,1\n1,2\n")
        cfg = write_config(tmp_path / "m.json", {
            "kernel": {"family": "csv", "path": "m.csv"},
            "space": {"kind": "counting", "n": 2},
            "outputs": {"report": "report.json"},
        })
        out = tmp_path / "out"
        for command in ("solve", "power-doeblin"):
            result = runner.invoke(main, [command, "--config", cfg, "--out", str(out)])
            assert result.exit_code == 0, result.output
        assert json.loads((out / "report.json").read_text())["lambda0"] == pytest.approx(3.0)
        assert (out / "power_doeblin.txt").read_text() == result.output

    def test_interval_kernel_with_zeros_follows_the_hint(self, runner, tmp_path):
        path = str(CONFIGS / "banded_interval.json")
        result = runner.invoke(main, ["solve", "--config", path, "--out", str(tmp_path)])
        assert result.exit_code == 2
        hint = f"hint: run 'perron power-doeblin --config {path}' to look for a usable power"
        assert result.output.splitlines()[-1] == hint
        result = runner.invoke(main, ["power-doeblin", "--config", path, "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[:2] == BANDED_REPORT[:2]


class TestVerifyCommand:
    def test_constant_kernel_all_pass(self, runner, constant_config):
        result = runner.invoke(main, ["verify", "--config", constant_config])
        assert result.exit_code == 0, result.output
        assert "FAIL" not in result.output

    def test_chain_reports_finding_then_passes(self, runner, chain_config):
        result = runner.invoke(main, ["verify", "--config", chain_config])
        assert result.exit_code == 0, result.output
        assert "FAIL  doeblin_minorization_n1" in result.output
        assert "PASS  power_doeblin_certificate" in result.output
        assert "N = 2" in result.output

    @pytest.mark.parametrize("name", ["eig_residual", "left_residual"])
    def test_power_route_fails_on_a_residual_of_the_power_solve(
        self, runner, chain_config, monkeypatch, name
    ):
        real = perron.cli.power_doeblin_analyze

        def defective(kernel, **kwargs):
            report = real(kernel, **kwargs)
            result = report.power_result
            diagnostics = dataclasses.replace(result.diagnostics, **{name: 1e-3})
            result = dataclasses.replace(result, diagnostics=diagnostics)
            return dataclasses.replace(report, power_result=result)

        monkeypatch.setattr(perron.cli, "power_doeblin_analyze", defective)
        result = runner.invoke(main, ["verify", "--config", chain_config])
        assert result.exit_code == 3, result.output
        assert f"FAIL  power_{name}: 1.000e-03 on T^2" in result.output
        assert "PASS  power_eig_residual_on_T" in result.output

    def test_power_route_fails_on_the_eigen_residual_on_t(
        self, runner, chain_config, monkeypatch
    ):
        # a vector in place of the eigenfunction that T does not map to rho
        # times itself: the chain's T = [[0, 1], [1/2, 1/2]] and rho = 1 take
        # (1, 2) to (2, 3/2), a residual of 1 / (2 ||T||_inf) = 1/2
        real = perron.cli.power_doeblin_analyze

        def defective(kernel, **kwargs):
            report = real(kernel, **kwargs)
            w = pr.GridFunction(np.array([1.0, 2.0]), kernel.space)
            result = dataclasses.replace(report.power_result, eigenfunction=w)
            return dataclasses.replace(report, power_result=result)

        monkeypatch.setattr(perron.cli, "power_doeblin_analyze", defective)
        result = runner.invoke(main, ["verify", "--config", chain_config])
        assert result.exit_code == 3, result.output
        assert "PASS  power_eig_residual: " in result.output
        assert "FAIL  power_eig_residual_on_T: 5.000e-01" in result.output

    def test_curve_is_checked_against_the_lu_path(self, runner, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, perron.resolvent, "lu_factor")
        cfg = write_config(tmp_path / "g.json", gaussian_config(100))
        result = runner.invoke(main, ["verify", "--config", cfg])
        assert result.exit_code == 0, result.output
        assert "PASS  bs_curve_matches_lu" in result.output
        # one LU for the solve, two for the measure-change solve; the
        # comparison reuses the factorization at lambda0
        assert len(calls) == 3

    def test_kernel_checks_compose_no_kernels(self, runner, monkeypatch):
        # the corrected-kernel recursion and the resolvent identity run on
        # a block of probes; the dense form composed 34 kernels here
        calls = count_calls(monkeypatch, perron.kernel_op, "compose")
        result = runner.invoke(main, ["verify", "--config", str(CONFIGS / "gaussian_interval.json")])
        assert result.exit_code == 0, result.output
        assert "PASS  kernel_resolvent_identity" in result.output
        assert len(calls) == 0

    def test_curve_disagreeing_with_the_lu_path_fails(self, runner, tmp_path, monkeypatch):
        real = perron.resolvent.BirmanSchwingerEvaluator.curve

        def skewed(self, lams):
            d, dp = real(self, lams)
            return d, dp * (1.0 + 1e-8)

        monkeypatch.setattr(perron.resolvent.BirmanSchwingerEvaluator, "curve", skewed)
        cfg = write_config(tmp_path / "g.json", gaussian_config(100))
        result = runner.invoke(main, ["verify", "--config", cfg])
        assert result.exit_code == 3
        assert "FAIL  bs_curve_matches_lu" in result.output
        assert "FAIL  bs_derivative" not in result.output

    def test_scan_starts_below_lambda0_when_the_radius_is_close(self, runner, tmp_path):
        # sigma = 0.1 at n = 200: rho(R) / lambda0 = 0.9999992, so a scan
        # starting at 1.0001 rho(R) lay wholly above lambda0 and saw no
        # sign change
        cfg = close_radius_config(tmp_path / "g.json")
        result = runner.invoke(main, ["verify", "--config", cfg])
        assert "PASS  bs_monotone" in result.output
        assert "PASS  bs_single_root: 1 sign change(s)" in result.output

    def test_close_radius_config_passes(self, runner, tmp_path):
        # sigma = 0.1 at n = 200: D' is small against D at the probes, and
        # lambda0 - R has condition 3e6; the fixed bounds of 1e-6 and 1e-9
        # lay below the rounding floors of the comparisons
        cfg = close_radius_config(tmp_path / "g.json")
        result = runner.invoke(main, ["verify", "--config", cfg])
        assert result.exit_code == 0, result.output
        assert "FAIL" not in result.output

    def test_derivative_defect_at_the_close_radius_fails(self, runner, tmp_path, monkeypatch):
        real = perron.resolvent.BirmanSchwingerEvaluator.curve

        def skewed(self, lams):
            d, dp = real(self, lams)
            return d, dp * (1.0 + 1e-6)

        monkeypatch.setattr(perron.resolvent.BirmanSchwingerEvaluator, "curve", skewed)
        cfg = close_radius_config(tmp_path / "g.json")
        result = runner.invoke(main, ["verify", "--config", cfg])
        assert result.exit_code == 3
        assert "FAIL  bs_curve_matches_lu" in result.output

    def test_one_split_per_kernel(self, runner, tmp_path, monkeypatch):
        # the split of the solve serves the reconstruction check and the
        # probe identity; the conjugate kernel's solve makes the other
        calls = count_calls(monkeypatch, perron.doeblin, "rank_one_split")
        cfg = write_config(tmp_path / "g.json", gaussian_config(64))
        result = runner.invoke(main, ["verify", "--config", cfg])
        assert result.exit_code == 0, result.output
        assert len(calls) == 2

    def test_mollified_study_runs_on_one_scale(self, runner, tmp_path):
        # the study runs on T times the power of two of ||T||_inf, which
        # undoes a power-of-two scale of the kernel exactly, so its powers
        # of T neither overflow nor underflow
        kernel = pr.gaussian_kernel(pr.make_interval_space(0, 1, 200, "midpoint"), 0.35)
        lines = []
        for scale in (1.0, 2.0**996, 2.0**-996):
            np.savetxt(tmp_path / "k.csv", scale * kernel.entries, delimiter=",", fmt="%.17g")
            cfg = write_config(tmp_path / "k.json", {
                "kernel": {"family": "csv", "path": "k.csv"},
                "space": {"kind": "interval", "a": 0.0, "b": 1.0, "n": 200, "rule": "midpoint"},
            })
            result = runner.invoke(main, ["verify", "--config", cfg])
            assert result.exit_code == 0, result.output
            lines.append(result.output.splitlines()[-1])
        assert lines[0].startswith("PASS  mollified_convergence: errors ")
        assert lines[1] == lines[2] == lines[0]

    def test_tiny_kernel_gives_the_same_verdicts(self, runner, tmp_path):
        kernel = pr.gaussian_kernel(pr.make_interval_space(0, 1, 200, "midpoint"), 0.35)
        verdicts = []
        for scale in (1.0, 1e-300):
            np.savetxt(tmp_path / "k.csv", scale * kernel.entries, delimiter=",", fmt="%.17g")
            cfg = write_config(tmp_path / "k.json", {
                "kernel": {"family": "csv", "path": "k.csv"},
                "space": {"kind": "interval", "a": 0.0, "b": 1.0, "n": 200, "rule": "midpoint"},
            })
            result = runner.invoke(main, ["verify", "--config", cfg])
            assert result.exit_code == 0, result.output
            # the derivative probes are named by their shift, which scales
            verdicts.append([line.split(":")[0].split("_at_")[0] for line in
                             result.output.splitlines()])
        assert verdicts[1] == verdicts[0]
        assert "PASS  kernel_resolvent_identity" in verdicts[1]

    def test_random_positive_kernel_passes(self, runner, tmp_path):
        rng = np.random.default_rng(99)
        rows = "\n".join(
            ",".join(f"{v:.17g}" for v in rng.uniform(0.1, 1.1, 12)) for _ in range(12)
        )
        (tmp_path / "r.csv").write_text(rows + "\n")
        cfg = write_config(
            tmp_path / "r.json",
            {"kernel": {"family": "csv", "path": "r.csv"}, "space": {"kind": "counting", "n": 12}},
        )
        result = runner.invoke(main, ["verify", "--config", cfg])
        assert result.exit_code == 0, result.output
        assert "FAIL" not in result.output


def test_import_leaves_scipy_sparse_unloaded():
    # ARPACK is imported where the second radius needs it, not with the CLI
    src = str(Path(perron.kernel_op.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, perron.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def _battery(*middle):
    """The ordered verify checks of an interval config, all passing."""
    names = ["certificate_holds", "split_reconstruction", "positivity_improving",
             "eig_residual", "proj_idempotency", "left_residual", "oracle_agreement",
             "bs_monotone", "bs_single_root", *middle, "bs_curve_matches_lu",
             "kernel_resolvent_identity", "measure_change_invariance",
             "measure_change_schur", "mollified_convergence"]
    return [("PASS", name) for name in names]


CHAIN_REPORT = [
    "power-Doeblin certificate found at N = 2",
    "spectral radius rho = 1",
    "candidates (N-th roots): 1+0j, -1+1.22465e-16j",
    "peripheral eigenvalues: 1+0j",
    "dominant eigenvalue of the N-th power simple: True",
    "second modulus: 0.5",
    "rank-one projection defect: 0.000e+00",
]

# a power-Doeblin report line whose digits are rounding is pinned by a
# pattern: the rank-one defect of any kernel larger than 2 x 2
ROUNDING_DEFECT = re.compile(r"rank-one projection defect: \d\.\d{3}e-1[5-9]")

BANDED_REPORT = [
    "power-Doeblin certificate found at N = 4",
    "spectral radius rho = 0.0865904682685",
    "candidates (N-th roots): 0.0865905+0j, 5.30214e-18+0.0865905j, "
    "-0.0865905+1.06043e-17j, -1.59064e-17-0.0865905j",
    "peripheral eigenvalues: 0.0865905+0j",
    "dominant eigenvalue of the N-th power simple: True",
    "second modulus: 0.0727783667972",
    ROUNDING_DEFECT,
]


def _positive_report(rho):
    """The first five report lines of a strictly positive kernel whose
    spectral radius prints as ``rho``."""
    short = f"{float(rho):.6g}+0j"
    return [
        "power-Doeblin certificate found at N = 1",
        f"spectral radius rho = {rho}",
        f"candidates (N-th roots): {short}",
        f"peripheral eigenvalues: {short}",
        "dominant eigenvalue of the N-th power simple: True",
    ]


# the verdicts of ``verify`` on a kernel with zeros: the power route, judged
# by the residuals of the T^N solve and of its eigenfunction on T
POWER_BATTERY = [
    ("FAIL", "doeblin_minorization_n1"),
    ("PASS", "power_doeblin_certificate"),
    ("PASS", "power_eig_residual"),
    ("PASS", "power_left_residual"),
    ("PASS", "power_eig_residual_on_T"),
]

SHIPPED = [
    ("gaussian_interval", "solve", 0, None),
    ("gaussian_interval", "verify", 0,
     _battery("bs_derivative_at_0.972501", "bs_derivative_at_1.945")),
    ("gaussian_interval", "dcurve", 0, None),
    ("separable_growth", "solve", 0, None),
    ("separable_growth", "verify", 0,
     _battery("bs_derivative_at_1.34454", "bs_derivative_at_2.68909")),
    ("separable_growth", "dcurve", 0, None),
    ("gaussian_interval", "power-doeblin", 0,
     [*_positive_report("0.648334097153"), re.compile(r"second modulus: 0\.2696117193\d*"),
      ROUNDING_DEFECT]),
    ("separable_growth", "power-doeblin", 0,
     # a rank-one kernel: the second modulus is rounding
     [*_positive_report("0.896363209297"), re.compile(r"second modulus: \d\.\d+e-1[5-9]"),
      ROUNDING_DEFECT]),
    ("banded_interval", "solve", 2, None),
    ("banded_interval", "dcurve", 2, None),
    ("banded_interval", "verify", 0, POWER_BATTERY),
    ("banded_interval", "power-doeblin", 0, BANDED_REPORT),
    ("two_state_chain", "solve", 2, None),
    ("two_state_chain", "verify", 0, POWER_BATTERY),
    ("two_state_chain", "power-doeblin", 0, CHAIN_REPORT),
]


class TestPowerDoeblinConfig:
    """``perron power-doeblin`` reads the certificate strategy and the
    solver block like the other commands."""

    @staticmethod
    def chain_config(tmp_path, **blocks):
        cfg = json.loads((CONFIGS / "two_state_chain.json").read_text())
        cfg["kernel"]["path"] = str(CONFIGS / "two_state_chain.csv")
        return write_config(tmp_path / "chain.json", {**cfg, **blocks})

    @pytest.mark.parametrize(
        "blocks",
        [
            {"certificate": {"strategy": "bogus"}},
            {"certificate": {"strategy": "user"}},
            {"certificate": {"path": "cert.json"}},
            {"certificate": "row_min"},
            {"solver": {"tol": "abc"}},
            {"solver": {"tol": 1e-14}},
            {"solver": {"mode": "neumann"}},
            {"solver": 5},
            {"outputs": "power_doeblin.txt"},
        ],
    )
    def test_bad_blocks_exit_one(self, runner, tmp_path, blocks):
        path = self.chain_config(tmp_path, **blocks)
        result = runner.invoke(main, ["power-doeblin", "--config", path, "--out", str(tmp_path)])
        assert result.exit_code == 1, result.output
        assert "config error" in result.output
        assert isinstance(result.exception, SystemExit)

    def test_strategy_and_tol_reach_the_analysis(self, runner, tmp_path, monkeypatch):
        seen = []
        real = perron.cli.power_doeblin_analyze

        def recording(kernel, **kwargs):
            seen.append(kwargs)
            return real(kernel, **kwargs)

        monkeypatch.setattr(perron.cli, "power_doeblin_analyze", recording)
        path = self.chain_config(
            tmp_path, certificate={"strategy": "column_profile"}, solver={"tol": 1e-10}
        )
        result = runner.invoke(main, ["power-doeblin", "--config", path, "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert seen == [{"n_max": 8, "strategy": "column_profile", "tol": 1e-10}]
        assert result.output.splitlines()[:2] == CHAIN_REPORT[:2]

    def test_verify_fallback_reads_strategy_and_tol(self, runner, tmp_path, monkeypatch):
        seen = []
        real = perron.cli.power_doeblin_analyze

        def recording(kernel, **kwargs):
            seen.append(kwargs)
            return real(kernel, **kwargs)

        monkeypatch.setattr(perron.cli, "power_doeblin_analyze", recording)
        path = self.chain_config(
            tmp_path, certificate={"strategy": "column_profile"}, solver={"tol": 1e-10}
        )
        result = runner.invoke(main, ["verify", "--config", path])
        assert result.exit_code == 0, result.output
        assert seen == [{"strategy": "column_profile", "tol": 1e-10}]
        assert "PASS  power_doeblin_certificate: N = 2" in result.output


@pytest.mark.parametrize(
    "name, command, code, expected", SHIPPED, ids=[f"{c[0]}-{c[1]}" for c in SHIPPED]
)
def test_shipped_config_outputs(runner, tmp_path, name, command, code, expected):
    """Exit codes, the ordered verdicts of ``verify`` and the text of
    ``power-doeblin`` on every shipped config stay as they are; a pattern
    stands for a report line whose last digits are rounding."""
    result = runner.invoke(
        main, [command, "--config", str(CONFIGS / f"{name}.json"), "--out", str(tmp_path)]
    )
    assert result.exit_code == code, result.output
    if command == "verify":
        verdicts = [tuple(line.split(":")[0].split()) for line in result.output.splitlines()
                    if line.startswith(("PASS", "FAIL"))]
        assert verdicts == expected
    elif command == "power-doeblin":
        lines = result.output.splitlines()
        assert len(lines) == len(expected), lines
        for line, want in zip(lines, expected):
            assert want.fullmatch(line) if isinstance(want, re.Pattern) else line == want


def _csv_field_by_field(header, rows) -> bytes:
    """The CSV text formatted one field at a time: ``format(v, ".17g")``
    for a float, ``str`` for anything else."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format(v, ".17g") if isinstance(v, float) else str(v) for v in row))
    return ("\r\n".join(lines) + "\r\n").encode()


@pytest.mark.parametrize(
    "header, template, rows",
    [
        (["index", "a", "b", "c", "d"], "%d,%.17g,%.17g,%.17g,%.17g",
         [(0, float("nan"), float("inf"), float("-inf"), -0.0),
          (1, 5e-324, 1e300, -1e300, 0.1),
          (123456789, 1.0 / 3.0, -2.0**60, 0.0, 1.0)]),
        (["lambda", "D", "D_prime"], "%.17g,%.17g,%.17g",
         [(5e-324, -0.0, float("nan")), (np.float64(1e300), float("inf"), -1.5)]),
    ],
)
def test_csv_template_matches_field_by_field_formatting(tmp_path, header, template, rows):
    path = tmp_path / "out.csv"
    perron.cli._write_csv(path, header, template, rows)
    assert path.read_bytes() == _csv_field_by_field(header, rows)


def test_solve_csvs_hold_every_float_to_17_digits(runner, tmp_path):
    # every float field is the .17g text of a float64, and the nodes and
    # weights read back bit for bit
    space = pr.make_interval_space(0, 1, 60, "midpoint")
    cfg = write_config(tmp_path / "g.json", {
        "kernel": {"family": "gaussian", "sigma": 0.35},
        "space": {"kind": "interval", "a": 0.0, "b": 1.0, "n": 60, "rule": "midpoint"},
        "outputs": {"dcurve": "dcurve.csv"},
    })
    result = runner.invoke(main, ["solve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    rows = {}
    for name, width in (("eigenfunction.csv", 5), ("dcurve.csv", 3)):
        lines = (tmp_path / "out" / name).read_bytes().decode().split("\r\n")
        assert lines[-1] == ""
        rows[name] = [line.split(",") for line in lines[1:-1]]
        assert all(len(row) == width for row in rows[name])
        # the eigenfunction's first column is the index
        floats = [field for row in rows[name] for field in row[width == 5:]]
        assert floats == [format(float(field), ".17g") for field in floats]
    index, nodes, weights = list(zip(*rows["eigenfunction.csv"]))[:3]
    assert index == tuple(str(i) for i in range(60))
    assert [float(v) for v in nodes] == space.nodes.tolist()
    assert [float(v) for v in weights] == space.weights.tolist()

@pytest.mark.parametrize(
    "command, args, message",
    [
        ("dcurve", ["--points", "0"], "--points must be at least 2, got 0"),
        ("dcurve", ["--points", "-1"], "--points must be at least 2, got -1"),
        ("dcurve", ["--lambda-min", "0"], "--lambda-min must be positive, got 0"),
        ("dcurve", ["--lambda-min", "-1"], "--lambda-min must be positive, got -1"),
        ("dcurve", ["--lambda-min", "5", "--lambda-max", "1"],
         "--lambda-min must be below --lambda-max, got 5 >= 1"),
        ("dcurve", ["--lambda-min", "2", "--lambda-max", "2"],
         "--lambda-min must be below --lambda-max, got 2 >= 2"),
        ("dcurve", ["--lambda-max", "inf"], "--lambda-max must be finite, got inf"),
        ("dcurve", ["--lambda-min", "inf"], "--lambda-min must be finite, got inf"),
        ("dcurve", ["--lambda-min", "nan"], "--lambda-min must be finite, got nan"),
        ("dcurve", ["--lambda-max", "nan"], "--lambda-max must be finite, got nan"),
        ("power-doeblin", ["--n-max", "0"], "--n-max must be at least 1, got 0"),
        ("verify", [], "seed must be nonnegative, got -1"),
    ],
)
def test_bad_option_values_exit_one(runner, tmp_path, command, args, message):
    """An option or seed value the command cannot use exits 1 with one
    line naming it: no traceback, no numpy warning, no output file."""
    if command == "power-doeblin":
        path = TestPowerDoeblinConfig.chain_config(tmp_path)
    else:
        path = write_config(tmp_path / "g.json", {**gaussian_config(64), "seed": -1})
    out = tmp_path / "out"
    result = runner.invoke(main, [command, "--config", path, "--out", str(out), *args])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output == f"config error: {message}\n"
    assert not out.exists() or not any(out.iterdir())


def test_click_parse_errors_exit_two(runner, tmp_path):
    path = write_config(tmp_path / "g.json", gaussian_config(64))
    result = runner.invoke(main, ["dcurve", "--config", path, "--points", "abc"])
    assert result.exit_code == 2
    assert "Invalid value for '--points'" in result.output


@pytest.mark.parametrize(
    "command, target",
    [
        ("solve", "solve"),
        ("verify", "solve"),
        ("dcurve", "solve"),
        ("power-doeblin", "power_doeblin_analyze"),
    ],
)
def test_numerical_failure_exits_three(runner, tmp_path, monkeypatch, command, target):
    """Every command maps a PerronError raised inside it to exit 3."""

    def fail(*args, **kwargs):
        raise IllConditionedError("injected failure")

    monkeypatch.setattr(perron.cli, target, fail)
    if command == "power-doeblin":
        path = TestPowerDoeblinConfig.chain_config(tmp_path)
    else:
        path = write_config(tmp_path / "g.json", gaussian_config(64))
    result = runner.invoke(main, [command, "--config", path, "--out", str(tmp_path)])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert "numerical failure: injected failure" in result.output
