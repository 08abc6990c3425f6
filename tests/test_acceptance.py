"""Acceptance suite: one test per criterion, one printed line each.

The randomized instance family is fixed by seed: strictly positive
kernels over counting spaces (n between 2 and 50) and interval spaces
(n = 50 and n = 200), solved once and shared across criteria.
"""

import json
import time
from dataclasses import dataclass

import numpy as np
import pytest
from click.testing import CliRunner

import perron as pr
from perron.cli import main as cli_main
import bell_expansion
from conftest import eigenvalues_via_charpoly, remainder_radius

SEED = 20240808


def announce(number, passed, detail):
    print(f"ACCEPTANCE {number:02d} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


@dataclass
class Instance:
    label: str
    kernel: object
    result: object
    oracle_rho: float


def _build_instances():
    rng = np.random.default_rng(SEED)
    specs = []
    for n in (2, 3, 5, 8, 13, 21, 34, 50):
        specs.append((f"counting-{n}", pr.make_counting_space(n), "uniform"))
    for n in rng.integers(2, 51, size=8):
        specs.append((f"counting-{n}r", pr.make_counting_space(int(n)), "uniform"))
    specs.append(("interval-50-uniform", pr.make_interval_space(0, 1, 50, "midpoint"), "uniform"))
    specs.append(("interval-50-gauss", pr.make_interval_space(0, 1, 50, "midpoint"), 0.5))
    specs.append(("interval-200-uniform", pr.make_interval_space(0, 1, 200, "midpoint"), "uniform"))
    specs.append(("interval-200-gauss", pr.make_interval_space(0, 1, 200, "midpoint"), 0.35))
    out = []
    for label, space, fam in specs:
        if fam == "uniform":
            kernel = pr.Kernel(rng.uniform(0.05, 1.05, (space.size, space.size)), space)
        else:
            kernel = pr.gaussian_kernel(space, fam)
        out.append((label, kernel))
    return out


@pytest.fixture(scope="module")
def solved():
    """All randomized instances solved, with the oracle and the wall time."""
    t0 = time.perf_counter()
    instances = []
    for label, kernel in _build_instances():
        result = pr.solve(kernel, tol=1e-12)
        oracle = pr.spectral_radius_oracle(kernel, tol=1e-12)
        instances.append(Instance(label, kernel, result, oracle.rho))
    elapsed = time.perf_counter() - t0
    return instances, elapsed


def test_criterion_01_factorized_root_matches_power_oracle(solved):
    instances, elapsed = solved
    assert len(instances) >= 20
    worst = 0.0
    for inst in instances:
        delta = abs(inst.result.lambda0 - inst.oracle_rho) / inst.result.lambda0
        worst = max(worst, delta)
        assert delta <= 1e-7, f"{inst.label}: oracle delta {delta:.3e}"
    announce(
        1,
        elapsed < 10.0,
        f"{len(instances)} randomized kernels, worst oracle delta {worst:.3e}, "
        f"solve+oracle wall time {elapsed:.2f}s < 10s",
    )


def test_criterion_02_exact_small_cases():
    sp = pr.make_counting_space(2)
    k = pr.Kernel(np.array([[2.0, 1.0], [1.0, 2.0]]), sp)
    res = pr.solve(k, tol=1e-13)
    ok_a = abs(res.lambda0 - 3.0) <= 1e-10
    w = res.eigenfunction.values
    ok_w = abs(w[0] / w[1] - 1.0) <= 1e-10

    spc = pr.make_interval_space(0, 1, 64, "midpoint")
    res_c = pr.solve(pr.constant_kernel(spc, 1.0), tol=1e-13)
    ok_b = abs(res_c.lambda0 - 1.0) <= 1e-10
    ok_ones = np.max(np.abs(res_c.eigenfunction.values - 1.0)) <= 1e-10
    announce(
        2,
        ok_a and ok_w and ok_b and ok_ones,
        f"[[2,1],[1,2]] gives {res.lambda0!r} with flat eigenvector; "
        f"constant kernel gives {res_c.lambda0!r} with eigenfunction 1",
    )


def test_criterion_03_two_state_chain_regression():
    sp = pr.make_counting_space(2)
    chain = pr.Kernel(np.array([[0.0, 1.0], [0.5, 0.5]]), sp)
    no_n1 = isinstance(pr.extract_minorization(chain, "row_min"), pr.NotMinorizable)
    no_n1 &= isinstance(pr.extract_minorization(chain, "column_profile"), pr.NotMinorizable)
    cert, _ = pr.power_doeblin_search(chain, 8)
    squared = pr.iterate_kernel(chain, 2)
    square_ok = np.allclose(squared.entries, [[0.5, 0.5], [0.25, 0.75]], atol=1e-15)
    report = pr.power_doeblin_analyze(chain, n_max=8)
    rho_ok = abs(report.rho - 1.0) <= 1e-10
    roots = np.sort_complex(eigenvalues_via_charpoly(chain.operator_matrix()))
    second_ok = abs(roots[0] - (-0.5)) <= 1e-8
    peripheral_ok = (
        len(report.peripheral_candidates) == 1
        and abs(report.peripheral_candidates[0] - 1.0) <= 1e-8
    )
    announce(
        3,
        no_n1 and cert.power == 2 and square_ok and rho_ok and second_ok and peripheral_ok,
        f"no strict one-step bound, power certificate at N=2, rho={report.rho!r}, "
        f"second eigenvalue {roots[0].real!r}, peripheral set {{1}}",
    )


def test_criterion_04_projection_identities(solved):
    instances, _ = solved
    worst = {"idem": 0.0, "left": 0.0, "right": 0.0, "rank": 0.0}
    for inst in instances:
        p = inst.result.projection.matrix()
        t = inst.kernel.operator_matrix()
        lam = inst.result.lambda0

        def op_norm(m):
            return float(np.abs(m).sum(axis=1).max())

        idem = op_norm(p @ p - p)
        left = op_norm(t @ p - lam * p)
        right = op_norm(p @ t - lam * p)
        rank = inst.result.diagnostics.rank_one_defect
        worst["idem"] = max(worst["idem"], idem)
        worst["left"] = max(worst["left"], left / lam)
        worst["right"] = max(worst["right"], right / lam)
        worst["rank"] = max(worst["rank"], rank)
        assert idem <= 1e-8, inst.label
        assert left <= 1e-8 * lam, inst.label
        assert right <= 1e-8 * lam, inst.label
        assert rank <= 1e-8, inst.label
    announce(
        4,
        True,
        "projection identities on all instances: worst P^2-P "
        f"{worst['idem']:.2e}, TP {worst['left']:.2e}, PT {worst['right']:.2e}, "
        f"rank defect {worst['rank']:.2e}",
    )


def test_criterion_05_scalar_function_analytics(solved):
    instances, _ = solved
    # dense monotonicity scan on three representative instances
    scan_labels = {"counting-13", "interval-50-gauss", "interval-200-uniform"}
    for inst in instances:
        ev = inst.result.evaluator
        lam0 = inst.result.lambda0
        if inst.label in scan_labels:
            grid = np.geomspace(
                remainder_radius(ev) * (1 + 1e-6) + 1e-12, 10 * ev.operator_norm, 1000
            )
            values = np.array([ev.value(x) for x in grid])
            assert np.all(np.diff(values) > 0), f"{inst.label}: not strictly increasing"
            assert int(np.sum(np.diff(np.sign(values)) != 0)) == 1, inst.label
        # derivative against a centered difference at a probe point
        probe = 1.5 * lam0
        h = 1e-5 * probe
        fd = (ev.value(probe + h) - ev.value(probe - h)) / (2 * h)
        an = ev.derivative(probe)
        assert abs(fd - an) <= 1e-6 * abs(an), inst.label
        # limit at large lambda
        far = 1e3 * ev.operator_norm
        assert abs(ev.value(far) - 1.0) <= 1e-3, inst.label
        # strict radius gap
        assert lam0 - remainder_radius(ev) > 1e-6 * lam0, inst.label
    announce(
        5,
        True,
        "monotone 1000-point scans, derivative vs centered differences at 1e-6, "
        "limit D(1e3*norm) = 1 within 1e-3, radius margin > 1e-6*lambda0",
    )


def test_criterion_06_kernel_resolvent_identity(solved):
    instances, _ = solved
    worst_rel = 0.0
    for inst in instances:
        split = inst.result.evaluator.split
        seq = pr.build_corrected_kernels(split, 2)
        lam = 2.0 * inst.kernel.weighted_inf_norm()
        report = pr.verify_resolvent_identity(seq, lam, tol=1e-13)
        worst_rel = max(worst_rel, report.relative_residual)
        assert report.relative_residual <= 1e-9, f"{inst.label}: {report.relative_residual:.2e}"
    # tail bound honored by the measured truncation error (three sizes)
    checked = 0
    for inst in instances[:6]:
        split = inst.result.evaluator.split
        k = inst.kernel
        lam = 2.0 * k.weighted_inf_norm()
        c = k.weighted_inf_norm() + pr.rank_one_norm(split)
        if lam <= c:
            continue
        direct = np.linalg.solve(
            lam * np.eye(k.size) - split.remainder.operator_matrix(), k.entries
        )
        seq = pr.build_corrected_kernels(split, 12)
        for m in (2, 5, 10):
            partial = sum(
                seq.kernels[n].entries / lam ** (n + 1) for n in range(m + 1)
            )
            measured = float(
                (np.abs(partial - direct) * k.space.weights[np.newaxis, :]).sum(axis=1).max()
            )
            assert measured <= pr.neumann_tail_bound(c, lam, m) * (1 + 1e-12), inst.label
            checked += 1
    announce(
        6,
        checked > 0,
        f"identity residual <= 1e-9*|K| at lambda=2|T| on all instances "
        f"(worst {worst_rel:.2e}); {checked} truncation errors under the a priori tail bound",
    )


def test_criterion_07_bell_combinatorics():
    rng = np.random.default_rng(SEED + 7)
    exact = 0
    for q in range(1, 9):
        for p in range(1, q + 1):
            b = [int(v) for v in rng.integers(1, 4, size=q - p + 1)]
            assert bell_expansion.bell_polynomial(p, q, b) == bell_expansion.bell_polynomial_bruteforce(p, q, b)
            exact += 1
    reports = []
    for kernel in (
        pr.Kernel(np.array([[2.0, 1.0], [1.0, 2.0]]), pr.make_counting_space(2)),
        pr.Kernel(
            np.random.default_rng(SEED + 8).uniform(0.1, 1.1, (5, 5)),
            pr.make_counting_space(5),
        ),
    ):
        split = pr.rank_one_split(kernel, pr.extract_minorization(kernel))
        seq = pr.build_corrected_kernels(split, 6)
        scale = max(1.0, max(np.abs(kk.entries).max() for kk in seq.kernels[:5]))
        for n in (1, 2, 3, 4):
            rep = bell_expansion.verify_bell_expansion(seq, n)
            assert rep.bruteforce_error <= 1e-10 * scale
            assert rep.bell_form_error <= 1e-10 * scale
            reports.append(rep)
    # documented outcome: the shifted index convention does not reproduce
    # the recursion, and the report pinpoints where
    mismatch = [r for r in reports if not r.matches_variant]
    assert mismatch, "expected the variant index convention to disagree"
    assert all(r.first_failing is not None for r in mismatch)
    assert all(r.leading_term_error > 0 for r in mismatch)
    announce(
        7,
        True,
        f"{exact} Bell values exact vs enumeration; recursion confirmed by word-sum "
        f"and Bell-grouped oracles at n<=4 on 2x2 and 5x5; variant index convention "
        f"disagrees (documented, first failing triple e.g. {mismatch[0].first_failing})",
    )


def _measured_series_ratio(ev, lam0):
    norms = pr.series_term_norms(ev, lam0, 400)
    floor = norms[0] * 1e-10
    live = np.where(norms > floor)[0]
    m = int(live[-1])
    if m < 3:
        return 0.0
    j = max(2, m - 30)
    return float((norms[m] / norms[j]) ** (1.0 / (m - j)))


def test_criterion_08_eigenfunction_series(solved):
    instances, _ = solved
    worst_gap = 0.0
    worst_ratio_err = 0.0
    for inst in instances:
        ev = inst.result.evaluator
        lam0 = inst.result.lambda0
        series = pr.eigenfunction_series(ev, lam0, tol=1e-12)
        gap = float(np.max(np.abs(series.values - inst.result.eigenfunction.values)))
        gap /= max(1.0, inst.result.eigenfunction.sup_norm())
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-8, f"{inst.label}: series gap {gap:.2e}"
        expected = remainder_radius(ev) / lam0
        measured = _measured_series_ratio(ev, lam0)
        if expected < 1e-8:
            assert measured < 1e-8, inst.label
        else:
            err = abs(measured - expected) / expected
            worst_ratio_err = max(worst_ratio_err, err)
            assert err <= 0.10, f"{inst.label}: ratio {measured:.4f} vs {expected:.4f}"
    announce(
        8,
        True,
        f"series agrees with the residue route (worst {worst_gap:.2e}); measured "
        f"contraction within 10% of rho(R)/lambda0 (worst {worst_ratio_err:.2%})",
    )


def test_criterion_09_change_of_measure():
    rng = np.random.default_rng(SEED + 9)
    triples = []
    for i in range(10):
        if i % 2 == 0:
            space = pr.make_counting_space(int(rng.integers(10, 31)))
        else:
            space = pr.make_interval_space(0, 1, int(rng.integers(30, 51)), "midpoint")
        kernel = pr.Kernel(rng.uniform(0.05, 1.05, (space.size, space.size)), space)
        if i < 6:
            # exponent 2: invariance of the transported bound holds for any density
            p = 2.0
            h = pr.GridFunction(rng.uniform(0.5, 2.5, space.size), space)
        else:
            # other exponents: exact transported bound needs a flat density
            p = float(rng.choice([1.0, 1.5, 3.0, 7.0]))
            h = pr.GridFunction(np.full(space.size, float(rng.uniform(0.5, 2.5))), space)
        triples.append((kernel, h, p))
    worst_lam = worst_w = 0.0
    for kernel, h, p in triples:
        mc = pr.MeasureChange(h, p)
        res = pr.solve(kernel)
        res_e = pr.solve(pr.conjugate_kernel(kernel, mc))
        d_lam = abs(res_e.lambda0 - res.lambda0) / res.lambda0
        transported = pr.transport_function(res.eigenfunction, mc)
        scale = res_e.eigenfunction.values[0] / transported.values[0]
        d_w = float(
            np.max(np.abs(res_e.eigenfunction.values - scale * transported.values))
            / np.max(np.abs(res_e.eigenfunction.values))
        )
        bound = pr.transform_schur(pr.tight_schur_bound(kernel), mc)
        schur = pr.verify_schur(pr.conjugate_kernel(kernel, mc), bound)
        assert d_lam <= 1e-8 and d_w <= 1e-8 and schur.holds
        worst_lam = max(worst_lam, d_lam)
        worst_w = max(worst_w, d_w)
    announce(
        9,
        True,
        f"10 random (K, h, p) triples: eigenvalue invariant (worst {worst_lam:.2e}), "
        f"eigenvector transport (worst {worst_w:.2e}), transported row/column bounds "
        "verify with the same constant",
    )


def test_criterion_10_mollified_convergence():
    sp = pr.make_interval_space(0, 1, 800, "midpoint")
    k = pr.gaussian_kernel(sp, 0.25)
    widths = (0.2, 0.1, 0.05, 0.025)
    study = pr.convergence_study(k, 0.5, 0.5, widths, 5)
    non_increasing = all(
        study.errors[i] >= study.errors[i + 1] - 1e-15 for i in range(len(widths) - 1)
    )
    # first-order prediction from the measured local gradient of the kernel
    ix, iy = study.x0_index, study.y0_index
    window = 40  # about 0.05 on this grid
    block = k.entries[ix - window : ix + window, iy - window : iy + window]
    h = sp.nodes[1] - sp.nodes[0]
    gx = np.abs(np.gradient(block, h, axis=0)).max()
    gy = np.abs(np.gradient(block, h, axis=1)).max()
    prediction = widths[-1] * (gx + gy)
    final_ok = study.errors[-1] < 10 * prediction

    study_c = pr.convergence_study(pr.constant_kernel(sp, 1.0), 0.5, 0.5, widths, 5)
    const_zero = max(study_c.errors) <= 1e-12
    announce(
        10,
        non_increasing and final_ok and const_zero,
        f"errors {tuple(f'{e:.2e}' for e in study.errors)} non-increasing, final "
        f"{study.errors[-1]:.2e} < 10 * {prediction:.2e}; constant kernel exactly zero "
        f"({max(study_c.errors):.1e})",
    )


def test_criterion_11_cli_contract(tmp_path):
    runner = CliRunner()
    config = {
        "kernel": {"family": "constant", "c": 1.0},
        "space": {"kind": "interval", "a": 0.0, "b": 1.0, "n": 64, "rule": "midpoint"},
        "certificate": {"strategy": "row_min"},
        "outputs": {"report": "report.json", "eigenfunction": "eigenfunction.csv",
                    "dcurve": "dcurve.csv"},
    }
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(config))
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        result = runner.invoke(cli_main, ["solve", "--config", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        outputs.append(out)
    identical = (
        (outputs[0] / "eigenfunction.csv").read_bytes()
        == (outputs[1] / "eigenfunction.csv").read_bytes()
        and (outputs[0] / "dcurve.csv").read_bytes()
        == (outputs[1] / "dcurve.csv").read_bytes()
    )

    (tmp_path / "chain.csv").write_text("0,1\n0.5,0.5\n")
    chain_cfg = tmp_path / "chain.json"
    chain_cfg.write_text(
        json.dumps(
            {
                "kernel": {"family": "csv", "path": "chain.csv"},
                "space": {"kind": "counting", "n": 2},
                "certificate": {"strategy": "row_min"},
            }
        )
    )
    code_chain = runner.invoke(
        cli_main, ["solve", "--config", str(chain_cfg), "--out", str(tmp_path / "o2")]
    ).exit_code

    broken = {"alpha": 99.0, "power": 1, "profile": [1.0] * 64, "density": [1.0] * 64}
    (tmp_path / "broken.json").write_text(json.dumps(broken))
    bad_cfg = dict(config)
    bad_cfg["certificate"] = {"path": "broken.json"}
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad_cfg))
    code_bad = runner.invoke(
        cli_main, ["solve", "--config", str(bad_path), "--out", str(tmp_path / "o3")]
    ).exit_code

    announce(
        11,
        identical and code_chain == 2 and code_bad == 3,
        f"byte-identical CSVs across reruns; exit codes: constant kernel 0, "
        f"two-state chain {code_chain} (not minorizable), broken certificate {code_bad}",
    )
