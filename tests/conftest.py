import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import perron as pr
import perron.kernel_op
from perron.cli import _prepare, _resolve_certificate
from perron.errors import SlowConvergenceError
from perron.spectral import SERIES_MAX_TERMS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture
def counting2():
    return pr.make_counting_space(2)


@pytest.fixture
def symmetric_2x2(counting2):
    """Hand oracle: eigenvalues {3, 1}, Perron vector (1, 1)."""
    return pr.Kernel(np.array([[2.0, 1.0], [1.0, 2.0]]), counting2)


@pytest.fixture
def two_state_chain(counting2):
    """Row-stochastic chain with a zero entry; eigenvalues {1, -1/2}
    (characteristic polynomial x^2 - x/2 - 1/2, solved by hand)."""
    return pr.Kernel(np.array([[0.0, 1.0], [0.5, 0.5]]), counting2)


@pytest.fixture
def unit_interval_64():
    return pr.make_interval_space(0.0, 1.0, 64, "midpoint")


@pytest.fixture
def constant_unit(unit_interval_64):
    return pr.constant_kernel(unit_interval_64, 1.0)


def count_calls(monkeypatch, module, name):
    """List that grows by one on every call of ``module.name``: the shape
    of the call's first argument.

    The function is replaced in every loaded perron module that holds it,
    since ``from .x import y`` binds it once per importing module."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]) if args else ())
        return real(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "perron" and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counting)
    return calls


def count_products(monkeypatch):
    """List of the column counts of every product over K, one entry per
    call of ``Kernel.product`` or ``transposed_product`` (``matvec``,
    ``rmatvec`` and the transposed product of a symmetric kernel go
    through ``product`` and count once)."""
    widths = []
    real_product, real_transposed = pr.Kernel.product, pr.Kernel.transposed_product

    def product(self, x):
        widths.append(1 if x.ndim == 1 else x.shape[1])
        return real_product(self, x)

    def transposed_product(self, y):
        if not self.symmetric:
            widths.append(1 if y.ndim == 1 else y.shape[1])
        return real_transposed(self, y)

    monkeypatch.setattr(pr.Kernel, "product", product)
    monkeypatch.setattr(pr.Kernel, "transposed_product", transposed_product)
    return widths


def perturb_top_value(monkeypatch, rel):
    """Make every kernel's compression come out with its top eigenvalue
    off by ``rel`` relative, for kernels made after the call."""
    real = perron.kernel_op.compress_symmetric

    def perturbed(kernel):
        c = real(kernel)
        values = c.values.copy()
        values[-1] *= 1.0 + rel
        return perron.kernel_op.Compression(values, c.vectors, c.probe_bound)

    monkeypatch.setattr(perron.kernel_op, "compress_symmetric", perturbed)


def count_solves(monkeypatch):
    """List that grows by one on every shifted solve against one right-hand
    side, however many refinement steps that solve takes."""
    calls = []
    real = pr.BirmanSchwingerEvaluator._solve

    def counting(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(pr.BirmanSchwingerEvaluator, "_solve", counting)
    return calls


CHARPOLY_MAX_DIM = 12


def characteristic_polynomial(matrix: np.ndarray) -> np.ndarray:
    """Coefficients (leading 1) via the trace recursion; O(n^4), exact
    rational structure up to float rounding, no eigensolver involved."""
    n = matrix.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    aux = np.eye(n)
    for k in range(1, n + 1):
        if k > 1:
            aux = matrix @ aux + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(matrix @ aux) / k
    return coeffs


def eigenvalues_via_charpoly(matrix: np.ndarray) -> np.ndarray:
    """Small-dimension spectrum oracle: roots of the characteristic polynomial."""
    if matrix.shape[0] > CHARPOLY_MAX_DIM:
        raise ValueError(f"characteristic-polynomial oracle capped at {CHARPOLY_MAX_DIM}")
    return np.roots(characteristic_polynomial(matrix))


def remainder_radius(ev) -> float:
    """Dense oracle of rho(R), the spectral radius of the evaluator's
    remainder: the largest modulus of the eigenvalues of its operator
    matrix.  The program itself carries no estimate of it."""
    return float(np.abs(np.linalg.eigvals(ev.split.remainder.operator_matrix())).max())


def series_term_norms(ev, lambda0: float, n_terms: int) -> np.ndarray:
    """Sup norms of the series terms lambda0^-(n+1) * R^n profile of the
    eigenfunction series, R the split's explicit remainder.

    The term recurrence is carried in scaled form, term -> (R term)/lam,
    so nothing underflows even when the unscaled factors would."""
    rem = ev.split.remainder
    term = ev.profile.values / lambda0
    norms = np.empty(n_terms)
    for n in range(n_terms):
        norms[n] = float(np.max(np.abs(term)))
        term = rem.matvec(term) / lambda0
    return norms


def rank_one_norm(split) -> float:
    """Weighted sup-norm of the split's subtracted rank-one operator."""
    cert = split.certificate
    mass = np.dot(cert.functional.density, split.kernel.space.weights)
    return float(cert.alpha * np.max(cert.profile.values) * mass)


def neumann_tail_bound(c: float, lam: float, m: int) -> float:
    """A priori truncation bound of the corrected-kernel series after the
    terms 0..m: the geometric tail of ||G_n|| <= c^(n+1) at ratio c / lam;
    infinite when lam <= c."""
    if lam <= c:
        return np.inf
    r = c / lam
    return r ** (m + 2) / (1.0 - r)


def transport_function(f, mc):
    """Image of f under the isometry of the change of measure mc:
    h^(1/p) f on the nu-space."""
    return pr.GridFunction(mc.row_factor() * f.values, pr.changed_space(mc))


def inverse_change(mc):
    """The change of measure that undoes mc, defined on the nu-space."""
    return pr.MeasureChange(pr.GridFunction(1.0 / mc.density.values, pr.changed_space(mc)),
                            mc.exponent)


def save_certificate(cert, path) -> None:
    """Write cert in the format ``perron.load_certificate`` reads."""
    payload = {
        "alpha": cert.alpha,
        "power": cert.power,
        "profile": cert.profile.values.tolist(),
        "density": cert.functional.density.tolist(),
        "normalization": "pairing of the constant function 1 equals 1 for built-in shapes",
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def random_positive_kernel(space, rng, low=0.05, high=1.05):
    return pr.Kernel(rng.uniform(low, high, (space.size, space.size)), space)


def config_kernels():
    """(name, kernel, certificate) for every shipped config with a certificate."""
    for path in sorted(CONFIGS.glob("*.json")):
        cfg, config_dir, kernel = _prepare(str(path))
        cert = _resolve_certificate(cfg, kernel, config_dir)
        if isinstance(cert, pr.MinorizationCertificate):
            yield path.stem, kernel, cert


def plain_eigenfunction_series(ev, lambda0: float, tol: float = 1e-12):
    """The eigenfunction series summed with no tail correction: the loop
    stops once the Collatz-Wielandt bound t_n q_hi / (1 - q_hi) of the
    dropped tail is at most tol times the running sum, and raises where
    ``perron.eigenfunction_series`` does.  Returns the normalized sum and
    the number of products with R it took."""
    rem = ev.split.remainder
    term = ev.profile.values / lambda0
    acc = term.copy()
    q_lo, q_hi = 0.0, np.inf
    for n in range(1, SERIES_MAX_TERMS + 1):
        nxt = rem.matvec(term) / lambda0
        acc = acc + nxt
        if not nxt.any():
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = nxt / term
        q_lo = max(q_lo, float(np.nanmin(ratios)))
        q_hi = min(q_hi, float(np.nanmax(ratios)))
        term = nxt
        size, total = float(term.max()), float(acc.max())
        if q_hi < 1.0 and size * q_hi / (1.0 - q_hi) <= tol * total:
            break
        if q_lo >= 1.0:
            raise SlowConvergenceError(f"series terms do not decay: ratio at least {q_lo:.6f}")
        if q_hi < 1.0 and q_lo > 0.0:
            final = total + size * q_hi / (1.0 - q_hi)
            reach = tol * final * (1.0 - q_lo) / (q_lo * size)
            if reach < 1.0 and n + math.log(reach) / math.log(q_lo) > SERIES_MAX_TERMS:
                raise SlowConvergenceError(f"series needs more than its budget after {n} terms")
    else:
        raise SlowConvergenceError("series needed more than its budget")
    return acc / pr.pair(ev.functional, pr.GridFunction(acc, ev.space)), n
