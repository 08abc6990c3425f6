"""Spans and counters recorded around calls into perron's layers.

The program carries no trace of its own yet, so the tracer wraps each
public name where its caller looks it up.  perron's modules import with
``from .x import y``, so a function is patched in every loaded
``perron.*`` module that holds it; methods and exception constructors
are patched on their class.  ``Tracer.install`` returns an undo handle,
and nothing stays patched outside a traced operation.

Each span records its name, start, end, parent span and operation id.
Spans stay in memory; ``layer_metrics`` reduces them once a run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import types
import weakref
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass
class Span:
    name: str
    op: int
    parent: int           # index of the enclosing span, -1 at the top
    start: float
    end: float = 0.0
    error: str | None = None   # exception type name when the call raised


@dataclass(frozen=True)
class Target:
    """One name to wrap.  ``path`` is ``module:attr[.attr...]``; the last
    attribute is replaced on the object the rest of the path reaches."""

    name: str
    path: str
    span: bool = True                       # False: count calls only
    on_call: Callable | None = None         # hook(tracer, args, kwargs)


def _lu_flops(tracer, args, kwargs):
    tracer.lu_flops += 2.0 * args[0].shape[0] ** 3 / 3.0


def _note_shift(tracer, args, kwargs):
    tracer.note_shift(args[0], args[1] if len(args) > 1 else kwargs["lam"])


TARGETS = (
    Target("measure.make_interval_space", "perron.measure:make_interval_space"),
    Target("measure.make_counting_space", "perron.measure:make_counting_space"),
    Target("kernel_op.Kernel", "perron.kernel_op:Kernel.__post_init__"),
    Target("kernel_op.gaussian_kernel", "perron.kernel_op:gaussian_kernel"),
    Target("kernel_op.spectral_radius_oracle", "perron.kernel_op:spectral_radius_oracle"),
    Target("kernel_op.growth_radius", "perron.kernel_op:growth_radius"),
    Target("doeblin.extract_minorization", "perron.doeblin:extract_minorization"),
    Target("doeblin.rank_one_split", "perron.doeblin:rank_one_split"),
    Target("doeblin.positivity_improving_check", "perron.doeblin:positivity_improving_check"),
    Target("resolvent.BirmanSchwingerEvaluator",
           "perron.resolvent:BirmanSchwingerEvaluator.__init__"),
    Target("resolvent.lu_factor", "perron.resolvent:lu_factor", on_call=_lu_flops),
    Target("resolvent.resolve_remainder",
           "perron.resolvent:BirmanSchwingerEvaluator.resolve_remainder",
           span=False, on_call=_note_shift),
    Target("resolvent.value", "perron.resolvent:BirmanSchwingerEvaluator.value"),
    Target("resolvent.derivative", "perron.resolvent:BirmanSchwingerEvaluator.derivative"),
    Target("resolvent.left_remainder_solve",
           "perron.resolvent:BirmanSchwingerEvaluator.left_remainder_solve"),
    Target("spectral.solve", "perron.spectral:solve"),
    Target("spectral.find_dominant", "perron.spectral:find_dominant"),
    Target("spectral.eigenfunction_from_residue", "perron.spectral:eigenfunction_from_residue"),
    Target("spectral.spectral_projection", "perron.spectral:spectral_projection"),
    Target("spectral.verify_dominance", "perron.spectral:verify_dominance"),
    Target("spectral.eigenfunction_series", "perron.spectral:eigenfunction_series"),
    Target("corrected_kernels.build_corrected_kernels",
           "perron.corrected_kernels:build_corrected_kernels"),
    Target("corrected_kernels.verify_resolvent_identity",
           "perron.corrected_kernels:verify_resolvent_identity"),
    Target("change_of_measure.conjugate_kernel", "perron.change_of_measure:conjugate_kernel"),
    Target("mollified.convergence_study", "perron.mollified:convergence_study"),
    Target("cli.solve", "perron.cli:solve_cmd.callback"),
    Target("cli.verify", "perron.cli:verify.callback"),
    Target("errors.NoSignChangeError", "perron.errors:NoSignChangeError.__init__", span=False),
    Target("errors.PowerIterationError", "perron.errors:PowerIterationError.__init__",
           span=False),
    Target("errors.IllConditionedError", "perron.errors:IllConditionedError.__init__",
           span=False),
)


class Tracer:
    """Collects spans, call counts and computed LU work for traced operations."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        self.lu_flops = 0.0        # computed as 2/3 n^3 per factorization
        self.distinct_shifts = 0
        self.op = -1
        self._stack: list[int] = []
        self._serial = itertools.count()
        self._evaluators: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._shifts: set = set()

    def begin_op(self, op: int) -> None:
        self.op = op

    def note_shift(self, evaluator, lam) -> None:
        """Count distinct (evaluator, lambda) pairs: what an exact LU cache
        must factor at least once."""
        serial = self._evaluators.get(evaluator)
        if serial is None:
            serial = self._evaluators[evaluator] = next(self._serial)
        key = (serial, float(lam))
        if key not in self._shifts:
            self._shifts.add(key)
            self.distinct_shifts += 1

    def _call(self, target: Target, fn, args, kwargs):
        self.calls[target.name] += 1
        if target.on_call is not None:
            target.on_call(self, args, kwargs)
        if not target.span:
            return fn(*args, **kwargs)
        span = Span(target.name, self.op, self._stack[-1] if self._stack else -1, perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def _wrapper(self, target: Target, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(target, fn, args, kwargs)

        return traced

    def install(self) -> Callable[[], None]:
        """Patch every target; return a function that undoes the patches."""
        undo = []
        try:
            for target in TARGETS:
                original, owners = _locations(target.path)
                traced = self._wrapper(target, original)
                for owner, attr, own in owners:
                    setattr(owner, attr, traced)
                    undo.append((owner, attr, original, own))
        except BaseException:
            _restore(undo)
            raise
        return functools.partial(_restore, undo)


def _restore(undo) -> None:
    for owner, attr, original, own in reversed(undo):
        if own:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)
    undo.clear()


def _locations(path: str):
    """The object at ``path`` and each (owner, attr, owned) it is looked up
    through; ``owned`` is False for an attribute inherited by a class."""
    module_name, _, dotted = path.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = dotted.split(".")
    for part in parents:
        owner = getattr(owner, part)
    original = getattr(owner, attr)
    if not isinstance(owner, types.ModuleType):
        return original, [(owner, attr, attr in vars(owner))]
    return original, [
        (module, name, True)
        for module_name, module in sorted(sys.modules.items())
        if module is not None and (module_name == "perron" or module_name.startswith("perron."))
        for name, value in sorted(vars(module).items())
        if value is original
    ]


def covered_length(intervals, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - covered_length(children[i], span.start, span.end)
        for i, span in enumerate(spans)
    ]


def _inside(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


# (metric, unit): per-operation means over the traced operations
LAYER_METRICS = (
    ("resolvent.lu_factor.calls", "calls/op"),
    ("resolvent.lu_factor.s", "s/op"),
    ("resolvent.lu_gflop", "GFLOP/op"),
    ("resolvent.distinct_shifts", "calls/op"),
    ("resolvent.value.calls", "calls/op"),
    ("resolvent.derivative.calls", "calls/op"),
    ("resolvent.resolve_remainder.calls", "calls/op"),
    ("resolvent.lu_reuse", "ratio"),
    ("resolvent.value.self_s", "s/op"),
    ("resolvent.derivative.self_s", "s/op"),
    ("resolvent.left_remainder_solve.s", "s/op"),
    ("resolvent.BirmanSchwingerEvaluator.init_s", "s/op"),
    ("kernel_op.spectral_radius_oracle.s", "s/op"),
    ("kernel_op.spectral_radius_oracle.calls", "calls/op"),
    ("spectral.solve.s", "s/op"),
    ("spectral.solve.self_s", "s/op"),
    ("spectral.find_dominant.s", "s/op"),
    ("spectral.find_dominant.self_s", "s/op"),
    ("spectral.find_dominant.lu_per_root", "calls/root"),
    ("spectral.eigenfunction_from_residue.s", "s/op"),
    ("spectral.spectral_projection.s", "s/op"),
    ("spectral.verify_dominance.s", "s/op"),
    ("kernel_op.growth_radius.s", "s/op"),
    ("spectral.eigenfunction_series.s", "s/op"),
    ("doeblin.extract_minorization.s", "s/op"),
    ("doeblin.rank_one_split.s", "s/op"),
    ("kernel_op.gaussian_kernel.s", "s/op"),
    ("kernel_op.Kernel.s", "s/op"),
    ("measure.make_interval_space.s", "s/op"),
    ("measure.make_counting_space.s", "s/op"),
    ("errors.NoSignChangeError.count", "count/op"),
    ("errors.PowerIterationError.count", "count/op"),
    ("errors.IllConditionedError.count", "count/op"),
    ("cli.solve.s", "s/op"),
    ("cli.solve.self_s", "s/op"),
    ("cli.verify.s", "s/op"),
    ("cli.verify.self_s", "s/op"),
    ("corrected_kernels.build_corrected_kernels.s", "s/op"),
    ("corrected_kernels.verify_resolvent_identity.s", "s/op"),
    ("change_of_measure.conjugate_kernel.s", "s/op"),
    ("mollified.convergence_study.s", "s/op"),
    ("doeblin.positivity_improving_check.s", "s/op"),
    ("trace.spans", "spans/op"),
    ("trace.overhead_ratio", "ratio"),
)


def layer_metrics(tracer: Tracer, n_ops: int, overhead_ratio: float) -> dict[str, float]:
    """The metrics named in LAYER_METRICS, per operation where it applies.
    ``overhead_ratio`` is the traced median latency over the untraced one."""
    spans = tracer.spans
    selfs = self_times(spans)
    total, own = Counter(), Counter()
    for span, self_s in zip(spans, selfs):
        total[span.name] += span.end - span.start
        own[span.name] += self_s
    roots = sum(1 for s in spans if s.name == "spectral.find_dominant" and s.error is None)
    root_lus = sum(
        1 for i, s in enumerate(spans)
        if s.name == "resolvent.lu_factor" and _inside(spans, i, "spectral.find_dominant")
    )
    lus = tracer.calls["resolvent.lu_factor"]
    raw = {
        "resolvent.lu_gflop": tracer.lu_flops / 1e9,
        "resolvent.distinct_shifts": tracer.distinct_shifts,
        "resolvent.BirmanSchwingerEvaluator.init_s": total["resolvent.BirmanSchwingerEvaluator"],
        "trace.spans": len(spans),
    }
    metrics = {}
    for name, _unit in LAYER_METRICS:
        layer, _, kind = name.rpartition(".")
        if name in raw:
            value = raw[name] / n_ops
        elif name == "trace.overhead_ratio":
            value = overhead_ratio
        elif name == "resolvent.lu_reuse":
            value = tracer.calls["resolvent.resolve_remainder"] / lus if lus else 0.0
        elif name == "spectral.find_dominant.lu_per_root":
            value = root_lus / roots if roots else 0.0
        elif kind in ("calls", "count"):
            value = tracer.calls[layer] / n_ops
        elif kind == "s":
            value = total[layer] / n_ops
        elif kind == "self_s":
            value = own[layer] / n_ops
        else:
            raise KeyError(name)
        metrics[name] = value
    return metrics
