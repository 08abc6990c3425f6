"""Unit tests for span arithmetic, the tail-percentile rule and patching."""

import json
import random

import pytest

import perron
import perron.cli
import perron.errors
import perron.resolvent
import perron.spectral
from summary import tail_percentile
from tracing import LAYER_METRICS, Span, Tracer, covered_length, self_times


def test_covered_length_merges_overlaps_and_clips_to_parent():
    assert covered_length([(1, 3), (2, 5), (9, 12), (-2, 0.5)], 0, 10) == pytest.approx(5.5)
    assert covered_length([], 0, 10) == 0.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("a", 0, -1, 0.0, 10.0),
        Span("b", 0, 0, 1.0, 4.0),
        Span("c", 0, 1, 2.0, 3.0),      # grandchild of a: already inside b
        Span("d", 0, 0, 6.0, 8.0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


@pytest.mark.parametrize("n, pct, rank", [(20, 50.0, 10), (21, 100 * 11 / 21, 11),
                                          (1000, 99.0, 990)])
def test_tail_percentile_leaves_exactly_ten_beyond(n, pct, rank):
    samples = random.Random(n).sample(range(10 * n), n)
    got_pct, value = tail_percentile(samples)
    assert got_pct == pytest.approx(pct)
    assert value == sorted(samples)[rank - 1]
    assert sum(s > value for s in samples) == 10


def test_tail_percentile_needs_twenty_samples():
    assert tail_percentile(list(range(19))) is None
    assert tail_percentile([]) is None


def test_install_patches_every_lookup_site_and_undo_restores():
    originals = (perron.solve, perron.spectral.solve, perron.cli.solve,
                 perron.resolvent.lu_factor, perron.cli.verify.callback)
    value = perron.resolvent.BirmanSchwingerEvaluator.value
    undo = Tracer().install()
    try:
        assert perron.solve is perron.spectral.solve is perron.cli.solve
        assert perron.solve is not originals[0]
        assert perron.resolvent.lu_factor is not originals[3]
        assert perron.cli.verify.callback is not originals[4]
        assert perron.resolvent.BirmanSchwingerEvaluator.value is not value
        assert "__init__" in vars(perron.errors.NoSignChangeError)
    finally:
        undo()
    assert (perron.solve, perron.spectral.solve, perron.cli.solve,
            perron.resolvent.lu_factor, perron.cli.verify.callback) == originals
    assert perron.resolvent.BirmanSchwingerEvaluator.value is value
    assert "__init__" not in vars(perron.errors.NoSignChangeError)


def test_raised_errors_are_counted_and_spans_marked():
    tracer = Tracer()
    undo = tracer.install()
    try:
        with pytest.raises(ValueError):
            perron.spectral.find_dominant(None, tol=1e-14)   # rejects tol before any work
        with pytest.raises(perron.errors.NoSignChangeError):
            raise perron.errors.NoSignChangeError("probe")
    finally:
        undo()
    assert [(s.name, s.error) for s in tracer.spans] == [("spectral.find_dominant", "ValueError")]
    assert tracer.calls["errors.NoSignChangeError"] == 1


def test_benchmark_json_lists_the_printed_metrics():
    from pathlib import Path

    import run

    spec = json.loads((Path(run.BENCH_DIR).parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(LAYER_METRICS)
