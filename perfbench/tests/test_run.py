"""The untimed parts of the end-to-end report: calibration and run record."""

import pytest

import run
from calibrate import REPEATS
from workloads import Input, Outcome, timed_loop


class Instant:
    """A workload whose operation returns its reference at once."""

    name = "instant"
    calibration = "small"

    def run(self, x, workdir):
        return x.reference


def test_latency_cal_is_median_of_per_operation_ratios():
    outcomes = [Outcome(latency, 1.0, value=1.0) for latency in (0.2, 0.4, 0.9)]
    m = run.e2e_metrics(outcomes, ratios=[2.0, 1.0, 3.0], calibs=[0.1, 0.3, 0.2, 0.5],
                        wall=1.5, setups=[1.0, 3.0, 2.0])
    assert m["latency_p50_s"] == pytest.approx(0.4)
    assert m["calib_p50_s"] == pytest.approx(0.25)
    assert m["latency_p50_cal"] == 2.0
    assert m["solved_share"] == 1.0
    assert m["setup_s"] == 2.0


def test_timed_loop_calibrates_either_side_of_every_batch(tmp_path, monkeypatch):
    monkeypatch.setattr("workloads.BATCH_S", 0.01)
    times = iter(range(1, 1000))
    monkeypatch.setattr("workloads.calibrate", lambda kind: [float(next(times))] * REPEATS)
    outcomes, ratios, calibs, wall = timed_loop(Instant(), [Input(2.0)], 0.05, tmp_path)
    assert outcomes and not any(o.failed for o in outcomes)
    assert wall >= 0.05
    batches = len(calibs) // REPEATS - 1
    assert len(calibs) % REPEATS == 0 and 1 <= batches <= len(outcomes)
    assert len(ratios) == len(outcomes)
    # the first batch lies between calibrations of 1 s and 2 s, so it is
    # measured in units of their median, 1.5 s
    assert ratios[0] == pytest.approx(outcomes[0].latency / 1.5)
    assert ratios[-1] == pytest.approx(outcomes[-1].latency / (batches + 0.5))


def test_run_record_reads_the_blas_thread_count():
    record = run.run_record("instant", 1, 1.0, trace=False)
    libs = [lib for lib in record["blas"] if lib["threads"] is not None]
    assert libs, record["blas"]
    assert all(lib["config"] for lib in libs)
