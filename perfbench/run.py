"""perron benchmark: one workload, untraced or traced, one JSON result line.

    python3 perfbench/run.py --workload gauss_n2000 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from its
``src``.  BLAS runs on one thread, fixed through the environment before
numpy loads.  ``--trace 0`` times operations for ``--seconds``, with a
fixed calibration task between batches, and prints the end-to-end
metrics; ``--trace 1`` runs each input untraced and traced in turn and
prints the per-layer metrics.  Human-readable lines come first; the last
line of standard output is the result.
See perfbench/README.md.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from summary import tail_percentile  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SETUP_REPEATS = 15

# (metric, unit) in the result line of --trace 0, in the order of BENCHMARK.json
E2E_METRICS = (
    ("latency_p50_cal", "calib"),
    ("solved_share", "share"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def time_import() -> float:
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import perron.cli"],
        check=True, cwd=BENCH_DIR.parent, stdout=subprocess.DEVNULL,
    )
    return perf_counter() - start


def set_up(workload, workdir: Path) -> float:
    """The program's own set-up: import in a fresh interpreter, then a
    warm-up operation on a fixed input.  Returns its wall time."""
    start = perf_counter()
    time_import()
    workload.warm_up(workdir)
    return perf_counter() - start


# (thread-count, config) entry points of the OpenBLAS builds numpy and scipy ship or link
OPENBLAS_QUERIES = [(f"{prefix}_get_num_threads{suffix}", f"{prefix}_get_config{suffix}")
                    for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")]


def blas_libraries() -> list[dict]:
    """Each BLAS or LAPACK library loaded in this process, with its config
    and thread count where it is an OpenBLAS that can be asked."""
    with open("/proc/self/maps") as fh:
        paths = sorted(set(re.findall(r"(/\S*(?:blas|lapack|mkl|blis)\S*\.so\S*)$",
                                      fh.read(), re.M | re.I)))
    found = []
    for path in paths:
        entry = {"lib": Path(path).name, "config": None, "threads": None}
        lib = ctypes.CDLL(path)
        for threads_name, config_name in OPENBLAS_QUERIES:
            threads = getattr(lib, threads_name, None)
            config = getattr(lib, config_name, None)
            if threads is None or config is None:
                continue
            threads.argtypes, threads.restype = [], ctypes.c_int
            config.argtypes, config.restype = [], ctypes.c_char_p
            entry.update(config=config().decode(), threads=threads())
            break
        found.append(entry)
    return found


def run_record(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = re.search(r"^model name\s*:\s*(.*)$", fh.read(), re.M).group(1)
    except (OSError, AttributeError):
        pass
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": blas_libraries(),
        "setup_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def print_record(record: dict) -> None:
    print(f"# record {json.dumps(record)}")
    if not any(lib["threads"] for lib in record["blas"]):
        print("# blas: unknown; no loaded library reports its thread count "
              "(OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS are 1)")


def e2e_metrics(outcomes, ratios, calibs, wall: float, setups) -> dict:
    failed = sum(o.failed for o in outcomes)
    errors = [o.rel_err for o in outcomes if o.value is not None]
    return {
        "latency_p50_cal": statistics.median(ratios),
        "calib_p50_s": statistics.median(calibs),
        "calib_samples": len(calibs),
        "latency_p50_s": statistics.median(o.latency for o in outcomes),
        "latency_tail_s": tail_percentile([o.latency for o in outcomes]),
        "ops_per_s": len(outcomes) / wall,
        "failed_share": failed / len(outcomes),
        "solved_share": 1.0 - failed / len(outcomes),
        "wrong_answers": sum(o.wrong for o in outcomes),
        "lambda0_rel_err_max": max(errors) if errors else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
        "setup_quartiles": statistics.quantiles(setups, n=4),
        "setup_samples": len(setups),
    }


def print_e2e(m: dict, outcomes, wrong_rel: float, record: dict) -> None:
    n = len(outcomes)
    kinds = Counter(o.error or "WrongAnswer" for o in outcomes if o.failed)
    tail, err = m["latency_tail_s"], m["lambda0_rel_err_max"]
    rows = [
        ("latency_p50_cal", f"{m['latency_p50_cal']:.6g} calib",
         f"median of {n} ops, each over the calibrations either side of it"),
        ("calib_p50_s", f"{m['calib_p50_s']:.6g} s",
         f"median of {m['calib_samples']} {record['calibration']} calibration samples"),
        ("latency_p50_s", f"{m['latency_p50_s']:.6g} s", f"median of {n} ops"),
        ("latency_tail_s", f"{tail[1]:.6g} s" if tail else "n/a",
         f"p{tail[0]:.4g} of {n} ops, 10 beyond" if tail else f"{n} ops, needs >= 20"),
        ("ops_per_s", f"{m['ops_per_s']:.6g} 1/s", f"{n} ops attempted"),
        ("failed_share", f"{m['failed_share']:.6g}",
         f"{sum(kinds.values())} of {n}" + (f" {dict(kinds)}" if kinds else "")),
        ("solved_share", f"{m['solved_share']:.6g}", "1 - failed_share"),
        ("wrong_answers", f"{m['wrong_answers']}", f"rel err > {wrong_rel:g}, of {n} ops"),
        ("lambda0_rel_err_max", f"{err:.3e}" if err is not None else "n/a",
         f"over {sum(o.value is not None for o in outcomes)} answers"),
        ("peak_rss_mb", f"{m['peak_rss_mb']:.6g} MB",
         f"process high-water RSS; {record['setup_peak_rss_mb']:.6g} MB after set-up"),
        ("setup_s", f"{m['setup_s']:.6g} s",
         f"median of {m['setup_samples']} set-ups spread over the run; quartiles "
         + " ".join(f"{q:.4g}" for q in m["setup_quartiles"])),
    ]
    for name, value, note in rows:
        print(f"{name:<22} {value:<16} ({note})")
    if n > 1:
        quartiles = " ".join(f"{q:.6g}" for q in statistics.quantiles(
            [o.latency for o in outcomes], n=4))
        print(f"# op latency quartiles: {quartiles} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None,
                        help="with --trace 1, also write every span as JSON lines here")
    args = parser.parse_args(argv)

    if not (SRC / "perron" / "__init__.py").is_file():
        print(f"perfbench: no perron package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import perron

    if Path(perron.__file__).resolve().parent != SRC / "perron":
        print(f"perfbench: imported perron from {perron.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracing import Tracer, layer_metrics, LAYER_METRICS
    from workloads import WORKLOADS, WRONG_REL, timed_loop, traced_rounds

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    traced = bool(args.trace)
    print(f"# perfbench {workload.name}: {workload.why}")
    workdir = Path(tempfile.mkdtemp(prefix=".tmp-", dir=BENCH_DIR))
    try:
        inputs = workload.make_inputs(args.seed)
        setups = [set_up(workload, workdir)]
        record = run_record(workload.name, args.seed, args.seconds, traced)
        record["calibration"] = workload.calibration
        if traced:
            tracer = Tracer()
            plain, done = traced_rounds(workload, inputs, args.seconds, workdir, tracer)
            outcomes = plain + done
        else:
            # the other set-ups spread over the run, between batches, so that
            # their median does not hang on one stretch of the machine's speed
            def between_batches(wall: float) -> None:
                while (len(setups) < SETUP_REPEATS
                       and wall >= len(setups) * args.seconds / SETUP_REPEATS):
                    setups.append(set_up(workload, workdir))

            outcomes, ratios, calibs, wall = timed_loop(workload, inputs, args.seconds,
                                                        workdir, between_batches)
            while len(setups) < SETUP_REPEATS:
                setups.append(set_up(workload, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if traced:
        overhead = (statistics.median(o.latency for o in done)
                    / statistics.median(o.latency for o in plain))
        metrics = layer_metrics(tracer, len(done), overhead)
        record["trace_overhead_ratio"] = overhead
        units = dict(LAYER_METRICS)
        print_record(record)
        print(f"# {len(done)} traced and {len(plain)} untraced ops; per-op means over traced ops")
        for name, value in metrics.items():
            print(f"{name:<46} {value:<14.6g} {units[name]}")
        if args.spans is not None:
            with open(args.spans, "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span.__dict__) + "\n")
    else:
        m = e2e_metrics(outcomes, ratios, calibs, wall, setups)
        print_record(record)
        print_e2e(m, outcomes, WRONG_REL, record)
        units = dict(E2E_METRICS)
        metrics = {name: m[name] for name in units}

    result = {
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
