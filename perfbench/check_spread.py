"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/check_spread.py --workloads gauss_n2000 cli_config --seeds 1-10 --log a.jsonl
    python3 perfbench/check_spread.py --from-log b.jsonl --baseline a.jsonl

For every workload and end-to-end metric it prints the median over the
seeds and the interquartile distance as a share of that median, next to
a third of the metric's bound from BENCHMARK.json.  With ``--baseline``
it also prints how far each median moved against an earlier set, in the
metric's worse direction, next to the bound itself.  Runs are
sequential, so they never share the machine with each other.  Exits
with 1 if any figure is out of its limit or any run was not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from summary import spread

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def read_log(path: Path) -> dict[str, list[dict]]:
    by_workload = defaultdict(list)
    for line in path.read_text().splitlines():
        row = json.loads(line)
        by_workload[row["workload"]].append(row)
    return by_workload


def run_seeds(spec, workloads, seeds, seconds, log) -> dict[str, list[dict]]:
    by_workload = defaultdict(list)
    for workload in workloads:
        for seed in seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
            row = {"workload": workload, "seed": seed, **json.loads(out.strip().splitlines()[-1])}
            by_workload[workload].append(row)
            if log is not None:
                with open(log, "a") as fh:
                    fh.write(json.dumps(row) + "\n")
    return by_workload


def median_of(rows, name: str) -> float:
    return statistics.median(r["metrics"][name]["value"] for r in rows)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--log", type=Path, default=None, help="append every result line here")
    parser.add_argument("--from-log", type=Path, default=None,
                        help="report on the result lines of an earlier set instead of running")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="an earlier set's log to compare the medians with")
    args = parser.parse_args()

    if args.from_log is not None:
        by_workload = read_log(args.from_log)
    else:
        by_workload = run_seeds(spec, args.workloads, args.seeds, args.seconds, args.log)
    baseline = read_log(args.baseline) if args.baseline is not None else {}

    ok = True
    for workload, rows in by_workload.items():
        ok &= all(r["correct"] for r in rows)
        print(f"{workload}: {len(rows)} runs, correct={all(r['correct'] for r in rows)}, "
              f"failed/attempted={sum(r['failed'] for r in rows)}/"
              f"{sum(r['attempted'] for r in rows)}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in rows]
            s = spread(values)
            line = (f"  {name:<16} median {statistics.median(values):<12.6g} "
                    f"spread {s:.4f} (bound/3 {bound / 3:.4f}) {'ok' if s <= bound / 3 else 'WIDE'}")
            ok &= s <= bound / 3
            if baseline.get(workload):
                old = median_of(baseline[workload], name)
                worse = (statistics.median(values) - old) / old
                if metric["better"] == "higher":
                    worse = -worse
                line += f"  worse than baseline by {worse:+.4f} (bound {bound})"
                line += " ok" if worse <= bound else " WORSE"
                ok &= worse <= bound
            print(line)
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
