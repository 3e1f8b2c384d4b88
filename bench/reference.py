"""Reference figures: run.py on several seeds, medians and spreads.

    python3 bench/reference.py --workloads sa3-opt corpus-mix --seeds 1-10
    python3 bench/reference.py --overhead --seeds 1

Runs one process at a time from the checkout root, each for the
`run_seconds` that BENCHMARK.json fixes, and prints, for each workload
and metric, the median over seeds and the interquartile range
as a share of the median (statistics.quantiles, n=4).  Untraced runs
also give the unscaled ("raw") throughput and median job time.  With --overhead
it runs each seed untraced and traced and prints the traced run's end-
to-end figures next to the untraced ones, and the traced run's own
estimate of its overhead.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in _SPEC["workloads"]]
SECONDS = _SPEC["run_seconds"]
# unscaled figures, from the line run.py prints before its result line
RAW = re.compile(r"as measured: ([0-9.]+) jobs/s, p50 ([0-9.]+) s")


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", nargs="+", default=WORKLOADS)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--overhead", action="store_true",
                   help="also run each seed traced; compare end-to-end lines")
    args = p.parse_args()
    for w in args.workloads:
        per_metric = {}
        failed = set()
        for s in args.seeds:
            out, lines = run(w, s, 0)
            if not out["correct"]:
                raise SystemExit(f"{w} seed {s}: a check failed")
            failed.add((out["failed"], out["attempted"]))
            for k, m in out["metrics"].items():
                per_metric.setdefault(k, []).append(m["value"])
            raw = RAW.search(lines[-1]) if lines else None
            if raw:
                for k, v in zip(("raw jobs_per_s", "raw job_p50_s"), raw.groups()):
                    per_metric.setdefault(k, []).append(float(v))
            line = f"{w} seed {s}: " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in out["metrics"].items())
            print(line, flush=True)
            if args.overhead:
                _, traced = run(w, s, 1)
                print("  untraced: " + lines[-1].split(": ", 1)[1])
                print("  traced:   " + traced[0].split(": ", 1)[1])
                print("  " + traced[1], flush=True)
        print(f"{w}: failed/attempted per seed {sorted(failed)}")
        for k, vals in per_metric.items():
            if len(vals) >= 2 and statistics.median(vals):
                med, iqr = spread(vals)
                print(f"  {k:24s} median {med:.6g}  IQR/median {iqr:.3f}")
            else:
                print(f"  {k:24s} values {vals}")


if __name__ == "__main__":
    main()
