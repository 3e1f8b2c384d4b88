"""vcsprelax benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload sa3-opt --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the library from
its `src/`.  The workload's inputs are generated from the seed, then
jobs run one at a time, in whole rounds, until about --seconds of job
time has passed.  Every answer is checked outside the timed interval.
The last stdout line is a JSON object: `correct`, `attempted`, `failed`
and the metrics, end to end with --trace 0, per layer with --trace 1
(spans are then also written to bench_out/).
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# One BLAS thread: the host has two cores, and a second BLAS thread made
# the Lasserre solves slower and far more variable.  Must precede numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, "bench_out")

# nominal round length in seconds; the traced run executes a fixed
# number of rounds, seconds / nominal, so its counts repeat exactly
NOMINAL_ROUND_S = {"sa3-opt": 6.5, "sa3-refute": 5.0,
                   "las3-refute": 9.0, "corpus-mix": 5.0}
SETUP_REPEATS = 5

# The host's other tenants slow this process's CPU by 30-70% in spells
# that last from seconds to whole runs.  Job times are therefore scaled
# to a fixed host speed (see bench/README.md).  The *_NOMINAL_S are the
# probe parts' times on an uncontended core of the reference host.
PROBE_NOMINAL_S = 0.018
EIGH_NOMINAL_S = 0.015
PROBE_EVERY_S = 0.25
# The share of a workload's job time spent in LAPACK's eigh (las.eigh_s
# over the job time of a traced round); the rest is interpreter-bound.
# The two slow down by different amounts under contention.
EIGH_SHARE = {"las3-refute": 0.75}
IMPORTS = "import numpy, scipy.optimize, vcsprelax, vcsprelax.cli"
# Loading modules and shared objects slows under contention by other
# amounts than the probe does, so import times are scaled instead by
# standard-library imports that the program does not make, timed just
# before it in the same interpreter.  REF_NOMINAL_S is their time on an
# uncontended core of the reference host.
REF_IMPORTS = ("import asyncio, configparser, email.parser, http.client, "
               "mailbox, sqlite3, tarfile, urllib.request, xml.dom.minidom, "
               "xmlrpc.client")
REF_NOMINAL_S = 0.065


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(NOMINAL_ROUND_S))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "vcsprelax", "__init__.py")):
        sys.exit(f"error: no vcsprelax sources under {src}")
    sys.path.insert(0, src)
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401  (the simplex imports it lazily)
    import vcsprelax
    import vcsprelax.cli  # noqa: F401
    if not os.path.abspath(vcsprelax.__file__).startswith(src):
        sys.exit(f"error: imported vcsprelax from {vcsprelax.__file__}")
    import workloads
    return workloads


def import_seconds(src):
    """Import time of the library in a fresh interpreter, as the pair
    (scaled to the nominal host speed, as measured)."""
    code = ("import sys, time; t0 = time.perf_counter(); "
            f"{REF_IMPORTS}; t1 = time.perf_counter(); "
            f"sys.path.insert(0, {src!r}); {IMPORTS}; "
            "print(t1 - t0, time.perf_counter() - t1)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    ref, dt = map(float, out.stdout.split())
    return dt * REF_NOMINAL_S / ref, dt


def set_up(workloads, name, seed):
    """Inputs, input files and the warm-up jobs."""
    workdir = os.path.join(OUT, f"{name}-s{seed}")
    os.makedirs(workdir, exist_ok=True)
    specs = workloads.WORKLOADS[name](seed, workdir)
    workloads.warm_up(name, workdir)
    return specs


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Probe:
    """Fixed work whose time tracks the speed the host gives this process:
    Fraction arithmetic and dict stores, the exact simplex's staple, and,
    on workloads with an eigh share, four `eigh` of a fixed 217 x 217
    matrix, the Gram size of the Tseitin probe of las3-refute."""

    def __init__(self, eigh_share):
        import numpy
        self.eigh_share = eigh_share
        self.eigh = numpy.linalg.eigh  # the traced run wraps the attribute
        a = numpy.random.default_rng(0).standard_normal((217, 217))
        self.matrix = a + a.T

    def measure(self):
        """(Fraction part, eigh part) in seconds.  The collector is off
        meanwhile, so that no garbage left by a job is swept in it."""
        gc.disable()
        try:
            return self._measure()
        finally:
            gc.enable()

    def _measure(self):
        t0 = time.perf_counter()
        acc, store = Fraction(0), {}
        for i in range(1, 4000):
            acc = acc * Fraction(3, 7) + Fraction(i % 97, i % 89 + 1)
            if i % 32 == 0:
                acc = Fraction(0)
            store[i % 512] = acc
        t1 = time.perf_counter()
        if self.eigh_share:
            for _ in range(4):
                self.eigh(self.matrix)
        return t1 - t0, time.perf_counter() - t1

    def factor(self, before, after):
        """Scale factor to the nominal host speed for work done between
        two measures."""
        frac = PROBE_NOMINAL_S / (0.5 * (before[0] + after[0]))
        if not self.eigh_share:
            return frac
        eigh = EIGH_NOMINAL_S / (0.5 * (before[1] + after[1]))
        return (1 - self.eigh_share) * frac + self.eigh_share * eigh


def run_jobs(specs, seconds, call, fixed_rounds, probe):
    """Whole rounds until the job time reaches about `seconds` (the
    round count nearest to it), or exactly `fixed_rounds` rounds.

    The probe runs between jobs, at least every PROBE_EVERY_S of job
    time.  Each job's wall time is multiplied by the scale factor of the
    probes on either side of it.  Returns, per job of the round, its
    scaled times (one per round) and its raw times.
    """
    scaled = [[] for _ in specs]
    raw = [[] for _ in specs]
    problems = []
    attempted = failed = rounds = 0
    busy = pending_s = 0.0
    pending = []
    last = probe.measure()
    while True:
        for k, spec in enumerate(specs):
            attempted += 1
            t0 = time.perf_counter()
            try:
                result = call("job", spec.run, call)
            except Exception as exc:  # a failed operation, counted
                failed += 1
                print(f"JOB FAILED {spec.kind}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                busy += time.perf_counter() - t0
                continue
            dt = time.perf_counter() - t0
            busy += dt
            raw[k].append(dt)
            pending.append((k, dt))
            pending_s += dt
            problems += [f"{spec.kind}: {p}" for p in spec.check(result)]
            result = None
            if pending_s >= PROBE_EVERY_S or k == len(specs) - 1:
                now = probe.measure()
                factor = probe.factor(last, now)
                for j, t in pending:
                    scaled[j].append(t * factor)
                pending, pending_s, last = [], 0.0, now
        rounds += 1
        if fixed_rounds is not None:
            if rounds >= fixed_rounds:
                break
        elif busy + 0.5 * busy / rounds >= seconds:
            break
    return scaled, raw, problems, attempted, failed, rounds, busy


def layer_metrics(tracer, rounds):
    """Self time (s) and counts per round, by layer."""
    st = tracer.self_times()
    c = tracer.counts

    def s(*names):
        return sum(st.get(n, 0.0) for n in names) / rounds

    def n(key):
        return c.get(key, 0) / rounds

    return {
        "fileformat.parse_s": (s("fileformat.parse"), "s"),
        "model.enum_s": (s("model.enum"), "s"),
        "model.enum_calls": (n("model.enum_calls"), "count"),
        "sa.build_s": (s("sa.build"), "s"),
        "sa.rows": (n("sa.rows"), "count"),
        "sa.verify_s": (s("sa.verify"), "s"),
        "simplex.solve_s": (s("sa.solve", "simplex.solve", "simplex.guide"), "s"),
        "simplex.pivots": (n("simplex.pivots"), "count"),
        "simplex.highs_s": (s("simplex.highs"), "s"),
        "simplex.highs_calls": (n("simplex.highs_calls"), "count"),
        "simplex.highs_used": (n("simplex.highs_used"), "count"),
        "las.build_s": (s("las.build"), "s"),
        "las.solve_s": (s("las.solve"), "s"),
        "las.iterations": (n("las.iterations"), "count"),
        "las.eigh_s": (s("las.eigh"), "s"),
        "las.eigh_calls": (n("las.eigh_calls"), "count"),
        "las.gram_dim": (c.get("las.gram_dim", 0), "count"),
        "las.residual_s": (s("las.residual"), "s"),
        "equations.oracle_s": (s("equations.oracle"), "s"),
        "equations.probe_s": (s("equations.gap_search"), "s"),
        "algebra.bwc_s": (s("algebra.bwc", "algebra.fpol_lp"), "s"),
        "algebra.core_s": (s("algebra.core"), "s"),
        "algebra.fpol_lps": (n("algebra.fpol_lp_calls"), "count"),
        "reductions.audit_s": (s("reductions.audit"), "s"),
        "reductions.transport_s": (s("reductions.transport"), "s"),
        "cli.self_s": (s("cli"), "s"),
    }


def main(argv=None):
    args = parse_args(argv)
    workloads = import_program()
    # set-up time: the median import time plus the median set-up time,
    # each repeat scaled on its own
    imports = [import_seconds(os.path.join(ROOT, "src"))
               for _ in range(SETUP_REPEATS)]
    probe = Probe(EIGH_SHARE.get(args.workload, 0.0))
    setups = []
    for _ in range(SETUP_REPEATS):
        before = probe.measure()
        t0 = time.perf_counter()
        specs = set_up(workloads, args.workload, args.seed)
        dt = time.perf_counter() - t0
        setups.append((dt * probe.factor(before, probe.measure()), dt))
    setup_s = (statistics.median(s for s, _ in imports)
               + statistics.median(s for s, _ in setups))
    raw_setup_s = (statistics.median(r for _, r in imports)
                   + statistics.median(r for _, r in setups))

    tracer = None
    call, fixed = workloads.plain_call, None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        call = tracer.call
        fixed = max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
        tracer.install()
    try:
        times, raw, problems, attempted, failed, rounds, busy = run_jobs(
            specs, args.seconds, call, fixed, probe)
    finally:
        if tracer is not None:
            tracer.uninstall()

    for p in problems[:20]:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    # a job's time is its median over the rounds of its scaled times
    typical = [statistics.median(t) for t in times if t]
    jobs = sum(len(t) for t in raw)
    jobs_per_s = len(typical) / sum(typical) if typical else 0.0
    p50 = statistics.median(typical) if typical else 0.0
    p90 = percentile(typical, 90) if typical else 0.0
    raw_typical = [statistics.median(t) for t in raw if t]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"workload {args.workload} seed {args.seed}: {jobs} jobs in "
          f"{rounds} rounds, {busy:.2f} s of job time; scaled to the nominal "
          f"host speed: {jobs_per_s:.4f} jobs/s, p50 {p50:.4f} s, "
          f"p90 {p90:.4f} s, setup {setup_s:.3f} s; as measured: "
          f"{len(raw_typical) / sum(raw_typical):.4f} jobs/s, "
          f"p50 {statistics.median(raw_typical):.4f} s, setup "
          f"{raw_setup_s:.3f} s; peak RSS {rss_mb:.1f} MB")

    if tracer is None:
        metrics = {
            "jobs_per_s": (jobs_per_s, "1/s"),
            "job_p50_s": (p50, "s"),
            "job_p90_s": (p90, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, rounds)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.json")
        tracer.dump(path)
        per_span = tracer.cost_per_span()
        overhead = per_span * len(tracer.spans)
        print(f"trace: {len(tracer.spans)} spans in {path}; tracing "
              f"overhead {per_span * 1e6:.2f} us a span, "
              f"{overhead / rounds:.4f} s a round, "
              f"{100 * overhead / busy:.2f}% of the job time")
        for key, (value, unit) in metrics.items():
            print(f"  {key:24s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
