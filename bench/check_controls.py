"""Negative controls for the benchmark's checks.

    python3 bench/check_controls.py

For each control, one real job of a workload is run and its answer must
pass the workload's check; then the answer is corrupted and the check
must reject it.  Exits 1 if any control fails.  Not a pytest module on
purpose: the repository's test command collects test_*.py files.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from fractions import Fraction  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from vcsprelax import ExtValue  # noqa: E402

WORK = os.path.join(ROOT, "bench_out", "controls")


def first(specs, kind):
    return next(s for s in specs if s.kind == kind)


def lp_off_by_a_seventh():
    spec = first(workloads.sa3_opt(1, WORK), "sub")
    result = spec.run(workloads.plain_call)
    clean = spec.check(result)
    model, sol, chk = result
    sol.value = ExtValue(sol.value.frac + Fraction(1, 7))
    return clean, spec.check((model, sol, chk))


def infeasible_flipped():
    spec = workloads.sa3_refute(1, WORK)[0]
    result = spec.run(workloads.plain_call)
    clean = spec.check(result)
    model, sol, _ = result
    sol.status, sol.value = "optimal", ExtValue(0)
    return clean, spec.check((model, sol, None))


def lambda_not_marginal():
    """Move 1/3 of a null block's mass onto the assignment with its first
    variable flipped: mass stays 1 and nonnegative, marginals break."""
    spec = first(workloads.sa3_opt(1, WORK), "sub")
    result = spec.run(workloads.plain_call)
    clean = spec.check(result)
    model, sol, chk = result
    m = len(model.instance.constraints)
    for (i, sigma), v in sorted(sol.lam.items()):
        if i >= m and v > 0:
            other = (1 - sigma[0],) + sigma[1:]
            move = v / 3
            sol.lam[(i, sigma)] = v - move
            sol.lam[(i, other)] = sol.lam.get((i, other), 0) + move
            break
    return clean, spec.check((model, sol, None))


def refutation_flipped_to_gap():
    """A tie-refuted las3-refute probe reported as a gap, with the finite
    SDP value a gap report carries."""
    spec = first(workloads.las3_refute(1, WORK), "kxor-ties")
    result = spec.run(workloads.plain_call)
    clean = spec.check(result)
    (rep,) = result
    rep.verdict, rep.sdp_value = "gap", 0.0
    return clean, spec.check(result)


def probe_of_another_instance():
    """A las3-refute probe whose report holds another unsatisfiable
    system than the one screened in set-up."""
    specs = workloads.las3_refute(1, WORK)
    tie, other = first(specs, "kxor-ties"), first(specs, "kxor-admm")
    (rep,) = tie.run(workloads.plain_call)
    clean = tie.check((rep,))
    (rep_other,) = other.run(workloads.plain_call)
    rep.instance = rep_other.instance
    return clean, tie.check((rep,))


def gram_negative_eigenvalue():
    """Shift the dumped Gram matrix along its lowest eigenvector so that
    eigenvalue becomes -1e-3."""
    specs = iter(workloads.corpus_mix(1, WORK, groups=1))
    for spec in specs:  # the SA jobs before it record the LP values
        result = spec.run(workloads.plain_call)
        clean = spec.check(result)
        if spec.kind == "relax-las":
            break
    dump = oracle.report_fields(result[1])["dump"]
    with open(dump) as fh:
        M = oracle.read_gram_dump(fh.read())
    vals, vecs = np.linalg.eigh(M)
    e = vecs[:, 0]
    M = M - (vals[0] + 1e-3) * np.outer(e, e)
    with open(dump, "w") as fh:
        n = M.shape[0]
        fh.write("\n".join(f"gram {r} {c} {float(M[r, c])!r}"
                           for r in range(n) for c in range(r + 1)) + "\n")
    return clean, spec.check(result)


def wrong_bwc_summary():
    spec = first(workloads.corpus_mix(1, WORK, groups=1), "analyze")
    result = spec.run(workloads.plain_call)
    clean = spec.check(result)
    rc, lines = result
    flipped = {"satisfied up to 4": "violated at 4",
               "violated at 4": "satisfied up to 4"}
    bad = [f"bwc summary = {flipped[l.split(' = ')[1]]}"
           if l.startswith("bwc summary = ") else l for l in lines]
    return clean, spec.check((rc, bad))


CONTROLS = [lp_off_by_a_seventh, infeasible_flipped, lambda_not_marginal,
            refutation_flipped_to_gap, probe_of_another_instance,
            gram_negative_eigenvalue, wrong_bwc_summary]


def main():
    os.makedirs(WORK, exist_ok=True)
    ok = True
    for control in CONTROLS:
        clean, corrupted = control()
        passed = not clean and bool(corrupted)
        ok &= passed
        print(f"control {control.__name__}: clean answer passes = {not clean}, "
              f"corrupted answer rejected = {bool(corrupted)}"
              + (f" ({corrupted[0]})" if corrupted else ""))
    print("all controls pass" if ok else "CONTROLS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
