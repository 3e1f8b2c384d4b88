"""The four workloads: their seeded inputs, their jobs and their checks.

A job is what a user runs to get an answer.  `Spec.run(call)` performs
it; `call(name, fn, *args)` is a plain call in the timed run and a span
in the traced run.  `Spec.check(result)` returns a list of problems,
empty when the answer passes; it runs outside the timed interval.
Each workload function takes (seed, workdir) and returns its round: the
list of Specs that every round of a run repeats.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from fractions import Fraction

import instances as gen
import oracle
from vcsprelax import (
    build_sa,
    gap_search,
    make_group,
    random_kxor,
    solve_lp_exact,
    verify_sa,
)
import vcsprelax.cli as cli

LEVEL = 3
GUIDE_MIN_ROWS = 150  # the exact simplex asks HiGHS for a start from here up
Z2 = make_group("Z2")


def plain_call(name, fn, *args, **kwargs):
    """The untraced form of the tracer's `call`."""
    return fn(*args, **kwargs)


class Spec:
    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


# ------------------------------------------------------------ sa3-opt

def _sa_run(inst, with_verify):
    def run(call):
        model = call("sa.build", build_sa, inst, LEVEL)
        sol = call("sa.solve", solve_lp_exact, model)
        chk = call("sa.verify", verify_sa, model, sol) if with_verify else None
        return model, sol, chk
    return run


def check_sa_opt(problem, kind, opt, result):
    """An optimal level-3 LP: lambda satisfies the SA conditions, and its
    value is the optimum (submodular), at most the optimum (valued
    parity), or 0 on an unsatisfiable Tseitin system (the LP gap)."""
    model, sol, chk = result
    out = []
    if model.num_rows < GUIDE_MIN_ROWS:
        out.append(f"{model.num_rows} rows, below the guided-start size")
    if sol.status != "optimal" or not sol.value.is_finite:
        return out + [f"status {sol.status}, value {sol.value}"]
    if chk is not None and not chk.ok:
        out.append(f"verify_sa rejects the solution: {chk}")
    out += oracle.sa_lambda_problems(problem, LEVEL, model, sol)
    v = sol.value.frac
    if kind == "sub" and v != opt:
        out.append(f"submodular LP {v} != optimum {opt}")
    if kind == "soft" and (opt is None or v > opt):
        out.append(f"LP {v} exceeds optimum {opt}")
    if kind == "tseitin" and (opt is not None or v != 0):
        out.append(f"tseitin LP {v}, optimum {opt}: expected 0 and inf")
    return out


def sa3_opt(seed, workdir):
    """One round: a Tseitin system on a cubic graph with 6 vertices (9
    edge variables, one charged vertex), a submodular instance on 9
    variables with nonzero optimum and a weighted 3-XOR on 8 variables
    with 10 equations, in seeded order.  The three are fixed: the exact
    simplex's cost is erratic in its input (see sa3_refute).  With the
    Tseitin system drawn per seed, its scaled solve time ranged over
    1.45-2.12 s across five seeds."""
    fixed = random.Random("sa3-opt-family")
    jobs = [("tseitin", gen.tseitin(fixed, 6)),
            ("sub", gen.submodular(fixed, 9)),
            ("soft", gen.soft_kxor(fixed, 8, 10))]
    random.Random(f"sa3-opt:{seed}").shuffle(jobs)
    specs = []
    for kind, problem in jobs:
        opt = oracle.enum_opt(problem)
        if kind == "tseitin" and oracle.gf2_satisfiable(
                problem.n, oracle.parity_equations(problem)):
            raise RuntimeError("tseitin generator made a satisfiable system")
        specs.append(Spec(
            kind, _sa_run(oracle.to_instance(problem), True),
            lambda r, p=problem, k=kind, o=opt: check_sa_opt(p, k, o, r)))
    return specs


# --------------------------------------------------------- sa3-refute

def check_sa_refute(problem, result):
    """An infeasible level-3 LP: HiGHS agrees on the same rows, and the
    parity system is unsatisfiable by elimination."""
    model, sol, _ = result
    out = []
    if model.num_rows < GUIDE_MIN_ROWS:
        out.append(f"{model.num_rows} rows, below the guided-start size")
    if sol.status != "infeasible" or sol.value.is_finite:
        out.append(f"status {sol.status}, value {sol.value}: expected infeasible")
    if not oracle.highs_infeasible(model):
        out.append("HiGHS finds the rows feasible")
    if oracle.gf2_satisfiable(problem.n, oracle.parity_equations(problem)):
        out.append("refuted a satisfiable system")
    return out


REFUTE_FAMILY = 5


def refute_family():
    """The fixed 3-XOR family: 14 equations on 5 variables, the first
    REFUTE_FAMILY draws whose level-3 LP HiGHS proves infeasible."""
    out = []
    k = 0
    while len(out) < REFUTE_FAMILY:
        p = gen.kxor(random.Random(f"sa3-refute-family:{k}"), 5, 14)
        k += 1
        if oracle.gf2_satisfiable(p.n, oracle.parity_equations(p)):
            continue
        inst = oracle.to_instance(p)
        if oracle.highs_infeasible(build_sa(inst, LEVEL)):
            out.append((p, inst))
    return out


def sa3_refute(seed, workdir):
    """One round is the whole fixed family in a seeded order.

    The exact simplex's cost is erratic in its input: relabelling the
    variables of one of these systems moved its solve between 0.34 and
    2.86 s.  Systems drawn afresh per seed would make this workload's
    throughput a property of the draw, so the family is fixed and the
    seed orders it.
    """
    family = refute_family()
    random.Random(f"sa3-refute:{seed}").shuffle(family)
    return [Spec("kxor", _sa_run(inst, False),
                 lambda r, p=p: check_sa_refute(p, r))
            for p, inst in family]


# -------------------------------------------------------- las3-refute

def lib_parity_equations(inst):
    """(scope, rhs) of a library instance of Z2 equations, read from its
    relation tables."""
    eqs = []
    for c in inst.constraints:
        rhs = {sum(t) % 2 for t in c.relation.tuples()
               if c.relation.value(t).is_finite}
        eqs.append((tuple(c.scope), rhs.pop()))
    return eqs


def _kxor_probe(n, s):
    """The instance gap_search(family="kxor", seed=s, count=1) draws."""
    child = random.Random(s).randrange(2 ** 32)
    return random_kxor(n, max(1, round(1.5 * n)), Z2, seed=child)


def check_probe(expected, result):
    """A level-3 probe of an unsatisfiable system refutes it."""
    (rep,) = result
    out = []
    eqs = lib_parity_equations(rep.instance)
    if oracle.gf2_satisfiable(rep.instance.num_vars, eqs):
        out.append("probe instance is satisfiable")
    if expected is not None and eqs != expected:
        out.append("probe instance differs from the one screened")
    if rep.verdict != "no-gap" or rep.diagnostics.get("note") != "relaxation infeasible":
        out.append(f"verdict {rep.verdict} ({rep.diagnostics.get('note')})")
    if rep.sdp_value != float("inf") or rep.vcsp_opt.is_finite:
        out.append(f"values {rep.vcsp_opt} / {rep.sdp_value}")
    return out


def _probe_run(n, family, s):
    def run(call):
        return call("equations.gap_search", gap_search, Z2, LEVEL, [n],
                    family=family, count=1, seed=s, density=1.5)
    return run


def _screen(rng, n, want_ties):
    """A gap_search seed whose kxor probe at n variables is unsatisfiable,
    with all its variable sets distinct or (want_ties) exactly one set
    carrying two contradictory equations.

    The draw is chosen by its equations alone, not by what the program
    does with it, so that set-up costs the same for every seed.  The
    number of distinct sets fixes the Gram dimension, on which a probe's
    cost depends.  The program refutes a contradictory pair by its tie
    system before iterating, and an all-distinct draw by ADMM (91 of 91
    draws at n = 6 and 7 checked)."""
    while True:
        s = rng.randrange(2 ** 31)
        eqs = lib_parity_equations(_kxor_probe(n, s))
        rhs = {}
        for scope, b in eqs:
            rhs.setdefault(frozenset(scope), set()).add(b)
        if want_ties:
            ok = (len(rhs) == len(eqs) - 1
                  and any(len(v) == 2 for v in rhs.values()))
        else:
            ok = len(rhs) == len(eqs) and not oracle.gf2_satisfiable(n, eqs)
        if ok:
            return s, eqs


def las3_refute(seed, workdir):
    """One round: Tseitin with 6 edge variables, a sparse 3-XOR on 6
    variables that ADMM must refute, and one on 7 variables that the tie
    system refutes before iterating.  Two ADMM probes to one tie probe
    keep the median job an ADMM solve.  (A tie probe on 8 variables
    raised the peak memory by 10-20 MB, by an amount that varied with
    the draw.)"""
    rng = random.Random(f"las3-refute:{seed}")
    specs = [Spec("tseitin", _probe_run(6, "tseitin", rng.randrange(2 ** 31)),
                  lambda res: check_probe(None, res))]
    for kind, n, ties in (("kxor-admm", 6, False),
                          ("kxor-ties", 7, True)):
        s, eqs = _screen(rng, n, ties)
        specs.append(Spec(kind, _probe_run(n, "kxor", s),
                          lambda res, e=eqs: check_probe(e, res)))
    return specs


# --------------------------------------------------------- corpus-mix

def run_cli(argv):
    """cli.main in-process; the module attribute is looked up per call so
    the traced run sees its wrapper."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, buf.getvalue().splitlines()


def _cli_spec(kind, argv, check):
    return Spec(kind, lambda call: run_cli(argv), check)


def _ext(text):
    return None if text == "inf" else Fraction(text)


def _le(a, b):
    """a <= b on rationals with None as infinity."""
    return b is None or (a is not None and a <= b)


def check_relax(problem, opt, level, mode, seen, dump_dir, result):
    rc, lines = result
    f = oracle.report_fields(lines)
    if rc != 0:
        return [f"exit {rc}"]
    out = []
    full = level >= problem.n
    if _ext(f["vcsp_opt"]) != opt:
        out.append(f"vcsp_opt {f['vcsp_opt']} != {opt}")
    if mode == "sa":
        lp = _ext(f["lp_opt"])
        seen[level] = lp
        if not _le(lp, opt):
            out.append(f"LP {lp} above optimum {opt}")
        if full and lp != opt:
            out.append(f"full-level LP {lp} != optimum {opt}")
        return out
    raw = f["sdp_opt"].split()[0]
    sdp = float(raw)
    optf = float("inf") if opt is None else float(opt)
    lp = seen[level]  # the SA job of this level runs first in the round
    lpf = float("inf") if lp is None else float(lp)
    if not (lpf <= sdp + 1e-5 and sdp <= optf + 1e-5):
        out.append(f"sandwich LP {lpf} <= SDP {sdp} <= opt {optf} fails")
    if full and not (sdp == optf or abs(sdp - optf) <= 1e-4):
        out.append(f"full-level SDP {sdp} != optimum {optf}")
    if raw != "inf":
        path = os.path.join(dump_dir, "las_solution.txt")
        with open(path) as fh:
            M = oracle.read_gram_dump(fh.read())
        if not oracle.gram_psd(M, 1e-7):
            out.append(f"Gram min eigenvalue {oracle.min_eigenvalue(M):.3g}")
    return out


def check_analyze(verdict, result):
    rc, lines = result
    got = oracle.report_fields(lines).get("bwc summary")
    return [] if rc == 0 and got == verdict else [f"exit {rc}, bwc summary {got!r}"]


def check_reduce(source_opt, out_dir, result):
    """The produced optimum, found by enumeration from the written files,
    sits where the printed scale, offset and residue window put it."""
    rc, lines = result
    if rc != 0:
        return [f"exit {rc}"]
    f = oracle.report_fields(lines)
    with open(os.path.join(out_dir, "reduced_language.txt")) as fh:
        lang = fh.read()
    with open(os.path.join(out_dir, "reduced_instance.txt")) as fh:
        produced = oracle.enum_opt(oracle.read_problem(lang, fh.read()))
    if source_opt is None or produced is None:
        ok = source_opt is None and produced is None
    else:
        lo, hi = (Fraction(x) for x in
                  f["residue window"].strip("[]").split(", "))
        residue = produced - (Fraction(f["value scale"]) * source_opt
                              + Fraction(f["value offset"]))
        ok = lo <= residue <= hi
    return [] if ok else [f"source {source_opt} produced {produced}: "
                          f"relation {f['value scale']}/{f['value offset']} broken"]


def check_verify(kind, result):
    """The audit passes.  The transported relaxation must pass too where
    the CLI's own test of it applies: that test compares the produced
    objective with the source objective unscaled, which opt and feas
    traces (offset or scale != identity) fail whenever transport runs."""
    rc, lines = result
    f = oracle.report_fields(lines)
    out = []
    if rc != 0:
        return [f"exit {rc}"]
    if f.get("verified") != "True":
        out.append(f"verified = {f.get('verified')}")
    if not f.get("oracle identity", "").startswith("ok"):
        out.append(f"oracle identity = {f.get('oracle identity')}")
    if kind not in ("opt", "feas") and f.get("transport ok") != "True" \
            and not f.get("transport", "").startswith("skipped"):
        out.append(f"transport ok = {f.get('transport ok')}")
    return out


CORPUS = 10


def corpus_mix(seed, workdir, groups=CORPUS):
    """One round of `groups` groups.  Each group: one valued instance
    relaxed by SA at levels 1, 2, 3 and full and by Lasserre at 2, 3 and
    full; analyze on a planted language; reduce and verify on each of the
    five reduction types.

    The instances come from a fixed base corpus, and the seed relabels
    each one (variables, constraint order and, outside the reductions,
    labels per variable).  Relabelling keeps every optimum and
    relaxation value, and the ADMM iteration counts with them; fresh
    random instances per seed moved this workload's throughput by a
    factor of two between seeds."""
    base = random.Random("corpus-mix-base")
    rng = random.Random(f"corpus-mix:{seed}")
    shared = os.path.join(workdir, "shared")
    os.makedirs(shared, exist_ok=True)
    for name, text in gen.REDUCTION_FILES.items():
        _write(os.path.join(shared, name), text)
    specs = []
    for r in range(groups):
        d = os.path.join(workdir, f"r{r}")
        os.makedirs(d, exist_ok=True)
        problem = gen.relabel(rng, gen.small_valued(base, ""), f"c{r}_")
        opt = oracle.enum_opt(problem)
        lang, inst = os.path.join(d, "lang.txt"), os.path.join(d, "inst.txt")
        _write(lang, problem.language_text())
        _write(inst, problem.instance_text())
        seen = {}
        for level in sorted({1, 2, 3, problem.n}):
            relax = ["relax", "--language", lang, "--instance", inst,
                     "--level", str(level)]
            specs.append(_cli_spec(
                "relax-sa", relax + ["--mode", "sa"],
                lambda res, lv=level, p=problem, o=opt, s=seen:
                    check_relax(p, o, lv, "sa", s, None, res)))
            if level >= 2:
                dump = os.path.join(d, f"las{level}")
                specs.append(_cli_spec(
                    "relax-las", relax + ["--mode", "las", "--out-dir", dump],
                    lambda res, lv=level, p=problem, o=opt, s=seen, dd=dump:
                        check_relax(p, o, lv, "las", s, dd, res)))
        planted, verdict = gen.planted_language(rng, ("sub", "parity")[r % 2])
        path = os.path.join(d, "planted.txt")
        _write(path, planted)
        specs.append(_cli_spec("analyze", ["analyze", "--language", path],
                               lambda res, v=verdict: check_analyze(v, res)))
        for kind in gen.REDUCTIONS:
            src, lang_text = gen.reduction_source(base, kind)
            src = gen.relabel(rng, src, "", swap_labels=False)
            rl, ri = (os.path.join(d, f"{kind}_{x}.txt") for x in ("lang", "inst"))
            _write(rl, lang_text)
            _write(ri, src.instance_text())
            args = ["--language", rl, "--instance", ri] + \
                gen.reduction_args(kind, shared)
            out_dir = os.path.join(d, f"{kind}_out")
            specs.append(_cli_spec(
                "reduce", ["reduce"] + args + ["--out-dir", out_dir],
                lambda res, o=oracle.enum_opt(src), od=out_dir:
                    check_reduce(o, od, res)))
            specs.append(_cli_spec("verify", ["verify"] + args,
                                   lambda res, k=kind: check_verify(k, res)))
    return specs


def warm_up(name, workdir):
    """One small job down each path the workload takes, so that lazy
    imports and first-call costs fall in set-up."""
    rng = random.Random("warm-up")
    if name.startswith("sa3"):
        inst = oracle.to_instance(gen.kxor(rng, 5, 6))
        solve_lp_exact(build_sa(inst, LEVEL))
    elif name == "las3-refute":
        gap_search(Z2, LEVEL, [4], family="kxor", count=1, seed=0, density=1.0)
    else:
        problem = gen.small_valued(rng, "w")
        lang, inst = (os.path.join(workdir, f"warm_{x}.txt") for x in ("lang", "inst"))
        _write(lang, problem.language_text())
        _write(inst, problem.instance_text())
        for mode in ("sa", "las"):
            run_cli(["relax", "--language", lang, "--instance", inst,
                     "--mode", mode, "--level", "2"])


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


WORKLOADS = {
    "sa3-opt": sa3_opt,
    "sa3-refute": sa3_refute,
    "las3-refute": las3_refute,
    "corpus-mix": corpus_mix,
}
