"""Acceptance gate: ten numbered criteria, one verdict line each.

Every test prints exactly one "CRITERION n: PASS/FAIL - detail" line
before asserting, so the suite output carries a per-criterion verdict
even under capture.  Tolerances are pinned here and nowhere else:
exact rational equality for LP claims, 1e-4 for full-level SDP
tightness, 1e-5 for sandwich slack, 10 times the producing solver's
eps for Gram residual checks.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from vcsprelax.algebra import (
    Operation,
    bwc_report,
    check_fractional_polymorphism,
    is_language_polymorphism,
)
from vcsprelax.equations import (
    build_equation_language,
    gap_search,
    linear_satisfiable,
    make_group,
    tseitin,
)
from vcsprelax.lasserre import (
    NumericallyInfeasible,
    build_las,
    sdp_opt,
    solve_sdp,
    verify_L7,
)
from vcsprelax.model import (
    ConstraintLanguage,
    VCSPInstance,
    WeightedRelation,
    brute_force_opt,
    feas_of,
    opt_of,
)
from vcsprelax.reductions import (
    Gadget,
    Interpretation,
    apply_interpretation,
    oracle_value_identity,
    reduce_equality,
    reduce_expressibility,
    reduce_feas,
    reduce_opt,
    transport_solution,
    verify_reduction,
)
from vcsprelax.sherali_adams import lp_opt
from vcsprelax.values import INF


def _verdict(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _same_value(a, b):
    return a.is_finite == b.is_finite and (not a.is_finite or a.frac == b.frac)


def _as_float(v):
    if isinstance(v, float):
        return v
    return float(v.frac) if v.is_finite else math.inf


# ---------------------------------------------------------------- corpus

def _random_relation(rng, name, arity):
    entries, finite = {}, False
    for t in itertools.product(range(2), repeat=arity):
        if rng.random() < 0.25:
            entries[t] = INF
        else:
            entries[t] = Fraction(rng.randint(0, 6), rng.choice([1, 2, 3]))
            finite = True
    if not finite:
        entries[(0,) * arity] = Fraction(1)
    return WeightedRelation.from_entries(name, arity, 2, entries)


def _random_instance(rng, tag):
    n = rng.randint(1, 4)
    rels = [
        _random_relation(rng, f"{tag}_{j}", rng.choice([1, 2]))
        for j in range(rng.randint(1, 3))
    ]
    inst = VCSPInstance(n, 2)
    for _ in range(rng.randint(1, 4)):
        rel = rng.choice(rels)
        inst.add_constraint(
            rel, tuple(rng.randrange(n) for _ in range(rel.arity))
        )
    return inst


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(20260819)
    return [_random_instance(rng, f"i{i}") for i in range(100)]


@pytest.fixture(scope="module")
def corpus_levels(corpus):
    """Per instance and level k in {1,2,3}: exact LP value, SDP value,
    and the Gram solution object when the solver converged."""
    rows = []
    registry = []
    for i, inst in enumerate(corpus):
        brute, _ = brute_force_opt(inst)
        per_level = []
        for k in (1, 2, 3):
            lv = lp_opt(inst, k)
            model = build_las(inst, k, allow_low_level=True)
            sol = solve_sdp(model)
            if isinstance(sol, NumericallyInfeasible):
                sv = math.inf
            else:
                sv = sol.objective
                registry.append((f"corpus[{i}] level {k}", sol, model))
            per_level.append((lv, sv))
        rows.append((brute, per_level))
    return {"rows": rows, "registry": registry}


# ------------------------------------------------------ shared language

def _imp_soft():
    return WeightedRelation.from_entries("imp", 2, 2, {(1, 0): 1}, default=0)


def _soft_unary():
    return WeightedRelation.from_entries(
        "soft", 1, 2, {(0,): 2, (1,): Fraction(1, 3)}
    )


def _chain_gadget():
    # two implications in series express the implication again
    t = VCSPInstance(3, 2)
    t.add_constraint(_imp_soft(), (0, 1)).add_constraint(_imp_soft(), (1, 2))
    return Gadget("chain", (0, 2), t)


def _unit_gadget(rel, name):
    t = VCSPInstance(rel.arity, rel.domain_size)
    t.add_constraint(rel, tuple(range(rel.arity)))
    return Gadget(name, tuple(range(rel.arity)), t)


@pytest.fixture(scope="module")
def transport_bundle():
    """End-to-end expressibility transport at kprime = 3.

    Both arities are 2, so the source must be solved at level
    2 * max(3, 2) * 2 = 12; the two covering-block choices probe that
    transported entries do not depend on the choice.
    """
    chain = WeightedRelation.from_entries(
        "chain", 2, 2, {(1, 0): 1}, default=0
    )
    source = VCSPInstance(2, 2)
    source.add_constraint(chain, (0, 1))
    source.add_constraint(_soft_unary(), (0,))
    source.add_constraint(_soft_unary(), (1,))
    trace = reduce_expressibility(source, {"chain": _chain_gadget()})
    model_i = build_las(source, 12)
    lam = solve_sdp(model_i)
    assert not isinstance(lam, NumericallyInfeasible)
    kap_min = transport_solution(trace, lam, 3, choice="min")
    kap_max = transport_solution(trace, lam, 3, choice="max")
    return {
        "lam": lam, "model_i": model_i,
        "kap_min": kap_min, "kap_max": kap_max,
    }


# ------------------------------------------------------------- criteria

def test_criterion_01_full_level_tightness(corpus):
    t0 = time.monotonic()
    worst_gap = 0.0
    infeasible = 0
    exact_lp = True
    for inst in corpus:
        brute, _ = brute_force_opt(inst)
        lv = lp_opt(inst, inst.num_vars)
        exact_lp = exact_lp and _same_value(lv, brute)
        sv = _as_float(sdp_opt(inst, inst.num_vars))
        if brute.is_finite:
            worst_gap = max(worst_gap, abs(sv - float(brute.frac)))
        else:
            infeasible += 1
            if not math.isinf(sv):
                worst_gap = math.inf
    elapsed = time.monotonic() - t0
    ok = exact_lp and worst_gap <= 1e-4 and elapsed < 600
    _verdict(
        1, ok,
        f"100 instances, full-level LP exact = {exact_lp}, worst SDP gap "
        f"{worst_gap:.2e} (limit 1e-4), {infeasible} infeasible refuted, "
        f"{elapsed:.1f}s (< 600s)",
    )


def test_criterion_02_sandwich_and_monotonicity(corpus_levels):
    sandwich = monotone = True
    for brute, per_level in corpus_levels["rows"]:
        bf = _as_float(brute)
        prev_lp, prev_sdp = None, None
        for lv, sv in per_level:
            lf = _as_float(lv)
            sandwich = sandwich and lf <= sv + 1e-5 and sv <= bf + 1e-5
            if prev_lp is not None:
                monotone = monotone and prev_lp <= lv  # exact rational order
                monotone = monotone and sv >= prev_sdp - 1e-5
            prev_lp, prev_sdp = lv, sv
    ok = sandwich and monotone
    _verdict(
        2, ok,
        f"100 instances x levels 1..3: lp <= sdp + 1e-5 <= opt + 1e-5 is "
        f"{sandwich}, nondecreasing in k is {monotone}",
    )


def test_criterion_03_l7_property(corpus_levels, transport_bundle):
    solutions = list(corpus_levels["registry"])
    solutions.append(("transport source", transport_bundle["lam"],
                      transport_bundle["model_i"]))
    solutions.append(("transported min", transport_bundle["kap_min"],
                      transport_bundle["kap_min"].model))
    solutions.append(("transported max", transport_bundle["kap_max"],
                      transport_bundle["kap_max"].model))
    failed = [
        label for label, sol, model in solutions
        if not verify_L7(sol, model, eps=10 * sol.eps).ok
    ]
    # negative control: a symmetric off-diagonal bump must be caught
    control_fails = False
    for label, sol, model in solutions:
        rows = next(
            (sorted(b.values()) for b in model.aug_rows if len(b) >= 2),
            None,
        )
        if rows is None:
            continue
        M = sol.M.copy()
        M[rows[0], rows[1]] += 0.01
        M[rows[1], rows[0]] += 0.01
        control_fails = not verify_L7(M, model, eps=1e-3).ok
        break
    ok = not failed and control_fails
    _verdict(
        3, ok,
        f"{len(solutions)} Gram solutions pass verify_L7 at 10*eps "
        f"(failed: {failed or 'none'}); corrupted control rejected = "
        f"{control_fails}",
    )


def test_criterion_04_submodular_third_level():
    # f(min) + f(max) <= f(x) + f(y) holds for every table below, so
    # the language is submodular and its third level is exact
    imp = _imp_soft()
    pay0 = WeightedRelation.from_entries("pay0", 1, 2, {(0,): 1, (1,): 0})
    pay1 = WeightedRelation.from_entries("pay1", 1, 2, {(0,): 0, (1,): 1})
    rng = random.Random(2604)
    checked = 0
    exact = True
    sizes = []
    for _ in range(50):
        n = rng.randint(3, 10)
        sizes.append(n)
        inst = VCSPInstance(n, 2)
        for _ in range(n + rng.randint(0, 4)):
            if rng.random() < 0.6:
                a, b = rng.sample(range(n), 2)
                inst.add_constraint(imp, (a, b))
            else:
                inst.add_constraint(
                    rng.choice([pay0, pay1]), (rng.randrange(n),)
                )
        brute, _ = brute_force_opt(inst)
        exact = exact and _same_value(lp_opt(inst, 3), brute)
        checked += 1
    _verdict(
        4, exact and checked >= 50,
        f"{checked} submodular instances (n up to {max(sizes)}): "
        f"lp_opt(I, 3) = optimum exactly = {exact}",
    )


def test_criterion_05_bwc_verdicts():
    imp = _imp_soft()
    pay0 = WeightedRelation.from_entries("pay0", 1, 2, {(0,): 1, (1,): 0})
    pay1 = WeightedRelation.from_entries("pay1", 1, 2, {(0,): 0, (1,): 1})
    sub = bwc_report(ConstraintLanguage(2, [imp, pay0, pay1]), m_max=4)
    lang = build_equation_language(make_group("Z2"), 3)
    eq_lang = ConstraintLanguage(2, list(lang.relations().values()))
    ez = bwc_report(eq_lang, m_max=4)
    # required verdict for the equation language: "violated at 4".  The
    # language holds sum1=0 and sum1=1, so its polymorphisms are the
    # idempotent affine maps over GF(2): sums of an odd number of
    # arguments.  Arity 3 is satisfied: the minority x+y+z preserves every
    # sum{m}=a and p(y,x,x) = p(x,y,x) = p(x,x,y) = y.  Arity 4 is
    # violated: the identities force equal coefficients, whose sum is
    # then even, not 1.
    sub_ok = sub.summary == "satisfied up to 4"
    ez_ok = (ez.summary == "violated at 4"
             and ez.verdicts == {3: "satisfied", 4: "violated"})
    witness = ez.witnesses.get(3)
    witness_ok = (
        witness is not None
        and check_fractional_polymorphism(witness, eq_lang)[0]
        and witness.weight_on(lambda op: op.satisfies_wnu_identities()) > 0
    )
    # evidence for arity 3 that does not go through bwc_report
    minority = Operation(
        "minority", 3, 2,
        [x ^ y ^ z for x, y, z in itertools.product(range(2), repeat=3)],
    )
    minority_ok = (is_language_polymorphism(minority, eq_lang)[0]
                   and minority.satisfies_wnu_identities())
    ok = sub_ok and ez_ok and witness_ok and minority_ok
    _verdict(
        5, ok,
        f"submodular summary = {sub.summary!r} (required 'satisfied up to "
        f"4'); mod-2 equation language summary = {ez.summary!r}, verdicts "
        f"{ez.verdicts} (required 'violated at 4': odd-arity sums mod 2 are "
        f"weak near-unanimity polymorphisms, even arities have none); "
        f"arity-3 witness is a fractional polymorphism with mass on WNUs = "
        f"{witness_ok}; minority x+y+z is a WNU polymorphism = {minority_ok}",
    )


def _random_reduction_instance(rng, pool, forced, n_lo=2, n_hi=4):
    n = rng.randint(n_lo, n_hi)
    inst = VCSPInstance(n, 2)
    inst.add_constraint(
        forced, tuple(rng.randrange(n) for _ in range(forced.arity))
    )
    for _ in range(rng.randint(1, 3)):
        rel = rng.choice(pool)
        inst.add_constraint(
            rel, tuple(rng.randrange(n) for _ in range(rel.arity))
        )
    return inst


def _cover_isolated(inst, filler):
    used = set()
    for c in inst.constraints:
        used.update(c.scope)
    for v in range(inst.num_vars):
        if v not in used:
            inst.add_constraint(filler, (v,))
    return inst


def test_criterion_06_reduction_soundness():
    imp = _imp_soft()
    soft = _soft_unary()
    eq2 = WeightedRelation.from_entries("eq", 2, 2, {(0, 0): 0, (1, 1): 0})
    chain = WeightedRelation.from_entries(
        "chain", 2, 2, {(1, 0): 1}, default=0
    )
    xor2 = WeightedRelation.from_entries(
        "xor", 2, 2, {(0, 1): 0, (1, 0): 0}
    )
    phif = WeightedRelation.from_entries(
        "phif", 1, 2, {(0,): Fraction(3, 2), (1,): INF}
    )
    softopt = opt_of(soft, "softopt")
    phifeas = feas_of(phif, "phifeas")

    u01 = WeightedRelation.from_entries("u01", 1, 3, {(0,): 0, (1,): 0})
    eqp = WeightedRelation.from_entries(
        "eqp", 2, 3, {(0, 0): 0, (1, 1): 0}
    )
    xorp = WeightedRelation.from_entries(
        "xorp", 2, 3, {(0, 1): 0, (1, 0): 0}
    )
    softp = WeightedRelation.from_entries(
        "softp", 1, 3, {(0,): 2, (1,): Fraction(1, 3)}
    )
    interp = Interpretation(
        1, [(0,), (1,)], {(0,): 0, (1,): 1}, 2,
        _unit_gadget(u01, "u01"), _unit_gadget(eqp, "eqp"),
        {"xor": (xor2, _unit_gadget(xorp, "xor")),
         "soft": (soft, _unit_gadget(softp, "soft"))},
    )

    rng = random.Random(2026)
    failures = []
    counts = {}

    def run(kind, make_trace):
        for i in range(20):
            trace = make_trace(rng)
            ok, msg = oracle_value_identity(trace)
            report = verify_reduction(trace)
            if not (ok and report.ok):
                failures.append((kind, i, msg, repr(report)))
        counts[kind] = 20

    run("express", lambda r: reduce_expressibility(
        _random_reduction_instance(r, [chain, soft, imp], chain),
        {"chain": _chain_gadget()}))
    run("eq", lambda r: reduce_equality(
        _random_reduction_instance(r, [eq2, soft, imp], eq2)))
    run("interp", lambda r: apply_interpretation(
        interp,
        _cover_isolated(
            _random_reduction_instance(r, [xor2, soft], xor2), soft)))
    # opt recovery needs satisfiable sources; every table here is
    # finite except the argmin pin, which is a consistent unary
    run("opt", lambda r: reduce_opt(
        _random_reduction_instance(r, [soft, imp, softopt], softopt), soft))
    run("feas", lambda r: reduce_feas(
        _random_reduction_instance(r, [phifeas, imp], phifeas), phif))

    ok = not failures and all(c >= 20 for c in counts.values())
    _verdict(
        6, ok,
        f"{sum(counts.values())} traces over {len(counts)} reduction types: "
        f"oracle identity and conditions (a)-(c) all pass "
        f"(failures: {failures or 'none'})",
    )


def test_criterion_07_transport(transport_bundle):
    lam = transport_bundle["lam"]
    kap = transport_bundle["kap_min"]
    kap_alt = transport_bundle["kap_max"]
    bound = 10 * kap.eps
    res = dict(kap.residuals)
    min_eig = res.pop("min_eig")
    residuals_ok = (
        max(v for k, v in res.items() if k != "rho") <= bound
        and min_eig >= -bound
    )
    l7_ok = verify_L7(kap, kap.model, eps=bound).ok
    objective_ok = kap.objective <= lam.objective + 1e-5
    agree = float(np.max(np.abs(kap.M - kap_alt.M)))
    agree_ok = agree <= bound
    ok = (kap.status == "transported" and residuals_ok and l7_ok
          and objective_ok and agree_ok)
    _verdict(
        7, ok,
        f"kprime=3 expressibility transport: residuals <= 10*eps = "
        f"{residuals_ok}, L7 = {l7_ok}, objective {kap.objective:.8f} <= "
        f"{lam.objective:.8f} + 1e-5 = {objective_ok}, covering-block "
        f"agreement {agree:.2e} <= {bound:.2e} = {agree_ok}",
    )


def test_criterion_08_sa_gap_pair():
    peven = WeightedRelation.from_entries(
        "peven", 2, 2, {(0, 0): 0, (1, 1): 0}
    )
    podd = WeightedRelation.from_entries(
        "podd", 2, 2, {(0, 1): 0, (1, 0): 0}
    )
    inst = VCSPInstance(2, 2)
    inst.add_constraint(peven, (0, 1)).add_constraint(podd, (0, 1))
    v1 = lp_opt(inst, 1)
    v2 = lp_opt(inst, 2)
    # level 1 sees each constraint alone (each is satisfiable); level 2
    # joins them on the pair block, whose support is empty
    ok = v1.is_finite and v1.frac == 0 and not v2.is_finite
    _verdict(
        8, ok,
        f"contradictory parity pair: lp_opt(k=1) = "
        f"{v1.frac if v1.is_finite else 'inf'} (required 0), lp_opt(k=2) = "
        f"{'inf' if not v2.is_finite else v2.frac} (required inf)",
    )


def _np_satisfiable(n, cons, p):
    # independent vectorized check: enumerate all p**n assignments
    grids = np.indices((p,) * n).reshape(n, -1).T.astype(np.int8)
    mask = np.ones(len(grids), dtype=bool)
    for scope, rhs in cons:
        mask &= (grids[:, list(scope)].sum(axis=1) % p) == rhs
    return bool(mask.any())


K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_criterion_09_equation_oracle():
    mismatches = 0
    checked = 0
    for spec in ("Z2", "Z3"):
        group = make_group(spec)
        lang = build_equation_language(group, 3)
        p = group.order
        rng = random.Random(90 + p)
        for _ in range(100):
            n = rng.randint(2, 12)
            cons = []
            inst = VCSPInstance(n, p)
            for _ in range(rng.randint(1, 2 * n)):
                r = rng.randint(1, 3)
                scope = tuple(rng.randrange(n) for _ in range(r))
                rhs = rng.randrange(p)
                cons.append((scope, rhs))
                inst.add_constraint(lang.relation(r, rhs), scope)
            if linear_satisfiable(inst, group) != _np_satisfiable(n, cons, p):
                mismatches += 1
            checked += 1
    # K4: every edge meets two vertex equations, so the doubled sum is
    # 0 mod 2 and satisfiability is exactly evenness of the total charge
    group = make_group("Z2")
    k4_bad = sum(
        1 for charges in itertools.product(range(2), repeat=4)
        if linear_satisfiable(tseitin(K4_EDGES, list(charges), group), group)
        != (sum(charges) % 2 == 0)
    )
    ok = mismatches == 0 and k4_bad == 0 and checked == 200
    _verdict(
        9, ok,
        f"{checked} random Z2/Z3 systems agree with exhaustive check "
        f"({mismatches} mismatches); K4 charge sweep: {k4_bad}/16 wrong",
    )


def test_criterion_10_gap_search_contract():
    group = make_group("Z2")
    reports = []
    reports += gap_search(group, 3, [6], family="tseitin", count=3, seed=4)
    reports += gap_search(group, 3, [6], family="kxor", count=2, seed=4,
                          density=4.0)
    # the first certificate check is at iteration 4: 3 exhausts first
    budget = gap_search(group, 3, [6], family="tseitin", count=1, seed=4,
                        max_iter=3)
    reports += budget
    violations = []
    for i, rep in enumerate(reports):
        if rep.verdict not in ("gap", "no-gap", "inconclusive"):
            violations.append((i, "unknown verdict"))
        if rep.verdict == "gap":
            # a claimed gap must have been re-verified in full
            if rep.vcsp_opt.is_finite:
                violations.append((i, "gap with satisfiable oracle"))
            if not rep.diagnostics.get("l7_ok"):
                violations.append((i, "gap without L7 re-check"))
            if "residual_unit" not in rep.diagnostics:
                violations.append((i, "gap without fresh residuals"))
        if rep.vcsp_opt.is_finite and rep.verdict != "no-gap":
            violations.append((i, "satisfiable instance not no-gap"))
        if rep.verdict == "inconclusive" and "note" not in rep.diagnostics:
            violations.append((i, "inconclusive without a reason"))
    budget_ok = all(
        r.verdict == "inconclusive"
        and r.diagnostics["note"].startswith("budget exhausted")
        for r in budget
    )
    tally = {v: sum(1 for r in reports if r.verdict == v)
             for v in ("gap", "no-gap", "inconclusive")}
    ok = not violations and budget_ok
    _verdict(
        10, ok,
        f"{len(reports)} reports ({tally}): every gap re-verified, "
        f"exhausted budgets inconclusive = {budget_ok}, violations: "
        f"{violations or 'none'}",
    )
