"""Level-k LP relaxation: construction, exact solving, residual checks.

Frozen values are derived in the comments next to each assertion.
"""

import itertools
import random
from fractions import Fraction

import pytest

import vcsprelax.algebra as algebra
import vcsprelax.sherali_adams as sherali_adams
import vcsprelax.simplex as simplex
from vcsprelax.equations import make_group, random_kxor
from vcsprelax.errors import CapExceeded, InternalError, NonConvergence
from vcsprelax.model import (
    ConstraintLanguage,
    VCSPInstance,
    WeightedRelation,
    brute_force_opt,
)
from vcsprelax.sherali_adams import (
    build_sa,
    lp_opt,
    solve_lp_exact,
    verify_sa,
)
from vcsprelax.simplex import Certificate, ExactLP, LPResult, certificate_problems, solve_lp
from vcsprelax.values import INF, ZERO, ExtValue


def eq2():
    return WeightedRelation.from_entries("eq2", 2, 2, {(0, 0): 0, (1, 1): 0})


def neq2():
    return WeightedRelation.from_entries("neq2", 2, 2, {(0, 1): 0, (1, 0): 0})


def same_soft():
    # cost 1 when both ends agree, the cut objective on one edge
    return WeightedRelation.from_entries(
        "same", 2, 2, {(0, 0): 1, (1, 1): 1}, default=0
    )


def imp_soft():
    return WeightedRelation.from_entries("imp", 2, 2, {(1, 0): 1}, default=0)


def pin_cost(name, label, cost):
    # unary: pay `cost` unless the variable takes `label`
    return WeightedRelation.from_entries(
        name, 1, 2, {(label,): 0, (1 - label,): cost}
    )


def _random_instance(rng, n, d, q):
    rels = []
    for i in range(3):
        arity = rng.choice([1, 2])
        table = []
        for _ in range(d**arity):
            if rng.random() < 0.25:
                table.append(INF)
            else:
                table.append(Fraction(rng.randint(-4, 6), rng.choice([1, 2, 3])))
        rels.append(WeightedRelation(f"r{i}", arity, d, table))
    inst = VCSPInstance(n, d)
    for _ in range(q):
        rel = rng.choice(rels)
        scope = [rng.randrange(n) for _ in range(rel.arity)]
        inst.add_constraint(rel, scope)
    return inst


def _reference_lp(instance, level, subset_mode="full"):
    """The lambda-form LP that build_sa wrote before its moment
    coordinates: one column per (block, feasible assignment), unit mass
    per block, small blocks tied to the designated block of their scope
    set, wide blocks marginalized onto every size-level subset, and
    designated blocks chained down one variable at a time."""
    d = instance.domain_size
    aug, designated = sherali_adams.augment_instance(instance, level, subset_mode)
    col_of = {}
    objective = {}
    for i, entry in enumerate(aug):
        for sigma, cost in entry.assignments(d):
            col_of[(i, sigma)] = len(col_of)
            if cost:
                objective[col_of[(i, sigma)]] = cost
    lp = ExactLP(len(col_of))
    lp.set_objective(objective)

    def tie(plus, minus):
        row = {}
        for key in plus:
            if key in col_of:
                row[col_of[key]] = row.get(col_of[key], 0) + 1
        for key in minus:
            if key in col_of:
                row[col_of[key]] = row.get(col_of[key], 0) - 1
        if row:
            lp.add_eq(row, 0)

    for i, entry in enumerate(aug):
        lp.add_eq({col_of[(i, sigma)]: 1 for sigma, _ in entry.assignments(d)}, 1)
    for i, entry in enumerate(aug):
        x_i = entry.vars
        if entry.is_null:
            continue
        if len(x_i) <= level:
            j = designated[x_i]
            for sigma in itertools.product(range(d), repeat=len(x_i)):
                if j != i:
                    tie([(i, sigma)], [(j, sigma)])
            continue
        for sub in itertools.combinations(x_i, level):
            idx = [x_i.index(v) for v in sub]
            for tau in itertools.product(range(d), repeat=level):
                tie([(i, sigma) for sigma in entry.feasible_set(d)
                     if tuple(sigma[t] for t in idx) == tau],
                    [(designated[sub], tau)])
    for x, i in designated.items():
        for t in range(len(x) if len(x) > 1 else 0):
            sub = x[:t] + x[t + 1:]
            for tau in itertools.product(range(d), repeat=len(sub)):
                tie([(i, tau[:t] + (a,) + tau[t:]) for a in range(d)],
                    [(designated[sub], tau)])
    return lp


def test_build_counts_single_binary():
    inst = VCSPInstance(2, 2).add_constraint(imp_soft(), (0, 1))
    model = build_sa(inst, 2)
    # the constraint is its own designated block for {0,1}; nulls cover
    # only the two singletons
    assert set(model.designated) == {(0,), (1,), (0, 1)}
    assert model.designated[(0, 1)] == 0
    assert len(model.aug) == 3
    # moments y(empty), y(x0=1), y(x1=1), y(x0=x1=1), and 4 feasible
    # constraint assignments plus 2 + 2 singleton null ones as lambda
    assert model.moments == [((), ()), ((0,), (1,)), ((1,), (1,)), ((0, 1), (1, 1))]
    assert model.num_columns == 4
    assert len(model.expansion) == 8
    # 1[x0=1, x1=0] = y(x0=1) - y(x0=x1=1) carries the only cost, and
    # one row per lambda entry joins y(empty) = 1
    assert model.expansion[(0, (1, 0))] == {1: 1, 3: -1}
    assert model.lp.objective == {1: 1, 3: -1}
    assert model.num_rows == 9


def test_designated_blocks_unique_per_scope_set():
    inst = VCSPInstance(3, 2)
    inst.add_constraint(imp_soft(), (0, 1))
    inst.add_constraint(same_soft(), (0, 1))
    model = build_sa(inst, 2)
    # the first original claims {0,1}; nulls fill in the rest, once each
    assert model.designated[(0, 1)] == 0
    sets = [e.vars for e in model.aug if e.is_null]
    assert len(sets) == len(set(sets))
    assert set(sets) == {(0,), (1,), (2,), (0, 2), (1, 2)}
    assert set(model.designated) == {(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)}


def test_same_scope_constraints_share_designated_block():
    # two soft constraints on one edge: the second ties assignment-wise to
    # the first, so the LP already sums their costs at level 1
    inst = VCSPInstance(2, 2)
    inst.add_constraint(same_soft(), (0, 1))
    inst.add_constraint(imp_soft(), (0, 1))
    model = build_sa(inst, 2)
    assert model.designated[(0, 1)] == 0
    sol = solve_lp_exact(model)
    # brute force: assignment (0,1) costs 0 + 0 = 0
    assert sol.value == ZERO
    assert verify_sa(model, sol).ok


def test_single_constraint_point_mass():
    # the LP puts all mass on a cheapest feasible tuple
    rel = WeightedRelation.from_entries(
        "r", 2, 2, {(0, 1): Fraction(1, 3), (1, 0): 2}
    )
    inst = VCSPInstance(2, 2).add_constraint(rel, (0, 1))
    for k in (1, 2):
        assert lp_opt(inst, k) == ExtValue(Fraction(1, 3))


def test_contradictory_parity_pair():
    # both parities on one edge: level 1 only ties the singleton marginals,
    # which the two uniform local distributions satisfy; level 2 routes both
    # constraints through the shared pair block whose supports are disjoint
    inst = VCSPInstance(2, 2)
    inst.add_constraint(eq2(), (0, 1))
    inst.add_constraint(neq2(), (0, 1))
    assert brute_force_opt(inst)[0] == INF
    assert lp_opt(inst, 1) == ZERO
    assert lp_opt(inst, 2) == INF
    sol = solve_lp_exact(build_sa(inst, 2))
    assert sol.status == "infeasible"


def test_triangle_cut_levels():
    # cut costs on a triangle: any 2-coloring leaves one uncut edge, and
    # any distribution over colorings pays at least 1 since the three
    # pairwise-equal indicators sum to at least 1 pointwise
    inst = VCSPInstance(3, 2)
    inst.add_constraint(same_soft(), (0, 1))
    inst.add_constraint(same_soft(), (1, 2))
    inst.add_constraint(same_soft(), (0, 2))
    assert brute_force_opt(inst)[0] == ExtValue(1)
    assert lp_opt(inst, 1) == ZERO
    assert lp_opt(inst, 2) == ZERO
    assert lp_opt(inst, 3) == ExtValue(1)


def test_submodular_chain_exact_at_level_one():
    # pinning the ends of an implication chain forces one violated edge
    inst = VCSPInstance(3, 2)
    inst.add_constraint(imp_soft(), (0, 1))
    inst.add_constraint(imp_soft(), (1, 2))
    inst.add_constraint(pin_cost("want1", 1, 2), (0,))
    inst.add_constraint(pin_cost("want0", 0, 2), (2,))
    assert brute_force_opt(inst)[0] == ExtValue(1)
    assert lp_opt(inst, 1) == ExtValue(1)


def test_full_level_matches_brute_force():
    rng = random.Random(23)
    for trial in range(12):
        inst = _random_instance(rng, n=rng.randint(1, 4), d=2, q=rng.randint(1, 5))
        exact = brute_force_opt(inst)[0]
        assert lp_opt(inst, max(1, inst.num_vars)) == exact, f"trial {trial}"


def test_monotone_in_level():
    rng = random.Random(31)
    for trial in range(6):
        inst = _random_instance(rng, n=rng.randint(2, 4), d=2, q=rng.randint(1, 4))
        vals = [lp_opt(inst, k) for k in (1, 2, 3)]
        assert vals[0] <= vals[1] <= vals[2]
        assert vals[2] <= brute_force_opt(inst)[0]


def test_scopes_mode_skips_unused_variables():
    inst = VCSPInstance(3, 2).add_constraint(imp_soft(), (0, 1))
    full = build_sa(inst, 2, subset_mode="full")
    scopes = build_sa(inst, 2, subset_mode="scopes")
    assert (2,) in full.designated and (2,) not in scopes.designated
    assert scopes.num_columns < full.num_columns
    assert solve_lp_exact(full).value == solve_lp_exact(scopes).value == ZERO


def test_empty_and_trivial_instances():
    assert lp_opt(VCSPInstance(2, 2), 1) == ZERO
    assert lp_opt(VCSPInstance(0, 2), 1) == ZERO


def test_unsatisfiable_single_constraint():
    empty = WeightedRelation("never", 1, 2, [INF, INF])
    inst = VCSPInstance(1, 2).add_constraint(empty, (0,))
    assert lp_opt(inst, 1) == INF


def test_repeated_variable_scope():
    # scope (x,x) restricts to the diagonal of the relation
    inst = VCSPInstance(1, 2).add_constraint(neq2(), (0, 0))
    assert lp_opt(inst, 1) == INF
    inst2 = VCSPInstance(1, 2).add_constraint(imp_soft(), (0, 0))
    assert lp_opt(inst2, 1) == ZERO


def test_level_above_variable_count():
    inst = VCSPInstance(2, 2)
    inst.add_constraint(same_soft(), (0, 1))
    inst.add_constraint(pin_cost("p", 0, 1), (0,))
    assert lp_opt(inst, 5) == lp_opt(inst, 2) == brute_force_opt(inst)[0]


def test_column_cap():
    inst = VCSPInstance(6, 2).add_constraint(imp_soft(), (0, 1))
    with pytest.raises(CapExceeded):
        build_sa(inst, 3, column_cap=10)


def test_expansion_needs_designated_subsets(monkeypatch):
    # the Moebius expansion of a scope set reads the moments of all its
    # subsets, so a designated set without its subsets is a fault
    real = sherali_adams.augment_instance

    def drop_singleton(*args):
        aug, designated = real(*args)
        del designated[(0,)]
        return aug, designated

    monkeypatch.setattr(sherali_adams, "augment_instance", drop_singleton)
    inst = VCSPInstance(2, 2).add_constraint(imp_soft(), (0, 1))
    with pytest.raises(InternalError, match="lacks a designated subset"):
        build_sa(inst, 2)


def test_verify_clean_solution():
    inst = VCSPInstance(3, 2)
    inst.add_constraint(imp_soft(), (0, 1))
    inst.add_constraint(same_soft(), (1, 2))
    model = build_sa(inst, 2)
    sol = solve_lp_exact(model)
    check = verify_sa(model, sol)
    assert check.ok
    assert check.max_residual == 0


def test_verify_catches_corruption():
    inst = VCSPInstance(2, 2).add_constraint(imp_soft(), (0, 1))
    model = build_sa(inst, 2)
    sol = solve_lp_exact(model)
    key = next(iter(sol.lam))
    sol.lam[key] += Fraction(1, 7)
    check = verify_sa(model, sol)
    assert not check.ok
    assert check.max_residual >= Fraction(1, 7)
    assert check.violations
    # an intact lambda with a misreported value
    sol = solve_lp_exact(model)
    sol.value = ExtValue(sol.value.frac + 1)
    assert not verify_sa(model, sol).ok


def _block_violations(model, lam):
    """The block conditions of verify_sa as a plain Fraction loop, in
    verify_sa's order: nonneg and zero per assignment, then mass, per
    block; then every nested pair's marginals."""
    d = model.instance.domain_size
    at = lambda i, sigma: lam.get((i, sigma), Fraction(0))  # noqa: E731
    feas = [e.feasible_set(d) for e in model.aug]
    out = []
    for i, e in enumerate(model.aug):
        total = Fraction(0)
        for sigma in itertools.product(range(d), repeat=len(e.vars)):
            val = at(i, sigma)
            if val < 0:
                out.append(("nonneg", (i, sigma), -val))
            if sigma not in feas[i] and val != 0:
                out.append(("zero", (i, sigma), abs(val)))
            total += val
        if total != 1:
            out.append(("mass", i, abs(total - 1)))
    for i, ei in enumerate(model.aug):
        for j, ej in enumerate(model.aug):
            if i == j or len(ej.vars) > model.level or not set(ej.vars) <= set(ei.vars):
                continue
            idx = [ei.vars.index(v) for v in ej.vars]
            for tau in itertools.product(range(d), repeat=len(ej.vars)):
                s = sum((at(i, sigma) for sigma in feas[i]
                         if tuple(sigma[t] for t in idx) == tau), Fraction(0))
                if s != at(j, tau):
                    out.append(("marginal", (i, j, tau), abs(s - at(j, tau))))
    return out


def test_verify_block_checks_match_reference_loop():
    rng = random.Random(23)
    blocks = ("nonneg", "zero", "mass", "marginal")
    compared = 0
    while compared < 30:
        inst = _random_instance(rng, rng.randint(2, 4), rng.choice([2, 3]), rng.randint(1, 4))
        model = build_sa(inst, 2)
        sol = solve_lp_exact(model)
        if sol.status != "optimal":
            continue
        keys = list(sol.lam)
        for _ in range(rng.randint(0, 3)):
            move = rng.randrange(3)
            if move == 0:
                sol.lam[rng.choice(keys)] += Fraction(rng.randint(-3, 3), rng.choice([1, 7, 11]))
            elif move == 1:
                sol.lam.pop(rng.choice(keys), None)
            else:
                i = rng.randrange(len(model.aug))
                sigma = tuple(rng.randrange(inst.domain_size) for _ in model.aug[i].vars)
                sol.lam[(i, sigma)] = Fraction(rng.randint(1, 5), 13)
        check = verify_sa(model, sol, max_violations=10 ** 6)
        want = _block_violations(model, sol.lam)
        assert [v for v in check.violations if v[0] in blocks] == want
        assert check.max_residual >= max((r for _, _, r in want), default=0)
        if want:
            assert not check.ok
        compared += 1


def test_verify_checks_two_phase_ray(monkeypatch):
    # the rounded HiGHS ray certifies this small model; forced past the
    # ladder, the ray comes from the phase-1 reduced costs.  verify_sa
    # checks it and rejects a missing or zero one
    inst = VCSPInstance(2, 2)
    inst.add_constraint(eq2(), (0, 1))
    inst.add_constraint(neq2(), (0, 1))
    model = build_sa(inst, 2)
    sol = solve_lp_exact(model)
    assert sol.path == "certified" and sol.certificate.kind == "farkas"
    assert verify_sa(model, sol).ok
    _uncertified(monkeypatch)
    sol = solve_lp_exact(model)
    assert sol.path == "two-phase" and sol.certificate.kind == "farkas"
    assert verify_sa(model, sol).ok
    sol.certificate = Certificate("farkas", [Fraction(0)] * model.num_rows)
    assert not verify_sa(model, sol).ok
    sol.certificate = None
    assert not verify_sa(model, sol).ok
    # a multiplier on a <= row must be <= 0: +1 on the redundant row
    # -lambda_0 <= 0 leaves A^T y <= 0 and b.y > 0 intact, and only the
    # sign condition rejects it
    model.lp.add_le({0: -1}, 0)
    sol = solve_lp_exact(model)
    assert verify_sa(model, sol).ok
    y = list(sol.certificate.y)
    y[-1] = Fraction(1)
    sol.certificate = Certificate("farkas", y)
    assert not verify_sa(model, sol).ok


def test_solution_blocks_are_distributions():
    inst = VCSPInstance(3, 2)
    inst.add_constraint(same_soft(), (0, 1))
    inst.add_constraint(same_soft(), (1, 2))
    model = build_sa(inst, 2)
    sol = solve_lp_exact(model)
    mass = {}
    for (i, sigma), w in sol.lam.items():
        assert w >= 0
        mass[i] = mass.get(i, Fraction(0)) + w
    assert set(mass) == set(range(len(model.aug)))
    assert all(m == 1 for m in mass.values())


def test_unexpected_lp_status_raises(monkeypatch):
    # an SA model is bounded, so "unbounded" is an internal fault; it must
    # raise even under python -O
    monkeypatch.setattr(sherali_adams, "solve_lp",
                        lambda lp: LPResult("unbounded"))
    inst = VCSPInstance(2, 2).add_constraint(eq2(), (0, 1))
    with pytest.raises(InternalError, match="unbounded"):
        solve_lp_exact(build_sa(inst, 2))


# ------------------------------------------------ certified exact answers

def _uncertified(monkeypatch):
    # HiGHS still runs, but no rung of the ladder is tried
    monkeypatch.setattr(simplex, "_DENOMINATORS", ())


def _flipped(cert, k):
    y = list(cert.y)
    y[k] = -y[k]
    return Certificate(cert.kind, y)


def test_infeasible_3xor_certified_by_farkas_ray():
    # 14 parity equations on 5 variables: level 3 refutes them, and the
    # rounded HiGHS ray passes the exact check without a pivot
    model = build_sa(random_kxor(5, 14, make_group("Z2"), seed=1), 3)
    assert model.num_rows >= 150
    sol = solve_lp_exact(model)
    assert (sol.status, sol.path, sol.pivots) == ("infeasible", "certified", 0)
    assert sol.certificate.kind == "farkas"
    assert verify_sa(model, sol).ok
    ray = sol.certificate
    for k in [k for k, v in enumerate(ray.y) if v][:5]:
        sol.certificate = _flipped(ray, k)
        assert not verify_sa(model, sol).ok


def _submodular_instance(rng, n):
    # the criterion-4 generator: implications and unit payments
    inst = VCSPInstance(n, 2)
    pay = [pin_cost("pay0", 1, 1), pin_cost("pay1", 0, 1)]
    for _ in range(n + rng.randint(0, 4)):
        if rng.random() < 0.6:
            inst.add_constraint(imp_soft(), rng.sample(range(n), 2))
        else:
            inst.add_constraint(rng.choice(pay), (rng.randrange(n),))
    return inst


def test_submodular_optimum_certified_by_dual(monkeypatch):
    inst = _submodular_instance(random.Random(2604), 9)
    model = build_sa(inst, 3)
    assert model.num_rows >= 150
    sol = solve_lp_exact(model)
    assert (sol.status, sol.path, sol.pivots) == ("optimal", "certified", 0)
    assert sol.certificate.kind == "dual"
    assert verify_sa(model, sol).ok
    assert sol.value == brute_force_opt(inst)[0]
    dual = sol.certificate
    k = next(k for k, v in enumerate(dual.y) if v)
    y = list(dual.y)
    y[k] += 1
    sol.certificate = Certificate("dual", y)
    assert not verify_sa(model, sol).ok
    # y = 0 is dual feasible (all costs are >= 0) but bounds the value
    # only by 0 < 1, so it proves nothing
    assert sol.value == ExtValue(Fraction(1))
    sol.certificate = Certificate("dual", [Fraction(0)] * model.num_rows)
    assert not verify_sa(model, sol).ok
    # forced past the ladder, the cold two-phase simplex reproduces the
    # value under the default budget, and stops with NonConvergence
    # instead of answering once the budget is cut below what it needs
    _uncertified(monkeypatch)
    ref = solve_lp_exact(model)
    assert (ref.path, ref.value) == ("two-phase", sol.value)
    assert verify_sa(model, ref).ok
    monkeypatch.setattr(simplex, "_WORK_BUDGET", 1_000)
    with pytest.raises(NonConvergence, match="work budget of 1000"):
        solve_lp_exact(model)


def _large_models(rng, count, draws=100):
    """Random SA models whose lambda-form LP has at least 150 rows:
    weighted binary and ternary instances at level 2, and parity pairs
    at level 3.  At most `draws` instances are drawn."""
    out = []
    for _ in range(draws):
        if len(out) == count:
            return out
        if len(out) % 3 == 2:
            n = 5
            inst = VCSPInstance(n, 2)
            for _ in range(n + 1):
                inst.add_constraint(rng.choice([eq2(), neq2()]), rng.sample(range(n), 2))
            level = 3
        else:
            inst = _random_instance(rng, rng.randint(7, 8), 2, rng.randint(6, 12))
            level = 2
        if len(_reference_lp(inst, level).rows) >= 150:
            out.append(build_sa(inst, level))
    raise AssertionError(f"{draws} draws gave {len(out)} of {count} models")


def test_certified_and_pivoted_answers_agree(monkeypatch):
    models = _large_models(random.Random(11), 10)
    certified = [solve_lp_exact(m) for m in models]
    assert {s.status for s in certified} == {"optimal", "infeasible"}
    for model, sol in zip(models, certified):
        assert sol.path == "certified" and sol.certificate is not None
        assert verify_sa(model, sol).ok
    _uncertified(monkeypatch)
    for model, sol in zip(models, certified):
        ref = solve_lp_exact(model)
        assert ref.path != "certified"
        assert (ref.status, ref.value) == (sol.status, sol.value)


def test_moment_lp_matches_reference():
    # the moment LP and the lambda-form reference agree in status and
    # exact value: random instances at levels 1-3 and at full level (wide
    # blocks at level 1, d = 3 among them) in both subset modes, and the
    # ten large models
    rng = random.Random(37)
    cases = []
    for level in (1, 2, 3, None):
        for mode in ("full", "scopes"):
            for _ in range(4):
                inst = _random_instance(rng, rng.randint(1, 4), rng.choice([2, 3]),
                                        rng.randint(1, 5))
                cases.append((inst, level or max(1, inst.num_vars), mode))
    cases += [(m.instance, m.level, m.subset_mode)
              for m in _large_models(random.Random(11), 10)]
    statuses = set()
    for inst, level, mode in cases:
        want = solve_lp(_reference_lp(inst, level, mode))
        model = build_sa(inst, level, mode)
        got = solve_lp_exact(model)
        assert got.status == want.status
        assert got.value == (INF if want.status == "infeasible" else ExtValue(want.value))
        assert verify_sa(model, got).ok
        statuses.add(got.status)
    assert statuses == {"optimal", "infeasible"}


PRIMES = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157)


def _weighted_instance(rng):
    """12 binary tables on 8 variables, each entry k/p with p a prime
    from 101 to 157: LPs whose optima have denominators of many digits,
    which no rung of the ladder reaches."""
    inst = VCSPInstance(8, 2)
    for i in range(12):
        table = [Fraction(rng.randint(1, 100), rng.choice(PRIMES)) for _ in range(4)]
        inst.add_constraint(WeightedRelation(f"w{i}", 2, 2, table), rng.sample(range(8), 2))
    return inst


def test_repair_path_answers_weighted_lps(monkeypatch):
    # the two-phase simplex answers every level-3 weighted LP within a
    # budget of 1,000,000 updates, and verify_sa accepts each lambda
    _uncertified(monkeypatch)
    monkeypatch.setattr(simplex, "_WORK_BUDGET", 1_000_000)
    for seed in range(10):
        inst = _weighted_instance(random.Random(seed))
        model = build_sa(inst, 3)
        sol = solve_lp_exact(model)
        assert (sol.status, sol.path) == ("optimal", "two-phase")
        assert verify_sa(model, sol).ok
        assert sol.value <= brute_force_opt(inst)[0]


def _fpol_lps(monkeypatch):
    """The fractional-polymorphism LPs that algebra solves for the soft
    implication: a feasibility LP and two max-mass LPs (mass 1/2 on max,
    0 on xor), caught as they are solved."""
    lps = []

    def record(lp):
        lps.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(algebra, "solve_lp", record)
    lang = ConstraintLanguage(2, [imp_soft()])
    assert algebra.find_fractional_polymorphism(lang, 2) is not None
    for name, table in (("max", (0, 1, 1, 1)), ("xor", (0, 1, 1, 0))):
        algebra.supp_membership(lang, algebra.Operation(name, 2, 2, table))
    monkeypatch.undo()
    assert len(lps) == 3
    return lps


def _edge_lps():
    """0-row LPs with and without columns, an LP with no objective and
    one with only <= rows."""
    no_rows = ExactLP(3)
    no_rows.set_objective({0: 1, 2: Fraction(1, 2)})
    no_objective = ExactLP(2)
    no_objective.add_eq({0: 1, 1: 1}, 1)
    no_objective.add_ge({0: 1}, Fraction(1, 3))
    only_le = ExactLP(2)
    only_le.set_objective({0: -1, 1: -2})   # max x0 + 2 x1: 4/3
    only_le.add_le({0: 1, 1: 1}, 1)
    only_le.add_le({1: 3}, 1)
    return [(no_rows, 0), (ExactLP(0), 0), (no_objective, 0), (only_le, Fraction(-4, 3))]


def test_small_lps_are_certified_and_match_two_phase(monkeypatch):
    # every LP, however small, is answered by a checked HiGHS proposal:
    # an optimum with its dual, infeasibility with a Farkas ray.  The
    # forced two-phase simplex gives the same status and value
    rng = random.Random(29)
    models = []
    for level in (1, 2, 3):
        for q in (2, 3, 4):
            models.append(build_sa(_random_instance(rng, 4, 2, q), level))
    pair = VCSPInstance(2, 2).add_constraint(eq2(), (0, 1)).add_constraint(neq2(), (0, 1))
    models += [build_sa(pair, 1), build_sa(pair, 2)]
    sols = [solve_lp_exact(m) for m in models]
    assert {s.status for s in sols} == {"optimal", "infeasible"}
    for model, sol in zip(models, sols):
        assert (sol.path, sol.pivots) == ("certified", 0)
        kind = "dual" if sol.status == "optimal" else "farkas"
        assert sol.certificate.kind == kind
        assert verify_sa(model, sol).ok
    fpol = _fpol_lps(monkeypatch)
    edges = _edge_lps()
    lps = fpol + [lp for lp, _ in edges]
    results = [solve_lp(lp) for lp in lps]
    assert [r.value for r in results[3:]] == [v for _, v in edges]
    assert [r.value for r in results[1:3]] == [Fraction(-1, 2), 0]
    for lp, res in zip(lps, results):
        assert (res.status, res.path, res.pivots) == ("optimal", "certified", 0)
        assert list(certificate_problems(lp, res.certificate, "dual", res.value, res.x)) == []
    _uncertified(monkeypatch)
    for model, sol in zip(models, sols):
        ref = solve_lp_exact(model)
        assert ref.path == "two-phase"
        assert (ref.status, ref.value) == (sol.status, sol.value)
    for lp, res in zip(lps, results):
        ref = solve_lp(lp)
        assert ref.path == "two-phase"
        assert (ref.status, ref.value) == (res.status, res.value)
