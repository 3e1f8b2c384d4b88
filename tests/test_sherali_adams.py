"""Level-k LP relaxation: construction, exact solving, residual checks.

Frozen values are derived in the comments next to each assertion.
"""

import random
from fractions import Fraction

import pytest

import vcsprelax.sherali_adams as sherali_adams
import vcsprelax.simplex as simplex
from vcsprelax.equations import make_group, random_kxor
from vcsprelax.errors import CapExceeded, InternalError
from vcsprelax.model import (
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
from vcsprelax.simplex import Certificate, LPResult
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


def test_build_counts_single_binary():
    inst = VCSPInstance(2, 2).add_constraint(imp_soft(), (0, 1))
    model = build_sa(inst, 2)
    # the constraint is its own designated block for {0,1}; nulls cover
    # only the two singletons
    assert set(model.designated) == {(0,), (1,), (0, 1)}
    assert model.designated[(0, 1)] == 0
    assert len(model.aug) == 3
    # 4 feasible constraint columns plus 2 + 2 singleton null columns
    assert model.num_columns == 8
    # objective touches only the real constraint's block
    cost_cols = set(model.lp.objective)
    assert cost_cols == {model.col_of[(0, (1, 0))]}


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


def test_verify_checks_two_phase_ray():
    # below the HiGHS threshold the ray comes from the phase-1 reduced
    # costs; verify_sa checks it and rejects a missing or zero one
    inst = VCSPInstance(2, 2)
    inst.add_constraint(eq2(), (0, 1))
    inst.add_constraint(neq2(), (0, 1))
    model = build_sa(inst, 2)
    assert model.num_rows < simplex._FLOAT_GUIDE_MIN_ROWS
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
    assert model.num_rows >= simplex._FLOAT_GUIDE_MIN_ROWS
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
    assert model.num_rows >= simplex._FLOAT_GUIDE_MIN_ROWS
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
    _uncertified(monkeypatch)
    ref = solve_lp_exact(model)
    assert ref.path == "two-phase" and ref.certificate is None
    assert ref.value == sol.value


def _large_models(rng, count):
    """Random SA models of at least the HiGHS threshold: weighted binary
    and ternary instances at level 2, and parity pairs at level 3."""
    out = []
    while len(out) < count:
        if len(out) % 3 == 2:
            n = 5
            inst = VCSPInstance(n, 2)
            for _ in range(n + 1):
                inst.add_constraint(rng.choice([eq2(), neq2()]), rng.sample(range(n), 2))
            level = 3
        else:
            inst = _random_instance(rng, rng.randint(7, 8), 2, rng.randint(6, 12))
            level = 2
        model = build_sa(inst, level)
        if model.num_rows >= simplex._FLOAT_GUIDE_MIN_ROWS:
            out.append(model)
    return out


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
