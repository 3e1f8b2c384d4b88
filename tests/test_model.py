import itertools
import random
from fractions import Fraction

import pytest

import vcsprelax.model as model
from vcsprelax.errors import CapExceeded
from vcsprelax.model import (
    ConstraintLanguage,
    ValuedConstraint,
    VCSPInstance,
    WeightedRelation,
    brute_force_opt,
    evaluate,
    feas_of,
    opt_of,
    optimal_assignments,
    restrict_relation,
    scaled_objective,
)
from vcsprelax.values import INF, ZERO, ExtValue


def imp_relation(name="imp"):
    # cost 1 exactly on (1,0); the standard soft implication
    return WeightedRelation.from_entries(
        name, 2, 2, {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 0}
    )


def test_relation_table_order_is_lexicographic():
    rel = WeightedRelation("r", 2, 2, [0, 1, 2, INF])
    assert rel.value((0, 0)) == ZERO
    assert rel.value((0, 1)) == ExtValue(1)
    assert rel.value((1, 0)) == ExtValue(2)
    assert rel.value((1, 1)) == INF
    assert list(rel.tuples()) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_from_entries_default():
    rel = WeightedRelation.from_entries("r", 1, 3, {(1,): Fraction(1, 2)})
    assert rel.value((0,)) == INF
    assert rel.value((1,)) == ExtValue(Fraction(1, 2))
    assert rel.feasible_tuples() == [(1,)]


def test_feas_and_opt():
    rel = WeightedRelation("r", 2, 2, [3, 1, 1, INF])
    f = feas_of(rel)
    assert f.is_crisp
    assert f.feasible_tuples() == [(0, 0), (0, 1), (1, 0)]
    o = opt_of(rel)
    assert o.feasible_tuples() == [(0, 1), (1, 0)]
    # opt of an empty relation is empty
    empty = WeightedRelation("e", 1, 2, [INF, INF])
    assert opt_of(empty).feasible_tuples() == []


def test_feas_opt_idempotent():
    rel = WeightedRelation("r", 2, 2, [3, 1, 1, INF])
    assert feas_of(feas_of(rel)).table == feas_of(rel).table
    assert opt_of(opt_of(rel)).table == opt_of(rel).table
    # opt of a crisp relation is the relation itself
    assert opt_of(feas_of(rel)).table == feas_of(rel).table


def test_evaluate_sums_constraints():
    rel = imp_relation()
    inst = VCSPInstance(3, 2)
    inst.add_constraint(rel, (0, 1))
    inst.add_constraint(rel, (1, 2))
    assert evaluate(inst, (1, 0, 0)) == ExtValue(1)
    assert evaluate(inst, (1, 1, 0)) == ExtValue(1)
    assert evaluate(inst, (0, 0, 0)) == ZERO
    assert evaluate(inst, (1, 1, 1)) == ZERO


def test_evaluate_hits_infinity():
    rel = WeightedRelation("r", 1, 2, [0, INF])
    inst = VCSPInstance(1, 2, [ValuedConstraint(rel, (0,))])
    assert evaluate(inst, (1,)) == INF


def test_brute_force_simple():
    rel = WeightedRelation("r", 2, 2, [0, 1, 2, INF])
    inst = VCSPInstance(2, 2, [ValuedConstraint(rel, (0, 1))])
    val, asg = brute_force_opt(inst)
    assert val == ZERO
    assert asg == (0, 0)


def test_brute_force_lex_tiebreak():
    rel = WeightedRelation("r", 1, 2, [1, 1])
    inst = VCSPInstance(2, 2, [ValuedConstraint(rel, (0,)), ValuedConstraint(rel, (1,))])
    val, asg = brute_force_opt(inst)
    assert val == ExtValue(2)
    assert asg == (0, 0)


def test_brute_force_unsatisfiable():
    rel = WeightedRelation("r", 1, 2, [INF, INF])
    inst = VCSPInstance(1, 2, [ValuedConstraint(rel, (0,))])
    val, asg = brute_force_opt(inst)
    assert val == INF
    assert asg is None


def test_brute_force_cap():
    inst = VCSPInstance(10, 2)
    with pytest.raises(CapExceeded):
        brute_force_opt(inst, cap=1000)


def _random_instance(rng, n, d, q, denom_pool=(1, 2, 3)):
    rels = []
    for i in range(3):
        arity = rng.choice([1, 2])
        table = []
        for _ in range(d**arity):
            if rng.random() < 0.25:
                table.append(INF)
            else:
                table.append(Fraction(rng.randint(-4, 6), rng.choice(denom_pool)))
        rels.append(WeightedRelation(f"r{i}", arity, d, table))
    inst = VCSPInstance(n, d)
    for _ in range(q):
        rel = rng.choice(rels)
        scope = [rng.randrange(n) for _ in range(rel.arity)]
        inst.add_constraint(rel, scope)
    return inst


def _reference_brute_force(inst):
    best_val, best_asg = INF, None
    for asg in itertools.product(range(inst.domain_size), repeat=inst.num_vars):
        v = evaluate(inst, asg)
        if v < best_val:
            best_val, best_asg = v, asg
    return best_val, best_asg


def _reference_optima(inst):
    vals = {asg: evaluate(inst, asg) for asg in
            itertools.product(range(inst.domain_size), repeat=inst.num_vars)}
    best = min(vals.values())
    if not best.is_finite:
        return INF, []
    return best, [asg for asg, v in vals.items() if v == best]


def test_vectorised_path_matches_reference(monkeypatch):
    # the chunked integer-scaled enumerator must agree exactly with the
    # plain loop: below and above 2^14 assignments, on totals that
    # overflow int64, and with chunks of 7 that split tied optima
    rng = random.Random(7)
    cases = [_random_instance(rng, n=8, d=2, q=6) for _ in range(8)]
    cases.append(_random_instance(rng, n=15, d=2, q=8))
    # denominators are five distinct primes near 10^9, so the common
    # scale is near 10^45 and the totals only fit Python ints
    p = (999999937, 999999929, 999999893, 999999883, 999999797)
    wide = WeightedRelation("wide", 2, 3, [
        Fraction(1, p[0]), Fraction(1, p[1]), Fraction(-1, p[2]),
        Fraction(2, p[3]), Fraction(1, p[4]), INF,
        Fraction(3, p[0]), Fraction(-2, p[1]), Fraction(1, p[2])])
    for _ in range(3):
        inst = VCSPInstance(5, 3)
        for _ in range(5):
            inst.add_constraint(wide, [rng.randrange(5) for _ in range(2)])
        assert scaled_objective(inst)[0].dtype == object
        cases.append(inst)
    cases += [_random_instance(rng, n=6, d=2, q=3, denom_pool=(1,))
              for _ in range(6)]
    flat = WeightedRelation("flat", 1, 3, [1, 1, 1])
    cases.append(VCSPInstance(4, 3, [ValuedConstraint(flat, (v,))
                                     for v in range(4)]))
    want = [_reference_optima(inst) for inst in cases]
    for chunk in (model._CHUNK, 7):
        monkeypatch.setattr(model, "_CHUNK", chunk)
        for inst, (value, optima) in zip(cases, want):
            first = optima[0] if optima else None
            assert brute_force_opt(inst) == (value, first)
            assert optimal_assignments(inst) == (value, optima)


def test_vectorised_path_matches_reference_d3():
    rng = random.Random(11)
    for trial in range(4):
        inst = _random_instance(rng, n=6, d=3, q=5)
        got_val, got_asg = brute_force_opt(inst)
        ref_val, ref_asg = _reference_brute_force(inst)
        assert got_val == ref_val
        assert got_asg == ref_asg


def test_language_registry():
    lang = ConstraintLanguage(2, [imp_relation()])
    assert "imp" in lang
    assert lang.max_arity() == 2
    with pytest.raises(ValueError):
        lang.add(imp_relation())  # duplicate name


def test_restrict_relation():
    rel = WeightedRelation.from_entries(
        "eq01", 2, 3, {(0, 0): 0, (1, 1): 0}, default=INF
    )
    sub = restrict_relation(rel, [0, 1])
    assert sub.domain_size == 2
    assert sub.feasible_tuples() == [(0, 0), (1, 1)]
    single = restrict_relation(rel, [0])
    assert single.feasible_tuples() == [(0, 0)]
