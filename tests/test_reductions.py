"""Gadget reductions: constructions, audits, and solution transport."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from vcsprelax.errors import CapExceeded, VcspError
from vcsprelax.lasserre import build_las, solve_sdp, verify_L7
from vcsprelax.model import (
    INF,
    VCSPInstance,
    WeightedRelation,
    brute_force_opt,
    evaluate,
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

imp = WeightedRelation.from_entries("imp", 2, 2, {(1, 0): 1}, default=0)
soft = WeightedRelation.from_entries(
    "soft", 1, 2, {(0,): 2, (1,): Fraction(1, 3)})
eq2 = WeightedRelation.from_entries(
    "eq", 2, 2, {(0, 0): 0, (1, 1): 0}, default=INF)
pin1 = WeightedRelation.from_entries("pin1", 1, 2, {(1,): 0}, default=INF)
pin0 = WeightedRelation.from_entries("pin0", 1, 2, {(0,): 0}, default=INF)


def chain_gadget():
    tmpl = VCSPInstance(3, 2)
    tmpl.add_constraint(imp, (0, 1)).add_constraint(imp, (1, 2))
    return Gadget("chain", (0, 2), tmpl)


def unit_gadget(rel, name):
    tmpl = VCSPInstance(rel.arity, rel.domain_size)
    tmpl.add_constraint(rel, tuple(range(rel.arity)))
    return Gadget(name, tuple(range(rel.arity)), tmpl)


def test_express_chain_gadget():
    g = chain_gadget()
    rel = g.express()
    # min_v imp(a,v)+imp(v,b) pays 1 only on (1,0); the canonical witness
    # is the smallest minimising v, so (1,1) picks v=1 and the rest v=0
    want = {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 0}
    for t, v in want.items():
        assert rel.value(t).frac == v
    assert g.canonical_aux((1, 1)) == (1,)
    for t in [(0, 0), (0, 1), (1, 0)]:
        assert g.canonical_aux(t) == (0,)


def test_express_degenerate_and_infinite():
    # p = 0 keeps the relation as is
    g = unit_gadget(imp, "imp")
    assert g.express() == imp
    # an all-infinite template expresses the all-infinite relation
    dead = WeightedRelation.from_entries("dead", 1, 2, {}, default=INF)
    tmpl = VCSPInstance(2, 2).add_constraint(dead, (1,))
    g2 = Gadget("never", (0,), tmpl)
    rel2 = g2.express()
    assert all(not v.is_finite for v in rel2.table)
    assert g2.canonical_aux((0,)) is None


def test_express_cap_and_validation():
    tmpl = VCSPInstance(21, 2)
    tmpl.add_constraint(imp, (0, 1))
    g = Gadget("big", (0,), tmpl)
    with pytest.raises(CapExceeded):
        g.express()
    with pytest.raises(ValueError):
        Gadget("dup", (0, 0), tmpl)
    with pytest.raises(ValueError):
        Gadget("oob", (0, 99), tmpl)


def _reference_express(g):
    """Plain loop: per external tuple, the first minimising auxiliary
    tuple in lexicographic order."""
    d, n = g.template.domain_size, g.template.num_vars
    table, canonical = [], {}
    for ext in itertools.product(range(d), repeat=len(g.externals)):
        best, best_aux = INF, None
        for aux in itertools.product(range(d), repeat=len(g.aux_slots)):
            asg = [0] * n
            for slot, val in zip(g.externals + g.aux_slots, ext + aux):
                asg[slot] = val
            v = evaluate(g.template, asg)
            if v < best:
                best, best_aux = v, aux
        table.append(best)
        canonical[ext] = best_aux
    return table, canonical


def test_express_matches_reference_loop():
    rng = random.Random(23)
    for trial in range(12):
        d = rng.choice([2, 3])
        n = rng.randint(3, 5)
        rels = [WeightedRelation(f"r{i}", a, d, [
            INF if rng.random() < 0.2 else Fraction(rng.randint(-3, 4),
                                                    rng.choice((1, 2)))
            for _ in range(d**a)]) for i, a in enumerate((1, 2, 2))]
        tmpl = VCSPInstance(n, d)
        for _ in range(rng.randint(2, 5)):
            rel = rng.choice(rels)
            tmpl.add_constraint(rel, [rng.randrange(n) for _ in range(rel.arity)])
        externals = rng.sample(range(n), rng.randint(1, n - 2))
        g = Gadget("t", externals, tmpl)
        assert len(g.aux_slots) >= 2
        table, canonical = _reference_express(g)
        assert g.express().table == tuple(table), f"trial {trial}"
        for ext, aux in canonical.items():
            assert g.canonical_aux(ext) == aux, f"trial {trial} at {ext}"


def test_reduce_expressibility_no_gadgets_is_identity():
    inst = VCSPInstance(2, 2)
    inst.add_constraint(imp, (0, 1)).add_constraint(soft, (0,))
    tr = reduce_expressibility(inst, {})
    assert tr.produced.num_vars == 2
    assert len(tr.produced.constraints) == 2
    ok, msg = oracle_value_identity(tr)
    assert ok, msg
    assert verify_reduction(tr).ok


def test_reduce_expressibility_chain_oracle_and_audit():
    g = chain_gadget()
    chain = g.express()
    inst = VCSPInstance(4, 2)
    inst.add_constraint(chain, (0, 1)).add_constraint(imp, (1, 2))
    inst.add_constraint(chain, (2, 3))
    inst.add_constraint(pin1, (0,)).add_constraint(pin0, (3,))
    # pinning 1 -> ... -> 0 forces one violated implication step
    assert brute_force_opt(inst)[0].frac == 1
    tr = reduce_expressibility(inst, {"chain": g})
    assert tr.produced.num_vars == 6
    ok, msg = oracle_value_identity(tr)
    assert ok, msg
    rep = verify_reduction(tr)
    assert rep.ok, rep.as_lines()


def test_reduce_expressibility_repeated_scope():
    g = chain_gadget()
    chain = g.express()
    inst = VCSPInstance(2, 2)
    inst.add_constraint(chain, (0, 0)).add_constraint(imp, (0, 1))
    tr = reduce_expressibility(inst, {"chain": g})
    ok, msg = oracle_value_identity(tr)
    assert ok, msg
    assert verify_reduction(tr).ok


def test_reduce_expressibility_gadget_mismatch():
    g = chain_gadget()
    wrong = WeightedRelation.from_entries(
        "chain", 2, 2, {(1, 0): 2}, default=0)
    inst = VCSPInstance(2, 2).add_constraint(wrong, (0, 1))
    with pytest.raises(VcspError):
        reduce_expressibility(inst, {"chain": g})


def test_reduce_equality_chain_merges_to_one_variable():
    inst = VCSPInstance(4, 2)
    inst.add_constraint(eq2, (0, 1)).add_constraint(eq2, (1, 2))
    inst.add_constraint(soft, (2,)).add_constraint(eq2, (3, 3))
    tr = reduce_equality(inst)
    # x0 ~ x1 ~ x2 collapse onto x0, the self-loop on x3 disappears
    assert tr.produced.num_vars == 1
    assert len(tr.produced.constraints) == 1
    assert brute_force_opt(tr.produced)[0].frac == Fraction(1, 3)
    ok, msg = oracle_value_identity(tr)
    assert ok, msg
    assert verify_reduction(tr).ok
    # the pullback fills merged and dropped variables class-consistently
    sigma = tr.pull_back((1,))
    assert sigma == (1, 1, 1, 0)


def test_reduce_equality_random_oracle():
    rng = random.Random(7)
    rels = [imp, soft, eq2]
    for _ in range(10):
        n = rng.randint(2, 5)
        inst = VCSPInstance(n, 2)
        for _ in range(rng.randint(1, 5)):
            rel = rng.choice(rels)
            scope = tuple(rng.randrange(n) for _ in range(rel.arity))
            inst.add_constraint(rel, scope)
        tr = reduce_equality(inst)
        ok, msg = oracle_value_identity(tr)
        assert ok, msg
        rep = verify_reduction(tr)
        assert rep.ok, rep.as_lines()


def z2_in_d3_interpretation():
    u01 = WeightedRelation.from_entries(
        "u01", 1, 3, {(0,): 0, (1,): 0}, default=INF)
    eqp = WeightedRelation.from_entries(
        "eqp", 2, 3, {(0, 0): 0, (1, 1): 0}, default=INF)
    xor2 = WeightedRelation.from_entries(
        "xor", 2, 2, {(0, 1): 0, (1, 0): 0}, default=INF)
    xorp = WeightedRelation.from_entries(
        "xorp", 2, 3, {(0, 1): 0, (1, 0): 0}, default=INF)
    softp = WeightedRelation.from_entries(
        "softp", 1, 3, {(0,): 2, (1,): Fraction(1, 3)}, default=INF)
    gadgets = {
        "xor": (xor2, unit_gadget(xorp, "xorp")),
        "soft": (soft, unit_gadget(softp, "softp")),
    }
    interp = Interpretation(
        1, [(0,), (1,)], {(0,): 0, (1,): 1}, 2,
        unit_gadget(u01, "u01"), unit_gadget(eqp, "eqp"), gadgets)
    return interp, xor2


def test_interpretation_z2_inside_d3():
    interp, xor2 = z2_in_d3_interpretation()
    rng = random.Random(11)
    for _ in range(8):
        n = rng.randint(2, 5)
        inst = VCSPInstance(n, 2)
        for v in range(n):
            inst.add_constraint(soft, (v,))
        for _ in range(rng.randint(1, 4)):
            a, b = rng.randrange(n), rng.randrange(n)
            inst.add_constraint(xor2, (a, b))
        tr = apply_interpretation(interp, inst)
        assert tr.produced.domain_size == 3
        ok, msg = oracle_value_identity(tr)
        assert ok, msg
        rep = verify_reduction(tr)
        assert rep.ok, rep.as_lines()


def test_interpretation_rejects_bad_inputs():
    interp, xor2 = z2_in_d3_interpretation()
    # non-surjective h
    with pytest.raises(ValueError):
        Interpretation(
            1, [(0,), (1,)], {(0,): 0, (1,): 0}, 2,
            interp.phi_s_gadget, interp.eq_gadget, {})
    # membership gadget expressing the wrong set names a witness tuple
    u_all = WeightedRelation.from_entries(
        "u_all", 1, 3, {(0,): 0, (1,): 0, (2,): 0})
    with pytest.raises(VcspError, match=r"\(2,\)"):
        Interpretation(
            1, [(0,), (1,)], {(0,): 0, (1,): 1}, 2,
            unit_gadget(u_all, "u_all"), interp.eq_gadget, {})
    # isolated variables have no membership guard, so they are rejected
    inst = VCSPInstance(3, 2).add_constraint(xor2, (0, 1))
    with pytest.raises(VcspError, match="no constraint"):
        apply_interpretation(interp, inst)


def test_interpretation_identity_shape():
    # one slot per variable with S = D keeps the instance structure
    u_all = WeightedRelation.from_entries("u_all", 1, 2, {(0,): 0, (1,): 0})
    interp = Interpretation(
        1, [(0,), (1,)], {(0,): 0, (1,): 1}, 2,
        unit_gadget(u_all, "u_all"), unit_gadget(eq2, "eq"),
        {"imp": (imp, unit_gadget(imp, "imp")),
         "soft": (soft, unit_gadget(soft, "soft"))})
    inst = VCSPInstance(2, 2)
    inst.add_constraint(imp, (0, 1)).add_constraint(soft, (0,))
    inst.add_constraint(soft, (1,))
    tr = apply_interpretation(interp, inst)
    assert tr.produced.num_vars == 2
    # original constraints survive next to one membership guard per block
    assert len(tr.produced.constraints) == 5
    ok, msg = oracle_value_identity(tr)
    assert ok, msg
    assert verify_reduction(tr).ok


def test_reduce_opt_replaces_argmin_constraints():
    phi = WeightedRelation.from_entries("phi", 1, 2, {(0,): 1, (1,): 0})
    inst = VCSPInstance(3, 2)
    inst.add_constraint(opt_of(phi), (0,)).add_constraint(imp, (0, 1))
    inst.add_constraint(soft, (1,))
    tr = reduce_opt(inst, phi)
    # q=3 constraints, spread W=5/3 from soft, L=3, so M = 3*5+1
    assert len(tr.produced.constraints) == 16 + 2
    assert tr.value_offset == 0
    ok, msg = oracle_value_identity(tr)
    assert ok, msg
    rep = verify_reduction(tr)
    assert rep.ok, rep.as_lines()
    # produced optima never leave the argmin set
    v_opt, _ = brute_force_opt(tr.produced)
    for a in itertools.product(range(2), repeat=3):
        from vcsprelax.model import evaluate
        if evaluate(tr.produced, a) == v_opt:
            assert phi.value((a[0],)).frac == 0


def test_reduce_opt_negative_minimum_records_offset():
    phi = WeightedRelation.from_entries(
        "phi", 1, 2, {(0,): Fraction(-1, 2), (1,): 1})
    inst = VCSPInstance(2, 2)
    inst.add_constraint(opt_of(phi), (0,)).add_constraint(imp, (0, 1))
    tr = reduce_opt(inst, phi)
    assert tr.value_offset < 0
    ok, msg = oracle_value_identity(tr)
    assert ok, msg
    assert verify_reduction(tr).ok


def test_reduce_opt_crisp_is_degenerate():
    crisp = WeightedRelation.from_entries(
        "crisp", 1, 2, {(0,): 0}, default=INF)
    inst = VCSPInstance(2, 2)
    inst.add_constraint(opt_of(crisp), (0,)).add_constraint(soft, (1,))
    tr = reduce_opt(inst, crisp)
    assert len(tr.produced.constraints) == 2
    ok, msg = oracle_value_identity(tr)
    assert ok, msg
    assert verify_reduction(tr).ok
    with pytest.raises(ValueError):
        reduce_opt(inst, WeightedRelation.from_entries(
            "dead", 1, 2, {}, default=INF))


def test_reduce_feas_scales_and_windows():
    phi = WeightedRelation.from_entries(
        "phi", 1, 2, {(0,): Fraction(3, 2)}, default=INF)
    inst = VCSPInstance(2, 2)
    inst.add_constraint(feas_of(phi), (0,)).add_constraint(imp, (0, 1))
    inst.add_constraint(soft, (1,))
    tr = reduce_feas(inst, phi)
    assert tr.value_scale == 31
    assert (tr.residue_lo, tr.residue_hi) == (0, Fraction(3, 2))
    ok, msg = oracle_value_identity(tr)
    assert ok, msg
    rep = verify_reduction(tr)
    assert rep.ok, rep.as_lines()
    # the residue is exactly the phi term the produced optimum pays
    v_src, _ = brute_force_opt(inst)
    v_prod, _ = brute_force_opt(tr.produced)
    assert v_prod.frac == 31 * v_src.frac + Fraction(3, 2)


def test_reduce_feas_negative_values_and_unsat():
    phi = WeightedRelation.from_entries(
        "phi", 1, 2, {(1,): Fraction(-2, 3)}, default=INF)
    inst = VCSPInstance(2, 2)
    inst.add_constraint(feas_of(phi), (0,)).add_constraint(imp, (0, 1))
    tr = reduce_feas(inst, phi)
    assert tr.a_slack == Fraction(2, 3)
    ok, msg = oracle_value_identity(tr)
    assert ok, msg
    assert verify_reduction(tr).ok
    # infeasibility survives in both directions
    unsat = VCSPInstance(1, 2)
    unsat.add_constraint(feas_of(phi), (0,)).add_constraint(pin0, (0,))
    tr2 = reduce_feas(unsat, phi)
    ok2, msg2 = oracle_value_identity(tr2)
    assert ok2, msg2
    assert not brute_force_opt(tr2.produced)[0].is_finite


def test_reduce_feas_without_targets_just_scales():
    inst = VCSPInstance(2, 2)
    inst.add_constraint(soft, (0,)).add_constraint(imp, (0, 1))
    phi = WeightedRelation.from_entries(
        "phi", 1, 2, {(0,): Fraction(3, 2)}, default=INF)
    tr = reduce_feas(inst, phi)
    assert len(tr.produced.constraints) == 2 * tr.value_scale
    v_src, _ = brute_force_opt(inst)
    v_prod, _ = brute_force_opt(tr.produced)
    assert v_prod.frac == tr.value_scale * v_src.frac
    assert verify_reduction(tr).ok


def test_verify_reduction_negative_control():
    # a deliberately inconsistent preimage choice must fail the overlap
    # condition with a concrete witness
    interp, xor2 = z2_in_d3_interpretation()
    inst = VCSPInstance(2, 2)
    inst.add_constraint(soft, (0,)).add_constraint(xor2, (0, 1))
    tr = apply_interpretation(interp, inst)
    assert verify_reduction(tr).ok
    piece = tr.pieces[0]
    broken = {}
    for sigma, vals in piece.alpha.items():
        vals = list(vals)
        vals[piece.y_vars.index(0)] = 2
        broken[sigma] = tuple(vals)
    piece.alpha = broken
    rep = verify_reduction(tr)
    assert not rep.ok
    assert not rep.conditions["c"]["ok"]
    assert "disagree" in rep.witness("c")


def test_verify_reduction_vacuous_on_unsat():
    inst = VCSPInstance(1, 2)
    inst.add_constraint(pin0, (0,)).add_constraint(pin1, (0,))
    tr = reduce_expressibility(inst, {})
    rep = verify_reduction(tr)
    assert rep.ok
    assert rep.conditions["a"]["checked"] == 0


def test_verify_reduction_budget():
    inst = VCSPInstance(10, 2)
    for v in range(9):
        inst.add_constraint(imp, (v, v + 1))
    tr = reduce_expressibility(inst, {})
    with pytest.raises(CapExceeded):
        verify_reduction(tr, sample_budget=100)


def test_transport_identity_restricts_the_solution():
    inst = VCSPInstance(2, 2)
    inst.add_constraint(imp, (0, 1)).add_constraint(soft, (0,))
    tr = reduce_expressibility(inst, {})
    # level arithmetic for k'=1 with binary relations needs level 8
    lam = solve_sdp(build_las(inst, 8))
    kap = transport_solution(tr, lam, 1)
    assert kap.status == "transported"
    assert abs(kap.objective - lam.objective) <= 1e-9
    assert kap.residuals["transport_dropped_mass"] == 0.0
    for key in ("class_spread", "zero_ties", "affine", "negativity"):
        assert kap.residuals[key] <= 1e-9
    # the transported entries are the source entries on the shared rows
    model_j = kap.model
    model_i = lam.model
    for (blk, sigma), p in model_j.row_of.items():
        vars_j = model_j.aug[blk].vars
        i_blk = model_i.designated[vars_j]
        q = model_i.aug_rows[i_blk][sigma]
        assert abs(kap.M[0, p] - lam.M[0, q]) <= 1e-9


def test_transport_chain_gadget_end_to_end():
    g = chain_gadget()
    chain = g.express()
    inst = VCSPInstance(4, 2)
    inst.add_constraint(chain, (0, 1)).add_constraint(imp, (1, 2))
    inst.add_constraint(chain, (2, 3))
    inst.add_constraint(pin1, (0,)).add_constraint(pin0, (3,))
    tr = reduce_expressibility(inst, {"chain": g})
    kprime = 3
    k = max(kprime, 2) * 2
    lam = solve_sdp(build_las(inst, 2 * k))
    kap = transport_solution(tr, lam, kprime)
    # each produced entry sums at most A source masses, so the recorded
    # tolerance is A * lam.eps and the residuals are judged against it
    assert kap.eps >= lam.eps
    for key in ("unit", "class_spread", "zero_ties", "affine", "negativity"):
        assert kap.residuals[key] <= 10 * kap.eps
    assert kap.residuals["min_eig"] >= -10 * kap.eps
    assert kap.residuals["transport_dropped_mass"] <= 10 * kap.eps
    assert kap.objective <= lam.objective + 1e-5
    l7 = verify_L7(kap, kap.model, eps=10 * kap.eps)
    assert l7.ok, l7.worst
    # any covering source block defines the same sums
    kap2 = transport_solution(tr, lam, kprime, choice="max")
    assert float(np.abs(kap.M - kap2.M).max()) <= 10 * kap.eps


def test_transport_opt_trace_reuses_the_gram_solution():
    phi = WeightedRelation.from_entries("phi", 1, 2, {(0,): 1, (1,): 0})
    inst = VCSPInstance(3, 2)
    inst.add_constraint(opt_of(phi), (0,)).add_constraint(imp, (0, 1))
    inst.add_constraint(soft, (2,))
    tr = reduce_opt(inst, phi)
    lam = solve_sdp(build_las(inst, 8))
    kap = transport_solution(tr, lam, 1)
    for key in ("class_spread", "zero_ties", "affine", "negativity"):
        assert kap.residuals[key] <= 10 * kap.eps
    assert kap.residuals["transport_dropped_mass"] <= 10 * kap.eps
    assert verify_L7(kap, kap.model, eps=10 * kap.eps).ok


def test_transport_preconditions():
    inst = VCSPInstance(2, 2)
    inst.add_constraint(imp, (0, 1)).add_constraint(soft, (0,))
    tr = reduce_expressibility(inst, {})
    lam = solve_sdp(build_las(inst, 2))
    with pytest.raises(VcspError, match="level"):
        transport_solution(tr, lam, 1)
    other = VCSPInstance(2, 2).add_constraint(imp, (0, 1))
    lam2 = solve_sdp(build_las(other, 8))
    with pytest.raises(VcspError, match="source"):
        transport_solution(tr, lam2, 1)
    lam3 = solve_sdp(build_las(inst, 8))
    with pytest.raises(ValueError):
        transport_solution(tr, lam3, 1, choice="median")


def test_sequential_reductions_compose():
    g = chain_gadget()
    chain = g.express()
    inst = VCSPInstance(4, 2)
    inst.add_constraint(chain, (0, 1)).add_constraint(eq2, (1, 2))
    inst.add_constraint(soft, (2,)).add_constraint(pin1, (0,))
    first = reduce_expressibility(inst, {"chain": g})
    second = reduce_equality(first.produced)
    v0 = brute_force_opt(inst)[0]
    v1 = brute_force_opt(first.produced)[0]
    v2 = brute_force_opt(second.produced)[0]
    assert v0 == v1 == v2
    assert verify_reduction(first).ok
    assert verify_reduction(second).ok
