"""Group equations: languages, oracle, generators, and the gap probe."""

import itertools
import random

import numpy as np
import pytest
import scipy.linalg

import vcsprelax.equations as equations
from vcsprelax.errors import CapExceeded, VcspError
from vcsprelax.model import INF, WeightedRelation, brute_force_opt
from vcsprelax.equations import (
    build_equation_language,
    equation_form,
    gap_search,
    linear_satisfiable,
    make_group,
    random_kxor,
    random_regular_graph,
    tseitin,
)

K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_make_group_parses_and_rejects():
    z2 = make_group("Z2")
    assert z2.order == 2
    assert z2.add(1, 1) == 0
    assert make_group("Z2xZ4").order == 8
    for bad in ("", "Z1", "Q8", "Z2x", "Z0"):
        with pytest.raises(ValueError):
            make_group(bad)


def test_group_axioms_exhaustive():
    for spec in ("Z2", "Z3", "Z2xZ2", "Z6", "Z2xZ4"):
        g = make_group(spec)
        els = list(g.elements())
        for i in els:
            assert g.index(g.element(i)) == i
            assert g.add(i, g.zero) == i
            assert g.add(i, g.neg(i)) == g.zero
        for i, j in itertools.product(els, repeat=2):
            assert g.add(i, j) == g.add(j, i)
        for i, j, k in itertools.product(els, repeat=3):
            assert g.add(g.add(i, j), k) == g.add(i, g.add(j, k))


def test_klein_four_is_self_inverse():
    g = make_group("Z2xZ2")
    assert all(g.add(i, i) == g.zero for i in g.elements())


def test_z6_isomorphic_to_z2xz3():
    # the residue map x -> (x mod 2, x mod 3) is a bijective homomorphism
    z6 = make_group("Z6")
    z2z3 = make_group("Z2xZ3")
    iso = {x: z2z3.index((x % 2, x % 3)) for x in range(6)}
    assert sorted(iso.values()) == list(range(6))
    for a, b in itertools.product(range(6), repeat=2):
        assert iso[z6.add(a, b)] == z2z3.add(iso[a], iso[b])


def test_equation_language_tables():
    z2 = make_group("Z2")
    lang = build_equation_language(z2, 3)
    # |R^m_a| = |G|^(m-1): one free choice per variable except the last
    for m in (1, 2, 3):
        for a in (0, 1):
            rel = lang.relation(m, a)
            feas = [t for t in itertools.product(range(2), repeat=m)
                    if rel.value(t).is_finite]
            assert len(feas) == 2 ** (m - 1)
            assert all(sum(t) % 2 == a for t in feas)
    assert equation_form(lang.relation(3, 1), z2) == 1
    r10 = lang.relation(1, 0)
    assert r10.value((0,)).is_finite and not r10.value((1,)).is_finite

    z3 = make_group("Z3")
    lang3 = build_equation_language(z3, 2)
    for a in range(3):
        feas = [t for t in itertools.product(range(3), repeat=2)
                if lang3.relation(2, a).value(t).is_finite]
        assert len(feas) == 3

    imp = WeightedRelation.from_entries("imp", 2, 2, {(1, 0): 1}, default=0)
    assert equation_form(imp, z2) is None
    with pytest.raises(CapExceeded):
        build_equation_language(z2, 21)
    with pytest.raises(KeyError):
        lang.relation(4, 0)


def _random_equation_instance(group, n, m, rng):
    lang = build_equation_language(group, 3)
    from vcsprelax.model import VCSPInstance
    inst = VCSPInstance(n, group.order)
    for _ in range(m):
        arity = rng.randint(1, 3)
        scope = tuple(rng.randrange(n) for _ in range(arity))
        inst.add_constraint(lang.relation(arity, rng.randrange(group.order)),
                            scope)
    return inst


def test_linear_satisfiable_matches_brute_force():
    rng = random.Random(3)
    for spec in ("Z2", "Z3"):
        g = make_group(spec)
        for _ in range(30):
            n = rng.randint(3, 8)
            inst = _random_equation_instance(g, n, rng.randint(1, 2 * n), rng)
            assert (linear_satisfiable(inst, g)
                    == brute_force_opt(inst)[0].is_finite)


def test_linear_satisfiable_basics():
    z2 = make_group("Z2")
    lang = build_equation_language(z2, 3)
    from vcsprelax.model import VCSPInstance
    inst = VCSPInstance(2, 2)
    inst.add_constraint(lang.relation(2, 0), (0, 1))
    inst.add_constraint(lang.relation(2, 1), (0, 1))
    assert not linear_satisfiable(inst, z2)
    for a in (0, 1):
        one = VCSPInstance(3, 2).add_constraint(lang.relation(3, a),
                                                (0, 1, 2))
        assert linear_satisfiable(one, z2)
    # repeated variables fold into coefficients: x + x + y = 1 over Z2
    # reads y = 1
    rep = VCSPInstance(2, 2).add_constraint(lang.relation(3, 1), (0, 0, 1))
    assert linear_satisfiable(rep, z2)


def test_linear_satisfiable_composite_and_errors():
    g = make_group("Z2xZ2")
    rng = random.Random(5)
    for _ in range(10):
        inst = _random_equation_instance(g, rng.randint(2, 4),
                                         rng.randint(1, 6), rng)
        assert (linear_satisfiable(inst, g)
                == brute_force_opt(inst)[0].is_finite)
    z2 = make_group("Z2")
    imp = WeightedRelation.from_entries("imp", 2, 2, {(1, 0): 1}, default=0)
    from vcsprelax.model import VCSPInstance
    bad = VCSPInstance(2, 2).add_constraint(imp, (0, 1))
    with pytest.raises(VcspError):
        linear_satisfiable(bad, z2)
    z6 = make_group("Z6")
    lang6 = build_equation_language(z6, 3)
    big = VCSPInstance(10, 6).add_constraint(lang6.relation(3, 0), (0, 1, 2))
    with pytest.raises(CapExceeded):
        linear_satisfiable(big, z6)


def test_tseitin_k4_charge_parity():
    # each edge lies in exactly two vertex stars, so summing all four
    # equations forces 0 = total charge
    z2 = make_group("Z2")
    for ch in itertools.product(range(2), repeat=4):
        inst = tseitin(K4, list(ch), z2)
        assert inst.num_vars == 6
        assert len(inst.constraints) == 4
        sat = linear_satisfiable(inst, z2)
        assert sat == (sum(ch) % 2 == 0)
        assert sat == brute_force_opt(inst)[0].is_finite


def test_tseitin_z6_charges():
    # over Z6 the summation argument pivots on membership in 2G
    z6 = make_group("Z6")
    for c, want in ((1, False), (2, True), (3, False), (4, True)):
        inst = tseitin(K4, [c, 0, 0, 0], z6)
        assert linear_satisfiable(inst, z6) == want


def test_tseitin_validation():
    z2 = make_group("Z2")
    with pytest.raises(VcspError, match="self-loop"):
        tseitin([(0, 0)], [0], z2)
    with pytest.raises(VcspError, match="degree 0"):
        tseitin([(0, 1)], [0, 0, 0], z2)
    with pytest.raises(VcspError, match="degree 4"):
        tseitin([(0, 1), (0, 2), (0, 3), (0, 4)], [0] * 5, z2)
    with pytest.raises(ValueError, match="charge"):
        tseitin([(0, 1)], [0, 2], z2)


def test_random_kxor_deterministic():
    z2 = make_group("Z2")
    a = random_kxor(8, 12, z2, seed=41)
    b = random_kxor(8, 12, z2, seed=41)
    assert [(c.relation.name, c.scope) for c in a.constraints] == \
           [(c.relation.name, c.scope) for c in b.constraints]
    for c in a.constraints:
        assert len(set(c.scope)) == 3
    empty = random_kxor(5, 0, z2, seed=1)
    assert linear_satisfiable(empty, z2)
    with pytest.raises(ValueError):
        random_kxor(2, 1, z2)


def test_random_regular_graph():
    # K4 is the only simple 3-regular graph on 4 vertices
    assert random_regular_graph(4, 3, seed=7) == K4
    edges = random_regular_graph(6, 3, seed=11)
    deg = [0] * 6
    for u, v in edges:
        assert u != v
        deg[u] += 1
        deg[v] += 1
    assert deg == [3] * 6
    assert len(set(edges)) == len(edges) == 9
    with pytest.raises(ValueError):
        random_regular_graph(5, 3)
    with pytest.raises(ValueError):
        random_regular_graph(4, 4)


def test_gap_search_tseitin_k4_detects_infeasibility():
    # the level-3 relaxation of the odd-charged K4 instance is already
    # infeasible, so the probe must come back no-gap
    z2 = make_group("Z2")
    reps = gap_search(z2, 3, [6], family="tseitin", count=1, seed=5)
    assert len(reps) == 1
    rep = reps[0]
    assert rep.verdict == "no-gap"
    assert rep.vcsp_opt == INF
    assert rep.diagnostics["note"] == "relaxation infeasible"
    assert rep.sdp_value == float("inf")
    assert "verdict = no-gap" in rep.as_lines()


def test_gap_search_kxor_paths():
    z2 = make_group("Z2")
    dense = gap_search(z2, 3, [6], family="kxor", count=4, seed=9,
                       density=4.0)
    assert all(r.verdict == "no-gap" for r in dense)
    assert all(r.vcsp_opt == INF for r in dense)
    sparse = gap_search(z2, 3, [8], family="kxor", count=3, seed=2,
                        density=0.5)
    for r in sparse:
        assert r.verdict == "no-gap"
        assert r.diagnostics["note"] == "oracle satisfiable"
        assert r.sdp_value is None


def test_gap_search_inconclusive_on_budget():
    # the first certificate check comes at iteration 4, so a budget of
    # 3 must exhaust first
    z2 = make_group("Z2")
    reps = gap_search(z2, 3, [6], family="tseitin", count=1, seed=5,
                      max_iter=3)
    assert reps[0].verdict == "inconclusive"
    assert reps[0].diagnostics["note"].startswith("budget exhausted")
    full = gap_search(z2, 3, [6], family="tseitin", count=1, seed=5)
    assert full[0].verdict == "no-gap"
    assert full[0].diagnostics["stop"] == "certificate"
    assert full[0].diagnostics["iterations"] == 4
    assert full[0].diagnostics["checks"] == 1
    assert full[0].diagnostics["face_dim"] == 26  # K4 at N = 217
    assert "face_dim" not in reps[0].diagnostics


def _content(instance):
    return (instance.num_vars,
            [(c.scope, c.relation.table) for c in instance.constraints])


def test_gap_search_probes_a_repeated_instance_once(monkeypatch):
    probed = []
    probe = equations._probe_instance

    def counted(instance, *args):
        probed.append(instance)
        return probe(instance, *args)

    monkeypatch.setattr(equations, "_probe_instance", counted)
    # every 3-regular graph on four vertices is K4 and Z2 has one nonzero
    # charge, so the three Tseitin seeds draw one instance
    z2 = make_group("Z2")
    reps = gap_search(z2, 3, [6], family="tseitin", count=3, seed=4)
    assert len(probed) == 1
    first = reps[0]
    assert "repeat_of" not in first.diagnostics
    assert len({r.diagnostics["seed"] for r in reps}) == 3
    for r in reps[1:]:
        assert _content(r.instance) == _content(first.instance)
        assert r.diagnostics.pop("repeat_of") == first.diagnostics["seed"]
        assert r.diagnostics.pop("seed") != first.diagnostics["seed"]
        assert r.diagnostics == {k: v for k, v in first.diagnostics.items()
                                 if k != "seed"}
        assert (r.verdict, r.vcsp_opt, r.sdp_value) == (
            first.verdict, first.vcsp_opt, first.sdp_value)
    # over Z3 the charge at vertex 0 is 1 or 2: seeds that draw
    # different charges are each probed, the rest repeat one of them
    probed.clear()
    reps = gap_search(make_group("Z3"), 3, [6], family="tseitin", count=4,
                      seed=1)
    fresh = [r for r in reps if "repeat_of" not in r.diagnostics]
    assert len(probed) == len(fresh) == 2
    assert _content(fresh[0].instance) != _content(fresh[1].instance)
    for r in reps:
        if r not in fresh:
            (twin,) = [f for f in fresh if f.diagnostics["seed"]
                       == r.diagnostics["repeat_of"]]
            assert _content(r.instance) == _content(twin.instance)
    # repeats are found within one call only
    probed.clear()
    gap_search(z2, 3, [6], family="tseitin", count=1, seed=4)
    gap_search(z2, 3, [6], family="tseitin", count=1, seed=4)
    assert len(probed) == 2


def test_gap_search_inconclusive_on_linear_algebra_failure(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(scipy.linalg, "cho_factor", fail)
    z2 = make_group("Z2")
    reps = gap_search(z2, 3, [6], family="tseitin", count=1, seed=5)
    assert reps[0].verdict == "inconclusive"
    assert reps[0].diagnostics["note"].startswith("linear algebra failure")


def test_gap_search_inconclusive_on_cap():
    # fifteen edge variables put the Gram dimension just over the cap
    z2 = make_group("Z2")
    reps = gap_search(z2, 3, [15], family="tseitin", count=1, seed=1)
    assert reps[0].verdict == "inconclusive"
    assert reps[0].diagnostics["note"].startswith("cap exceeded")


def test_gap_search_full_level_sees_no_gap():
    # at level n the relaxation is tight, so unsatisfiable draws are
    # refuted and satisfiable draws are filtered by the oracle
    z2 = make_group("Z2")
    for n in (3, 4):
        reps = gap_search(z2, n, [n], family="kxor", count=5, seed=n,
                          density=4.0)
        assert [r.verdict for r in reps] == ["no-gap"] * 5


def test_gap_search_contract():
    z2 = make_group("Z2")
    reps = gap_search(z2, 3, [6], family="kxor", count=6, seed=13,
                      density=2.0)
    for r in reps:
        assert r.verdict in ("gap", "no-gap", "inconclusive")
        if r.verdict == "gap":
            assert r.vcsp_opt == INF
            assert r.diagnostics["l7_ok"]
        if r.vcsp_opt != INF:
            assert r.verdict != "gap"
    with pytest.raises(ValueError):
        gap_search(z2, 3, [6], family="random")
    with pytest.raises(ValueError):
        gap_search(z2, 2, [6])
    with pytest.raises(ValueError):
        gap_search(z2, 3, [7], family="tseitin", count=1)
