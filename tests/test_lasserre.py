"""Tests for the level-k Gram relaxation builder and solver."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse

import vcsprelax.lasserre as lasserre
from vcsprelax.equations import (
    linear_satisfiable,
    make_group,
    random_kxor,
    random_regular_graph,
    tseitin,
)
from vcsprelax.errors import (
    ArityError,
    CapExceeded,
    InternalError,
    NonConvergence,
)
from vcsprelax.lasserre import (
    DEFAULT_DELTA_INF,
    GramSolution,
    NumericallyInfeasible,
    build_las,
    certificate_bound,
    sdp_opt,
    solve_sdp,
    verify_L7,
)
from vcsprelax.model import VCSPInstance, WeightedRelation, brute_force_opt
from vcsprelax.sherali_adams import augment_instance, lp_opt
from vcsprelax.values import INF, ZERO, ExtValue


def rel(name, arity, d, entries, default=None):
    return WeightedRelation.from_entries(name, arity, d, entries, default=default)


eq2 = rel("eq2", 2, 2, {(0, 0): 0, (1, 1): 0})
neq2 = rel("neq2", 2, 2, {(0, 1): 0, (1, 0): 0})
# soft equality: cost 1 on equal pairs, 0 otherwise
same_soft = rel("same_soft", 2, 2, {(0, 0): 1, (1, 1): 1}, default=0)
mixed_costs = rel("mixed", 2, 2,
                  {(0, 0): 1, (0, 1): Fraction(1, 3), (1, 0): 2, (1, 1): 5})


def _random_instance(rng, n, d, q):
    inst = VCSPInstance(n, d)
    for j in range(q):
        arity = rng.choice([1, 2])
        entries = {}
        for t in itertools.product(range(d), repeat=arity):
            if rng.random() < 0.25:
                entries[t] = None
            else:
                entries[t] = Fraction(rng.randint(-4, 6), rng.choice([1, 2, 3]))
        scope = tuple(rng.sample(range(n), arity))
        inst.add_constraint(rel(f"r{j}", arity, d, entries), scope)
    return inst


def test_build_counts_single_binary():
    # one binary constraint on two variables at level 2: the unit row,
    # four rows for the constraint block, two per singleton null block
    inst = VCSPInstance(2, 2).add_constraint(mixed_costs, (0, 1))
    m = build_las(inst, 2)
    assert m.num_rows == 9
    assert m.designated[(0, 1)] == 0
    assert len(m.aug) == 3
    # entry classes: unit, 2+2 singleton diagonals, 4 pair assignments
    assert m.num_classes == 9
    # every position is either in a class or structurally zero
    counted = np.zeros((9, 9), dtype=int)
    np.add.at(counted, (m.pos_r, m.pos_c), 1)
    assert counted.max() == 1
    assert (counted.astype(bool) == m.filled).all()


def test_single_constraint_minimum():
    inst = VCSPInstance(2, 2).add_constraint(mixed_costs, (0, 1))
    sol = solve_sdp(build_las(inst, 2))
    assert isinstance(sol, GramSolution)
    assert abs(sol.objective - 1 / 3) <= 1e-5


def test_integral_rank_one_matrix_passes_checks():
    # the Gram matrix of a single feasible assignment is 0/1-valued and
    # marginalizes exactly
    inst = VCSPInstance(3, 2)
    inst.add_constraint(same_soft, (0, 1)).add_constraint(same_soft, (1, 2)).add_constraint(eq2, (0, 2))
    m = build_las(inst, 3)
    assignment = (0, 1, 0)  # cost: 0 + 0, equality (0,2) satisfied
    v = np.zeros(m.num_rows)
    v[0] = 1.0
    for (i, sigma), ridx in m.row_of.items():
        if all(assignment[var] == val
               for var, val in zip(m.aug[i].vars, sigma)):
            v[ridx] = 1.0
    M = np.outer(v, v)
    rep = verify_L7(M, m, eps=1e-12)
    assert rep.ok and rep.max_residual == 0.0
    assert m.value_of(M) == 0.0
    diag = m.residual_report(M)
    assert diag["min_eig"] >= -1e-12
    assert max(diag["class_spread"], diag["zero_ties"], diag["affine"]) == 0.0


def test_contradictory_pair():
    inst = VCSPInstance(2, 2)
    inst.add_constraint(eq2, (0, 1)).add_constraint(neq2, (0, 1))
    res = solve_sdp(build_las(inst, 2))
    assert isinstance(res, NumericallyInfeasible)
    assert res.iterations == 0  # caught before iterating
    assert res.stop == "tie-system"
    # at level 1 the tie system alone is satisfiable, but the zero ties
    # between the two blocks still force the unit vector to vanish, so
    # infeasibility is reached through the cone instead
    low = solve_sdp(build_las(inst, 1, allow_low_level=True))
    assert isinstance(low, NumericallyInfeasible)
    assert low.iterations > 0
    assert low.displacement > 1e-3
    assert low.stop == "certificate"
    assert low.bound < -DEFAULT_DELTA_INF


def test_level_gate_and_cap():
    inst = VCSPInstance(2, 2).add_constraint(mixed_costs, (0, 1))
    with pytest.raises(ArityError):
        build_las(inst, 1)
    # below the widest scope the original block keeps its rows but is
    # not marginalized: only the unit row and two singleton ties remain
    low = build_las(inst, 1, allow_low_level=True)
    assert low.num_rows == 9
    assert low.A.shape[0] == 3
    with pytest.raises(CapExceeded):
        build_las(inst, 2, row_cap=5)


def test_dead_constraint_detected_structurally():
    # a relation with no feasible tuple pins its whole block, which
    # contradicts the unit-mass ties
    dead1 = rel("dead1", 1, 2, {})
    inst = VCSPInstance(2, 2).add_constraint(dead1, (0,)).add_constraint(same_soft, (0, 1))
    res = solve_sdp(build_las(inst, 2))
    assert isinstance(res, NumericallyInfeasible)
    assert res.iterations == 0
    assert res.stop == "tie-system"

    dead2 = rel("dead2", 2, 2, {})
    inst2 = VCSPInstance(2, 2).add_constraint(dead2, (0, 1))
    res2 = solve_sdp(build_las(inst2, 2))
    assert isinstance(res2, NumericallyInfeasible)
    assert res2.iterations == 0
    assert res2.stop == "tie-system"


def _equality_cycle():
    inst = VCSPInstance(3, 2)
    return inst.add_constraint(eq2, (0, 1)).add_constraint(eq2, (1, 2)).add_constraint(neq2, (0, 2))


def test_equality_cycle_separates_lp_from_sdp():
    # x=y, y=z, x!=z: pairwise-consistent local distributions exist, so
    # the level-2 LP value is 0, but any Gram realization forces the
    # vectors of x and z together and the scaled duals certify it
    inst = _equality_cycle()
    assert lp_opt(inst, 2) == ZERO
    assert not brute_force_opt(inst)[0].is_finite
    res = solve_sdp(build_las(inst, 2))
    assert isinstance(res, NumericallyInfeasible)
    assert res.displacement > 1e-3
    assert res.stop == "certificate"


def test_soft_triangle_value():
    # three soft equalities around a triangle: one must be paid
    inst = VCSPInstance(3, 2)
    inst.add_constraint(same_soft, (0, 1)).add_constraint(same_soft, (1, 2)).add_constraint(same_soft, (0, 2))
    assert brute_force_opt(inst)[0] == ExtValue(1)
    full = sdp_opt(inst, 3)
    assert abs(full - 1.0) <= 1e-4
    mid = sdp_opt(inst, 2)
    lp2 = lp_opt(inst, 2)
    assert float(lp2.frac) <= mid + 1e-5
    assert mid <= 1.0 + 1e-5


def test_sandwich_and_monotone_on_random_instances():
    rng = random.Random(7)
    for _ in range(8):
        n = rng.randint(2, 3)
        inst = _random_instance(rng, n, 2, rng.randint(1, 4))
        bf = brute_force_opt(inst)[0]
        bff = float(bf.frac) if bf.is_finite else float("inf")
        prev = None
        for k in (1, 2, 3):
            lp = lp_opt(inst, k)
            lpf = float(lp.frac) if lp.is_finite else float("inf")
            sd = sdp_opt(inst, k, allow_low_level=True)
            sdf = float("inf") if sd is INF else sd
            assert lpf <= sdf + 1e-5
            assert sdf <= bff + 1e-4
            if prev is not None:
                assert sdf >= prev - 1e-6
            prev = sdf


def test_corrupted_matrix_fails_verification():
    inst = VCSPInstance(3, 2)
    inst.add_constraint(same_soft, (0, 1)).add_constraint(same_soft, (1, 2)).add_constraint(same_soft, (0, 2))
    m = build_las(inst, 2)
    sol = solve_sdp(m)
    assert verify_L7(sol, m, eps=1e-6).ok
    M = sol.M.copy()
    r1 = m.row_of[(0, (0, 0))]
    r2 = m.row_of[(0, (0, 1))]
    M[r1, r2] += 0.01
    M[r2, r1] += 0.01
    rep = verify_L7(M, m, eps=1e-3)
    assert not rep.ok
    assert rep.max_residual >= 0.019


def test_solver_is_deterministic():
    inst = VCSPInstance(3, 2)
    inst.add_constraint(same_soft, (0, 1)).add_constraint(mixed_costs, (1, 2))
    a = solve_sdp(build_las(inst, 2))
    b = solve_sdp(build_las(inst, 2))
    assert a.objective == b.objective
    assert a.iterations == b.iterations


def _k4_tseitin():
    z2 = make_group("Z2")
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    return tseitin(edges, [1, 0, 0, 0], z2, r=3)


def test_refutation_probes_stop_at_first_check():
    # the Tseitin K4 system and an unsatisfiable 3-XOR with nine distinct
    # variable sets, both at level 3: the check at iteration 4, the
    # schedule's first, certifies them
    z2 = make_group("Z2")
    probes = [(_k4_tseitin(), 217), (random_kxor(6, 9, z2, seed=2480531333), 197)]
    for inst, dim in probes:
        assert not linear_satisfiable(inst, z2)
        model = build_las(inst, 3)
        assert model.num_rows == dim
        res = solve_sdp(model)
        assert isinstance(res, NumericallyInfeasible)
        assert res.stop == "certificate"
        assert res.iterations == 4
        assert res.checks == 1
        assert res.bound < -DEFAULT_DELTA_INF


def _feasible_runs():
    # valued instances at levels 2 and 3, and a satisfiable 3-XOR at
    # level 3, all with a finite optimum
    z2 = make_group("Z2")
    rng = random.Random(11)
    feasible = [(random_kxor(6, 6, z2, seed=1), 3)]
    for _ in range(12):
        inst = _random_instance(rng, 3, 2, rng.randint(2, 4))
        if brute_force_opt(inst)[0].is_finite:
            feasible.extend((inst, k) for k in (2, 3))
    return feasible


def test_certificate_negative_controls(monkeypatch):
    seen = []  # (iteration, S, t, mu, beta, scale) of every check made
    iteration = 0
    eigh = np.linalg.eigh

    def counted_eigh(a, *args, **kwargs):
        # the splitting scheme runs one eigh per iteration
        nonlocal iteration
        iteration += 1
        return eigh(a, *args, **kwargs)

    def record(model, S, t, mu):
        beta, scale = certificate_bound(model, S, t, mu)
        seen.append((iteration, S.copy(), t.copy(), mu.copy(), beta, scale))
        return beta, scale

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(lasserre, "certificate_bound", record)
    # every candidate of a feasible run, up to its convergence, leaves
    # beta nonnegative, the early ones of the schedule included; the
    # satisfiable 3-XOR's beta / scale comes within 1e-7 of zero
    feasible = _feasible_runs()
    checked_at = []
    for inst, k in feasible:
        seen.clear()
        iteration = 0
        sol = solve_sdp(build_las(inst, k, allow_low_level=True))
        assert isinstance(sol, GramSolution)
        assert iteration == sol.iterations
        assert sol.checks == len(seen)
        assert [it for it, *_ in seen] == [
            it for it in range(1, sol.iterations)
            if it in (4, 8, 16, 32) or it % 50 == 0]
        for _, _, _, _, beta, scale in seen:
            assert beta >= 0.0
        checked_at.extend(it for it, *_ in seen)
    assert len(feasible) >= 9 and len(checked_at) >= 10
    assert {4, 8, 16, 32, 50} <= set(checked_at)

    seen.clear()
    model = build_las(_equality_cycle(), 2)
    res = solve_sdp(model)
    assert res.stop == "certificate"
    _, S, t, mu, beta, scale = seen[-1]
    assert beta < -DEFAULT_DELTA_INF * scale
    fact = model._solver_data()

    def rejected(S, t, mu):
        beta, scale = certificate_bound(model, S, t, mu)
        return beta >= -DEFAULT_DELTA_INF * scale

    # S shifted off the PSD cone pays N * |lambda_min| and fails
    c = 10 * np.abs(np.linalg.eigvalsh(S)).max()
    shifted = S - c * np.eye(model.num_rows)
    assert rejected(shifted, t, mu)
    assert rejected(shifted, t, fact.multipliers(model.class_sums(shifted) + t))
    # so does the reversed direction, and the certificate's mu negated
    assert rejected(-S, -t, fact.multipliers(model.class_sums(-S) - t))
    assert rejected(-S, -t, -mu)
    assert rejected(S, t, -mu)


def test_certificate_checks_leave_the_iterates_alone(monkeypatch):
    # a converging run gives the same matrix, objective and iteration
    # count whether its checks run as shipped, all refuse, or never run
    def solve_all():
        return [solve_sdp(build_las(inst, k, allow_low_level=True))
                for inst, k in _feasible_runs()]

    shipped = solve_all()
    with monkeypatch.context() as m:
        m.setattr(lasserre, "certificate_bound",
                  lambda model, S, t, mu: (0.0, 1.0))
        refused = solve_all()
    monkeypatch.setattr(lasserre, "_EARLY_CHECKS", ())
    monkeypatch.setattr(lasserre, "_CHECK_EVERY", 10 ** 9)
    unchecked = solve_all()
    assert sum(a.checks for a in shipped) >= 10
    for a, b, c in zip(shipped, refused, unchecked, strict=True):
        assert a.checks == b.checks and c.checks == 0
        for other in (b, c):
            assert a.M.tobytes() == other.M.tobytes()
            assert a.objective == other.objective
            assert a.iterations == other.iterations


def test_stall_without_certificate_is_inconclusive(monkeypatch):
    # with every candidate refused, the infeasible equality cycle stalls;
    # the solver then gives up instead of answering infeasible
    monkeypatch.setattr(lasserre, "certificate_bound",
                        lambda model, S, t, mu: (0.0, 1.0))
    with pytest.raises(NonConvergence, match="stalled without certificate"):
        solve_sdp(build_las(_equality_cycle(), 2))


def test_non_finite_iterate_is_nonconvergence(monkeypatch):
    # a NaN cost reaches the first affine step; the tie solve refuses
    # it there instead of iterating on NaNs until the budget runs out
    calls = 0
    eigh = np.linalg.eigh

    def counted_eigh(a, *args, **kwargs):
        nonlocal calls
        calls += 1
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    inst = VCSPInstance(2, 2).add_constraint(mixed_costs, (0, 1))
    model = build_las(inst, 2)
    model.b[0] = np.nan
    with pytest.raises(NonConvergence, match="linear algebra failure"):
        solve_sdp(model)
    assert calls == 0


def _tie_systems():
    # consistent systems, every one rank-deficient: Tseitin K4 and an
    # unsatisfiable 3-XOR at level 3, the equality cycle at level 2
    z2 = make_group("Z2")
    return [build_las(_k4_tseitin(), 3),
            build_las(random_kxor(6, 9, z2, seed=2480531333), 3),
            build_las(_equality_cycle(), 2)]


def test_tie_projection_matches_least_squares():
    rng = np.random.default_rng(5)
    for model in _tie_systems():
        fact = model._solver_data()
        A = model.A.toarray()
        assert not fact.inconsistent
        assert fact.A_red.shape[0] < A.shape[0]
        root = np.sqrt(fact.weights)
        v = rng.normal(size=model.num_classes)
        y = fact.project(v)
        # the full system holds, dropped rows included
        assert np.abs(A @ y - model.a).max() <= 1e-10
        # the weighted projection: y = v + z / root with z the
        # least-norm solution of (A / root) z = a - A v
        z = np.linalg.lstsq(A / root, model.a - A @ v, rcond=None)[0]
        assert np.abs(y - (v + z / root)).max() <= 1e-9
        # the multipliers: A_red^T mu closest to g in the 1/weights metric
        g = rng.normal(size=model.num_classes)
        mu = np.linalg.lstsq(fact.A_red.T / root[:, None], g / root,
                             rcond=None)[0]
        assert np.abs(fact.multipliers(g) - mu).max() <= 1e-8 * max(
            1.0, np.abs(mu).max())


def test_inconsistent_tie_systems_stay_inconsistent():
    # the equality cycle at full level 3, and a 3-XOR on 7 variables
    # whose one repeated variable set carries x2+x3+x4 = 0 and = 1
    z2 = make_group("Z2")
    probe = random_kxor(7, 10, z2, seed=0)
    scopes = [frozenset(c.scope) for c in probe.constraints]
    assert len(set(scopes)) == len(scopes) - 1
    assert scopes.count(frozenset({2, 3, 4})) == 2
    for model in (build_las(_equality_cycle(), 3), build_las(probe, 3)):
        assert model._solver_data().inconsistent
        res = solve_sdp(model)
        assert res.stop == "tie-system"
        assert res.rho_schedule == [(0, 1.0)]


def _reference_build(instance, level, subset_mode="full"):
    """The Gram model's arrays by the plain double loop over pairs of
    virtual rows: assignments coded in base d+1 (digit 0 for a free
    variable), classes numbered by first pair in row-major order, tie
    rows and objective through a dict from code to class."""
    d, n = instance.domain_size, instance.num_vars
    aug, designated = augment_instance(instance, level, subset_mode)
    rows, row_of, obj_rows, obj_costs = [None], {}, [], []
    for i, entry in enumerate(aug):
        for sigma, cost in entry.assignments(d):
            row_of[(i, sigma)] = len(rows)
            rows.append((i, sigma))
            if cost:
                obj_rows.append(len(rows) - 1)
                obj_costs.append(float(cost))
    powers = [(d + 1) ** t for t in range(n)]

    def code(vars_, sigma):
        return sum((s + 1) * powers[v] for v, s in zip(vars_, sigma))

    virt = [({}, 0)]  # (variable -> value, Gram row or None)
    for i, entry in enumerate(aug):
        for sigma in itertools.product(range(d), repeat=len(entry.vars)):
            virt.append((dict(zip(entry.vars, sigma)), row_of.get((i, sigma))))
    class_of, sizes, pinned, entries = {}, [], set(), []
    for ai, (va, ra) in enumerate(virt):
        for vb, rb in virt[ai:]:
            if any(vb.get(v, s) != s for v, s in va.items()):
                continue
            joint = {**va, **vb}
            cid = class_of.setdefault(code(joint, joint.values()), len(sizes))
            if cid == len(sizes):
                sizes.append(len(joint))
            if ra is None or rb is None:
                pinned.add(cid)
            else:
                entries.append((ra, rb, cid))
    new_id, kept_sizes = {}, []
    for cid, size in enumerate(sizes):
        if cid not in pinned:
            new_id[cid] = len(kept_sizes)
            kept_sizes.append(size)

    def class_id(c):
        return new_id.get(class_of.get(c))

    live = [(r, c, new_id[k]) for r, c, k in entries if k in new_id]
    live += [(c, r, k) for r, c, k in live if r != c]
    pos_r, pos_c, cls = (np.array([e[j] for e in live], dtype=np.int32)
                         for j in range(3))
    filled = np.zeros((len(rows), len(rows)), dtype=bool)
    filled[pos_r, pos_c] = True
    data, rix, cix, rhs = [1.0], [0], [0], [1.0]
    for X in sorted(designated, key=lambda t: (len(t), t)):
        for v in X:
            rest = tuple(u for u in X if u != v)
            for sigma in itertools.product(range(d), repeat=len(rest)):
                terms = [(class_id(code(rest, sigma) + (val + 1) * powers[v]), 1.0)
                         for val in range(d)]
                terms.append((class_id(code(rest, sigma)), -1.0))
                terms = [t for t in terms if t[0] is not None]
                if terms:
                    for cid, coef in terms:
                        data.append(coef)
                        rix.append(len(rhs))
                        cix.append(cid)
                    rhs.append(0.0)
    b = np.zeros(len(kept_sizes))
    for ridx, cost in zip(obj_rows, obj_costs):
        i, sigma = rows[ridx]
        cid = class_id(code(aug[i].vars, sigma))
        if cid is not None:
            b[cid] += cost
    return {
        "pos_r": pos_r, "pos_c": pos_c, "cls": cls, "filled": filled,
        "A": scipy.sparse.csr_matrix((data, (rix, cix)),
                                     shape=(len(rhs), len(kept_sizes))),
        "a": np.array(rhs), "b": b,
        "y0": np.array([float(d) ** -s for s in kept_sizes]),
        "obj_rows": np.array(obj_rows, dtype=np.int64),
        "obj_costs": np.array(obj_costs), "pinned": len(pinned),
    }


def _assert_same_model(model, ref):
    assert model.num_classes == len(ref["y0"])
    for name in ("pos_r", "pos_c", "cls", "filled", "a", "b", "y0",
                 "obj_rows", "obj_costs"):
        got, want = getattr(model, name), ref[name]
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert model.A.shape == ref["A"].shape
    for part in ("indices", "indptr", "data"):
        got, want = getattr(model.A, part), getattr(ref["A"], part)
        assert got.dtype == want.dtype, part
        assert got.tobytes() == want.tobytes(), part


def _builder_cases():
    z2 = make_group("Z2")
    rng = random.Random(3)
    valued3 = VCSPInstance(3, 3)
    for j, scope in enumerate([(0, 1), (1, 2), (2,)]):
        entries = {t: (None if rng.random() < 0.2 else
                       Fraction(rng.randint(-3, 5), rng.choice([1, 2, 3])))
                   for t in itertools.product(range(3), repeat=len(scope))}
        valued3.add_constraint(rel(f"v{j}", len(scope), 3, entries), scope)
    pinning = _random_instance(random.Random(4), 4, 2, 4)
    # 22 variables of domain 3 need 66 key bits: variable 21 straddles
    # the two words
    wide = VCSPInstance(22, 3)
    for j, scope in enumerate([(0, 21), (20, 21), (5, 20)]):
        entries = {t: (None if (j + sum(t)) % 4 == 0 else Fraction(t[0] - t[1]))
                   for t in itertools.product(range(3), repeat=2)}
        wide.add_constraint(rel(f"w{j}", 2, 3, entries), scope)
    return [
        (_k4_tseitin(), 3, "full", False),
        (random_kxor(6, 9, z2, seed=2480531333), 3, "full", False),
        (random_kxor(7, 10, z2, seed=0), 3, "full", False),
        (valued3, 2, "full", False),
        (valued3, 2, "scopes", False),
        (random_kxor(6, 4, z2, seed=5), 2, "scopes", True),
        (pinning, 2, "full", False),
        (VCSPInstance(3, 2), 2, "full", False),
        (wide, 2, "scopes", False),
    ]


def test_builder_matches_reference_loop(monkeypatch):
    # every array bitwise equal to the double loop's, dtypes included;
    # a small grid block forces many blocks on the tie probe
    for inst, k, mode, low in _builder_cases():
        ref = _reference_build(inst, k, mode)
        _assert_same_model(build_las(inst, k, mode, allow_low_level=low), ref)
    monkeypatch.setattr(lasserre, "_GRID_PAIRS", 1000)
    z2 = make_group("Z2")
    probe = random_kxor(7, 10, z2, seed=0)
    _assert_same_model(build_las(probe, 3), _reference_build(probe, 3))


def test_builder_cases_cover_their_shapes():
    # the cases reach what they are named for: two key words, pinned
    # classes, a level below the widest scope, no constraints at all
    cases = _builder_cases()
    wide = cases[-1][0]
    assert wide.num_vars * wide.domain_size > 64
    assert _reference_build(cases[6][0], 2)["pinned"] > 0
    assert max(len(c.scope) for c in cases[5][0].constraints) > cases[5][1]
    assert not cases[7][0].constraints
    assert build_las(cases[7][0], 2).num_classes > 1


def test_cap_fires_before_the_grid(monkeypatch):
    def no_grid(*args):
        raise AssertionError("pair grid built")
    monkeypatch.setattr(lasserre, "_virtual_rows", no_grid)
    monkeypatch.setattr(lasserre, "_pair_keys", no_grid)
    inst = _k4_tseitin()
    with pytest.raises(CapExceeded):
        build_las(inst, 3, row_cap=216)
    with pytest.raises(AssertionError, match="pair grid built"):
        build_las(inst, 3, row_cap=217)


def _tie_null_vectors(model):
    """Vectors n with n^T M n = 0 on every tie-feasible Gram matrix M,
    so that M n = 0 once M is PSD, by plain loops: unit mass and
    marginalization per block of at most `level` variables, same-scope
    duplicates, and unit vectors of zero diagonals."""
    N, d = model.num_rows, model.instance.domain_size
    vecs = []

    def vec(*terms):
        v = np.zeros(N)
        for r, c in terms:
            v[r] += c
        return v

    for i, entry in enumerate(model.aug):
        X, rows = entry.vars, model.aug_rows[i]
        if len(X) <= model.level:
            vecs.append(vec((0, -1.0), *((r, 1.0) for r in rows.values())))
            for j in range(len(X)):
                rest = X[:j] + X[j + 1:]
                outer = (model.aug_rows[model.designated[rest]] if rest
                         else {(): 0})
                for tau in itertools.product(range(d), repeat=len(rest)):
                    ext = (tau[:j] + (a,) + tau[j:] for a in range(d))
                    terms = [(rows[s], 1.0) for s in ext if s in rows]
                    if tau in outer:
                        terms.append((outer[tau], -1.0))
                    vecs.append(vec(*terms))
        for h in range(i):
            if model.aug[h].vars == X:
                vecs.extend(vec((r, 1.0), (model.aug_rows[h][s], -1.0))
                            for s, r in rows.items() if s in model.aug_rows[h])
    vecs.extend(vec((p, 1.0)) for p in range(N) if not model.filled[p, p])
    return np.array(vecs)


def _face_models():
    # the tie systems, the builder's cases (domain 3, scopes mode, a
    # 3-XOR below its arity, pinned classes), and random valued
    # instances on 3 variables at levels 1 to 4: blocks wider than the
    # level, and a level above every block
    models = _tie_systems()
    models += [build_las(inst, k, mode, allow_low_level=low)
               for inst, k, mode, low in _builder_cases()]
    rng = random.Random(11)
    for _ in range(10):
        inst = _random_instance(rng, 3, 2, rng.randint(2, 4))
        models += [build_las(inst, k, allow_low_level=True)
                   for k in (1, 2, 3, 4)]
    return models


def _face_problems(model, Q):
    """What keeps span(Q) from being the face: a tie-null vector that Q
    does not annihilate, or a dimension other than N - rank."""
    V = _tie_null_vectors(model)
    out = []
    leak = np.linalg.norm(V @ Q, axis=1).max(initial=0.0)
    if leak > 1e-12:
        out.append(f"leak {leak:.3g}")
    want = model.num_rows - np.linalg.matrix_rank(V)
    if Q.shape[1] != want:
        out.append(f"dimension {Q.shape[1]} != {want}")
    return out


def test_face_is_the_null_space_of_the_tie_vectors():
    models = _face_models()
    for model in models:
        Q = model._face_basis()
        assert _face_problems(model, Q) == []
        assert np.abs(Q.T @ Q - np.eye(Q.shape[1])).max(initial=0.0) <= 1e-12
    # the cases reach blocks wider than the level, wide blocks sharing a
    # scope set, and pinned diagonals
    wide = [m for m in models if any(len(e.vars) > m.level for e in m.aug)]
    assert wide
    assert any(len({e.vars for e in m.aug if len(e.vars) > m.level})
               < sum(len(e.vars) > m.level for e in m.aug) for m in wide)
    assert any(not m.filled.diagonal().all() for m in models)
    # the refutation probes and the tie probe (above), and Tseitin n = 9
    z2 = make_group("Z2")
    tseitin9 = build_las(tseitin(random_regular_graph(6, 3, seed=1),
                                 [1, 0, 0, 0, 0, 0], z2, r=3), 3)
    assert _face_problems(tseitin9, tseitin9._face_basis()) == []
    probes = [models[0], models[1], models[5], tseitin9]
    assert [(m.num_rows, m._face_basis().shape[1]) for m in probes] == [
        (217, 26), (197, 13), (347, 29), (811, 106)]


def test_face_negative_controls():
    # a dropped Moebius column gives a face too small to hold every
    # feasible matrix; a flipped sign, one that leaks a tie-null vector
    model = build_las(_k4_tseitin(), 3)
    C, R = lasserre._mobius(model)
    for col in (0, 1, C.shape[1] - 1):
        keep = np.delete(np.arange(C.shape[1]), col)
        Q = lasserre._face(C[:, keep], R[:, keep])
        assert _face_problems(model, Q) == ["dimension 25 != 26"]
    flipped = C.copy()
    flipped[tuple(np.argwhere(C < 0)[0])] = 1.0
    (problem,) = _face_problems(model, lasserre._face(flipped, R))
    assert problem.startswith("leak")


def test_converged_matrices_lie_on_the_face():
    for inst, k in _feasible_runs():
        model = build_las(inst, k, allow_low_level=True)
        sol = solve_sdp(model)
        Q = model._face_basis()
        assert sol.face_dim == Q.shape[1] < model.num_rows
        P = Q @ Q.T
        assert np.abs(sol.M - P @ sol.M @ P).max() <= 10 * sol.eps


def test_tie_system_stop_never_builds_the_face(monkeypatch):
    def no_face(model):
        raise AssertionError("face built")
    monkeypatch.setattr(lasserre, "_mobius", no_face)
    z2 = make_group("Z2")
    for model in (build_las(_equality_cycle(), 3),
                  build_las(random_kxor(7, 10, z2, seed=0), 3)):
        res = solve_sdp(model)
        assert res.stop == "tie-system" and res.face_dim is None
        assert model._face is None
    with pytest.raises(AssertionError, match="face built"):
        solve_sdp(build_las(_equality_cycle(), 2))


def test_mobius_needs_designated_subsets():
    model = build_las(_k4_tseitin(), 3)
    del model.designated[min(model.designated, key=len)]
    with pytest.raises(InternalError, match="lacks a designated subset"):
        lasserre._mobius(model)
