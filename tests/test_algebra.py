"""Polymorphism and fractional-polymorphism algebra.

Every frozen expectation carries a short derivation note next to the
assertion so the values can be re-checked by hand.
"""

import itertools
from fractions import Fraction

import pytest

import vcsprelax.algebra as algebra
from vcsprelax.algebra import (
    BwcReport,
    FractionalOperation,
    Operation,
    all_operations,
    bwc_report,
    check_fractional_polymorphism,
    compute_core,
    find_fractional_polymorphism,
    find_wnu_in_supp,
    is_language_polymorphism,
    is_polymorphism,
    kill_operations,
    order_statistic,
    projection,
    supp_membership,
    symmetric_operations,
    wnu_candidate_operations,
)
from vcsprelax.errors import CapExceeded, InternalError
from vcsprelax.model import ConstraintLanguage, WeightedRelation


def imp_crisp():
    return WeightedRelation.from_entries(
        "imp", 2, 2, {(0, 0): 0, (0, 1): 0, (1, 1): 0}
    )


def imp_soft():
    return WeightedRelation.from_entries("imp", 2, 2, {(1, 0): 1}, default=0)


def diseq(d=2):
    return WeightedRelation.from_entries("neq", 2, d, {(0, 1): 0, (1, 0): 0})


def eq_01(d):
    return WeightedRelation.from_entries("eq01", 2, d, {(0, 0): 0, (1, 1): 0})


def parity_language():
    """Ternary parity relations over {0,1} plus both unary constants."""
    lang = ConstraintLanguage(2)
    lang.add(WeightedRelation.from_entries("u0", 1, 2, {(0,): 0}))
    lang.add(WeightedRelation.from_entries("u1", 1, 2, {(1,): 0}))
    even = {t: 0 for t in itertools.product(range(2), repeat=3) if sum(t) % 2 == 0}
    odd = {t: 0 for t in itertools.product(range(2), repeat=3) if sum(t) % 2 == 1}
    lang.add(WeightedRelation.from_entries("even3", 3, 2, even))
    lang.add(WeightedRelation.from_entries("odd3", 3, 2, odd))
    return lang


MIN2 = order_statistic(2, 1, 2)
MAX2 = order_statistic(2, 2, 2)
MAJ3 = order_statistic(3, 2, 2)
MINORITY3 = Operation(
    "minority", 3, 2,
    [x ^ y ^ z for x, y, z in itertools.product(range(2), repeat=3)],
)
XOR2 = Operation("xor", 2, 2, [0, 1, 1, 0])
NEG = Operation("neg", 1, 2, [1, 0])


def test_projection_behaviour():
    p = projection(3, 1, 2)
    assert p.apply((0, 1, 0)) == 1
    assert p.is_idempotent
    # moving the lone argument changes the value, so no WNU identities
    assert not p.satisfies_wnu_identities()


def test_order_statistic_tables():
    # second smallest of three bits is the majority bit
    assert MAJ3.table == (0, 0, 0, 1, 0, 1, 1, 1)
    assert MIN2.table == (0, 0, 0, 1)
    assert MAX2.table == (0, 1, 1, 1)
    assert MAJ3.satisfies_wnu_identities()
    with pytest.raises(ValueError):
        order_statistic(3, 4, 2)


def test_wnu_identity_checks():
    assert MINORITY3.satisfies_wnu_identities()
    assert MINORITY3.is_idempotent
    # xor is symmetric, hence fine without idempotency, but xor(1,1) = 0
    assert XOR2.satisfies_wnu_identities(require_idempotent=False)
    assert not XOR2.satisfies_wnu_identities(require_idempotent=True)


def test_wnu_candidate_enumeration():
    # arity 3 on {0,1}: two tied one-off classes, no free inputs, so 4 ops
    cands = wnu_candidate_operations(3, 2, require_idempotent=True)
    assert len(cands) == 4
    assert all(op.satisfies_wnu_identities() for op in cands)
    assert len({op.table for op in cands}) == 4
    assert MINORITY3.table in {op.table for op in cands}
    assert MAJ3.table in {op.table for op in cands}
    # arity 4: two classes plus six free inputs gives 2^8 tables
    assert len(wnu_candidate_operations(4, 2, require_idempotent=True)) == 256
    # dropping idempotency frees the two diagonal values as well
    assert len(wnu_candidate_operations(3, 2, require_idempotent=False)) == 16


def test_operation_enumeration_caps():
    assert len(all_operations(2, 2)) == 16
    with pytest.raises(CapExceeded):
        all_operations(3, 3)
    # symmetric ternary ops on {0,1}: one value per multiset size, 2^4
    syms = symmetric_operations(3, 2)
    assert len(syms) == 16
    assert all(op.satisfies_wnu_identities(require_idempotent=False) for op in syms)


def test_is_polymorphism_basics():
    ok, _ = is_polymorphism(projection(2, 0, 2), diseq())
    assert ok
    ok, _ = is_polymorphism(MIN2, imp_crisp())
    assert ok
    # min applied to (0,1) and (1,0) lands on (0,0), outside the relation
    ok, witness = is_polymorphism(MIN2, diseq())
    assert not ok
    assert witness == [(0, 1), (1, 0)]


def test_is_polymorphism_cap():
    with pytest.raises(CapExceeded):
        is_polymorphism(MIN2, imp_crisp(), cap=3)


def test_parity_polymorphisms():
    lang = parity_language()
    # coordinatewise xor of three solutions of sum = a solves sum = 3a = a
    ok, _ = is_language_polymorphism(MINORITY3, lang)
    assert ok
    # majority of the three weight-2 solutions of even3 is all-ones
    ok, witness = is_polymorphism(MAJ3, lang.get("even3"))
    assert not ok


def test_fractional_operation_validation():
    with pytest.raises(ValueError):
        FractionalOperation({MIN2: Fraction(1, 2)})
    with pytest.raises(ValueError):
        FractionalOperation({MIN2: Fraction(3, 2), MAX2: Fraction(-1, 2)})
    with pytest.raises(ValueError):
        FractionalOperation({MIN2: Fraction(1, 2), MAJ3: Fraction(1, 2)})
    fop = FractionalOperation({MIN2: Fraction(1, 2), MAX2: Fraction(1, 2)})
    assert fop.weight_on(lambda op: op == MAX2) == Fraction(1, 2)


def test_half_min_half_max_on_soft_implication():
    # submodularity of the implication cost function, checked exactly
    lang = ConstraintLanguage(2, [imp_soft()])
    fop = FractionalOperation({MIN2: Fraction(1, 2), MAX2: Fraction(1, 2)})
    ok, witness = check_fractional_polymorphism(fop, lang)
    assert ok, witness


def test_point_mass_xor_fails_on_soft_implication():
    lang = ConstraintLanguage(2, [imp_soft()])
    fop = FractionalOperation({XOR2: Fraction(1)})
    ok, witness = check_fractional_polymorphism(fop, lang)
    assert not ok
    assert witness[0] == "inequality"


def test_point_mass_support_violation():
    lang = ConstraintLanguage(2, [diseq()])
    fop = FractionalOperation({MIN2: Fraction(1)})
    ok, witness = check_fractional_polymorphism(fop, lang)
    assert not ok
    assert witness[0] == "support"


def test_find_fractional_polymorphism_exists():
    # the uniform mix of the two projections always qualifies
    lang = ConstraintLanguage(2, [imp_soft()])
    fop = find_fractional_polymorphism(lang, 2)
    assert fop is not None
    assert sum(w for _, w in fop.items()) == 1


def test_rejected_solver_witness_raises(monkeypatch):
    # a witness that fails re-verification is an internal fault, and it
    # must surface even under python -O
    monkeypatch.setattr(algebra, "check_fractional_polymorphism",
                        lambda fop, lang, cap: (False, "forced rejection"))
    lang = ConstraintLanguage(2, [imp_soft()])
    with pytest.raises(InternalError, match="forced rejection"):
        find_fractional_polymorphism(lang, 2)
    with pytest.raises(InternalError, match="forced rejection"):
        supp_membership(lang, MAX2)


def test_supp_membership_on_soft_implication():
    lang = ConstraintLanguage(2, [imp_soft()])
    member, witness = supp_membership(lang, MAX2)
    assert member
    assert witness.weight_on(lambda op: op == MAX2) > 0
    # xor maps the rows (1,1),(0,1) to cost 1 while their average cost is 0,
    # so no distribution can put positive weight on it
    member, witness = supp_membership(lang, XOR2)
    assert not member
    assert witness is None


def test_supp_membership_crisp_shortcut():
    lang = ConstraintLanguage(2, [imp_crisp()])
    member, witness = supp_membership(lang, MIN2)
    assert member
    assert witness.items() == [(MIN2, Fraction(1))]
    member, _ = supp_membership(lang, XOR2)
    assert not member


def test_compute_core_already_core():
    lang = ConstraintLanguage(2, [diseq()])
    report, core = compute_core(lang)
    assert report.is_core
    assert report.core_domain == [0, 1]
    assert report.restriction_map == {0: 0, 1: 1}
    assert core.get("neq").table == diseq().table


def test_compute_core_collapses_equality_fragment():
    # constants preserve {(0,0),(1,1)}, so the core is a single point
    lang = ConstraintLanguage(3, [eq_01(3)])
    report, core = compute_core(lang)
    assert not report.is_core
    assert report.core_domain == [0]
    assert report.restriction_map == {0: 0, 1: 0, 2: 0}
    assert core.domain_size == 1
    assert len(report.steps) == 1


def test_compute_core_two_element_core():
    # unary maps must send (0,1) to the relation, 2 can fold anywhere
    lang = ConstraintLanguage(3, [diseq(3)])
    report, core = compute_core(lang)
    assert not report.is_core
    assert report.core_domain == [0, 1]
    assert report.restriction_map == {0: 0, 1: 1, 2: 0}
    assert core.domain_size == 2
    assert core.get("neq").table == diseq().table


def test_find_wnu_parity_arity3():
    # xor of three arguments is the unique identity-satisfying polymorphism
    lang = parity_language()
    fop = find_wnu_in_supp(lang, 3)
    assert fop is not None
    assert [op.table for op in fop.support()] == [MINORITY3.table]


def test_find_wnu_parity_arity4_none():
    # polymorphisms here are parity sums of an odd number of arguments;
    # at arity 4 moving the lone argument always changes the value
    lang = parity_language()
    assert find_wnu_in_supp(lang, 4) is None
    assert find_wnu_in_supp(lang, 4, require_idempotent=False) is None


def test_find_wnu_soft_submodular():
    lang = ConstraintLanguage(2, [imp_soft()])
    for m in (3, 4):
        fop = find_wnu_in_supp(lang, m)
        assert fop is not None, f"arity {m}"
        assert fop.weight_on(lambda op: op.satisfies_wnu_identities()) > 0


def test_find_wnu_candidate_cap():
    lang = ConstraintLanguage(3, [eq_01(3)])
    with pytest.raises(CapExceeded):
        find_wnu_in_supp(lang, 3, op_cap=100)


def test_bwc_report_submodular():
    lang = ConstraintLanguage(2, [imp_soft()])
    report = bwc_report(lang, m_max=4)
    assert report.summary == "satisfied up to 4"
    assert report.first_violation is None
    assert set(report.witnesses) == {3, 4}


def test_bwc_report_parity():
    lang = parity_language()
    report = bwc_report(lang, m_max=4)
    assert report.verdicts == {3: "satisfied", 4: "violated"}
    assert report.first_violation == 4
    assert report.summary == "violated at 4"


def test_bwc_report_inconclusive_on_cap():
    lang = ConstraintLanguage(3, [eq_01(3)])
    report = bwc_report(lang, m_max=3, op_cap=100)
    assert report.verdicts == {3: "inconclusive"}
    assert report.first_violation is None
    assert "inconclusive" in report.summary


def test_kill_xor_via_optimal_tuples():
    # minimizing imp over scope (x0,x1) leaves exactly the implication
    # tuples, and xor maps (0,1),(1,1) onto the excluded (1,0)
    lang = ConstraintLanguage(2, [imp_soft()])
    result = kill_operations(lang, [XOR2])
    assert result.complete
    kind, relname, inst = result.certificates["xor"]
    assert kind == "opt"
    assert result.language.get(relname).table == imp_crisp().table
    assert inst.num_vars == 2
    assert [c.scope for c in inst.constraints] == [(0, 1)]
    assert "feas_imp" in result.language


def test_kill_negation_via_optimal_tuples():
    lang = ConstraintLanguage(2, [imp_soft()])
    result = kill_operations(lang, [NEG])
    assert result.complete
    assert result.certificates["neg"][0] == "opt"


def test_kill_max_exhausts_budget():
    # max sits in the support (half min plus half max), so minimizer sets
    # are closed under it and no expressible relation can rule it out
    lang = ConstraintLanguage(2, [imp_soft()])
    result = kill_operations(lang, [MAX2])
    assert not result.complete
    assert result.failures == [MAX2]
    assert "max" not in {name for name in result.certificates}


def test_kill_non_polymorphism_by_feasibility():
    lang = ConstraintLanguage(2, [imp_crisp()])
    result = kill_operations(lang, [XOR2])
    assert result.complete
    kind, relname, inst = result.certificates["xor"]
    assert kind == "feas"
    assert relname == "feas_imp"
    assert inst is None
