"""Operations, polymorphisms, fractional polymorphisms, cores, WNU tests.

Membership in the support of the fractional-polymorphism set is decided by
exact LPs over the rational simplex, so every verdict here is a sign
decision, not a tolerance check.  For crisp languages the support equals the
set of ordinary polymorphisms (the defining inequality is 0 <= 0 on feasible
tuples), which gives an enumeration shortcut used for the larger arities.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import CapExceeded, InternalError
from .model import ConstraintLanguage, ValuedConstraint, VCSPInstance, WeightedRelation, opt_of, feas_of, restrict_language, scaled_objective
from .simplex import ExactLP, solve_lp
from .values import INF

OP_CAP = 2 * 10**4          # candidate operations per LP
TUPLE_CAP = 10**6           # feasible-tuple combinations per relation check
KILL_MAX_VARS = 3
KILL_MAX_CONSTRAINTS = 3
KILL_BUDGET = 20000


class Operation:
    """A finitary operation f: D^m -> D stored as a flat value table."""

    __slots__ = ("name", "arity", "domain_size", "table")

    def __init__(self, name: str, arity: int, domain_size: int, table):
        table = tuple(int(v) for v in table)
        if len(table) != domain_size**arity:
            raise ValueError(f"operation table for {name!r} has wrong size")
        if any(not 0 <= v < domain_size for v in table):
            raise ValueError(f"operation {name!r} has out-of-domain values")
        self.name = name
        self.arity = arity
        self.domain_size = domain_size
        self.table = table

    def apply(self, args) -> int:
        return self.table[WeightedRelation.encode(args, self.domain_size)]

    def items(self):
        for tup in itertools.product(range(self.domain_size), repeat=self.arity):
            yield tup, self.apply(tup)

    @property
    def is_idempotent(self) -> bool:
        return all(self.apply((x,) * self.arity) == x for x in range(self.domain_size))

    @property
    def is_bijective(self) -> bool:
        if self.arity != 1:
            return False
        return len(set(self.table)) == self.domain_size

    def satisfies_wnu_identities(self, require_idempotent: bool = True) -> bool:
        """The near-unanimity-style identities: moving the lone deviating
        argument across positions never changes the value."""
        m, d = self.arity, self.domain_size
        if m < 2:
            return False
        if require_idempotent and not self.is_idempotent:
            return False
        for x in range(d):
            for y in range(d):
                if x == y:
                    continue
                base = [x] * m
                base[0] = y
                v0 = self.apply(tuple(base))
                for pos in range(1, m):
                    args = [x] * m
                    args[pos] = y
                    if self.apply(tuple(args)) != v0:
                        return False
        return True

    def key(self):
        return (self.arity, self.domain_size, self.table)

    def __eq__(self, other):
        if not isinstance(other, Operation):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Operation({self.name!r}, arity={self.arity}, d={self.domain_size})"


def projection(arity: int, coord: int, domain_size: int) -> Operation:
    table = [
        tup[coord]
        for tup in itertools.product(range(domain_size), repeat=arity)
    ]
    return Operation(f"proj{arity}_{coord}", arity, domain_size, table)


def order_statistic(arity: int, rank: int, domain_size: int) -> Operation:
    """The rank-th smallest argument (1-based); symmetric and idempotent."""
    if not 1 <= rank <= arity:
        raise ValueError("rank out of range")
    table = [
        sorted(tup)[rank - 1]
        for tup in itertools.product(range(domain_size), repeat=arity)
    ]
    return Operation(f"ord{arity}_{rank}", arity, domain_size, table)


def all_operations(arity: int, domain_size: int, cap: int = OP_CAP):
    """Every m-ary operation on the domain; raises CapExceeded when too many."""
    count = domain_size ** (domain_size**arity)
    if count > cap:
        raise CapExceeded(
            f"{count} operations of arity {arity} on domain {domain_size} exceed cap {cap}"
        )
    ops = []
    for i, table in enumerate(
        itertools.product(range(domain_size), repeat=domain_size**arity)
    ):
        ops.append(Operation(f"op{arity}_{i}", arity, domain_size, table))
    return ops


def symmetric_operations(arity: int, domain_size: int, cap: int = OP_CAP):
    """Operations whose value depends only on the argument multiset."""
    slots = list(itertools.combinations_with_replacement(range(domain_size), arity))
    count = domain_size ** len(slots)
    if count > cap:
        raise CapExceeded(f"{count} symmetric operations exceed cap {cap}")
    inputs = list(itertools.product(range(domain_size), repeat=arity))
    keys = [tuple(sorted(t)) for t in inputs]
    ops = []
    for i, values in enumerate(itertools.product(range(domain_size), repeat=len(slots))):
        lookup = dict(zip(slots, values))
        table = [lookup[k] for k in keys]
        ops.append(Operation(f"sym{arity}_{i}", arity, domain_size, table))
    return ops


def wnu_candidate_operations(
    arity: int, domain_size: int, require_idempotent: bool = True, cap: int = OP_CAP
):
    """All operations satisfying the deviating-argument identities.

    Built directly from the identity structure: one shared value per
    (repeated, deviating) label pair, fixed diagonal when idempotent, free
    values elsewhere.
    """
    m, d = arity, domain_size
    if m < 2:
        return []
    inputs = list(itertools.product(range(d), repeat=m))
    diag = {}
    groups: dict[tuple, list[int]] = {}
    free = []
    for idx, tup in enumerate(inputs):
        labels = set(tup)
        if len(labels) == 1:
            diag[idx] = tup[0]
        elif len(labels) == 2:
            counts = {v: tup.count(v) for v in labels}
            lone = [v for v, c in counts.items() if c == 1]
            if len(lone) == 1 and m > 2:
                y = lone[0]
                x = next(v for v in labels if v != y)
                groups.setdefault((x, y), []).append(idx)
            elif m == 2:
                # binary case: f(x,y) = f(y,x) tie
                x, y = sorted(labels)
                groups.setdefault((x, y), []).append(idx)
            else:
                free.append(idx)
        else:
            free.append(idx)
    n_choices = len(groups) + len(free) + (0 if require_idempotent else len(diag))
    count = d**n_choices
    if count > cap:
        raise CapExceeded(
            f"{count} deviating-argument candidates at arity {m} exceed cap {cap}"
        )
    group_keys = sorted(groups)
    ops = []
    diag_items = sorted(diag)
    for i, choice in enumerate(itertools.product(range(d), repeat=n_choices)):
        table = [0] * len(inputs)
        pos = 0
        for key in group_keys:
            for idx in groups[key]:
                table[idx] = choice[pos]
            pos += 1
        for idx in free:
            table[idx] = choice[pos]
            pos += 1
        if require_idempotent:
            for idx, v in diag.items():
                table[idx] = v
        else:
            for idx in diag_items:
                table[idx] = choice[pos]
                pos += 1
        op = Operation(f"wnu{m}_{i}", m, d, table)
        if not require_idempotent or op.is_idempotent:
            ops.append(op)
    return ops


def is_polymorphism(op: Operation, rel: WeightedRelation, cap: int = TUPLE_CAP):
    """Does applying `op` coordinatewise keep feasible tuples feasible?

    Returns (ok, witness); the witness is the offending tuple list.
    """
    if op.domain_size != rel.domain_size:
        raise ValueError("domain mismatch")
    feas = rel.feasible_tuples()
    total = len(feas) ** op.arity
    if total > cap:
        raise CapExceeded(f"{total} tuple combinations exceed cap {cap}")
    for rows in itertools.product(feas, repeat=op.arity):
        image = tuple(op.apply(col) for col in zip(*rows))
        if not rel.value(image).is_finite:
            return False, list(rows)
    return True, None


def is_language_polymorphism(op: Operation, lang: ConstraintLanguage, cap: int = TUPLE_CAP):
    for rel in lang.relations():
        ok, witness = is_polymorphism(op, rel, cap)
        if not ok:
            return False, (rel.name, witness)
    return True, None


class FractionalOperation:
    """A rational distribution over operations of one arity."""

    def __init__(self, weights):
        items = [(op, Fraction(w)) for op, w in weights.items() if Fraction(w) != 0]
        if not items:
            raise ValueError("empty fractional operation")
        arities = {op.arity for op, _ in items}
        domains = {op.domain_size for op, _ in items}
        if len(arities) != 1 or len(domains) != 1:
            raise ValueError("mixed arities or domains")
        if any(w < 0 for _, w in items):
            raise ValueError("negative weight")
        if sum(w for _, w in items) != 1:
            raise ValueError("weights must sum to 1")
        self.arity = arities.pop()
        self.domain_size = domains.pop()
        self._items = sorted(items, key=lambda it: it[0].table)

    def items(self):
        return list(self._items)

    def support(self):
        return [op for op, _ in self._items]

    def weight_on(self, predicate) -> Fraction:
        return sum((w for op, w in self._items if predicate(op)), Fraction(0))

    def __repr__(self):
        parts = ", ".join(f"{op.name}:{w}" for op, w in self._items)
        return f"FractionalOperation({parts})"


def check_fractional_polymorphism(
    fop: FractionalOperation, lang: ConstraintLanguage, cap: int = TUPLE_CAP
):
    """Exact check of the defining expectation inequality.

    Returns (ok, witness) where a witness names the relation and tuple list
    violating either the support condition or the inequality.
    """
    for op in fop.support():
        ok, witness = is_language_polymorphism(op, lang, cap)
        if not ok:
            return False, ("support", op.name, witness)
    m = fop.arity
    for rel in lang.relations():
        feas = rel.feasible_tuples()
        total = len(feas) ** m
        if total > cap:
            raise CapExceeded(f"{total} tuple combinations exceed cap {cap}")
        for rows in itertools.product(feas, repeat=m):
            avg = sum((rel.value(t).frac for t in rows), Fraction(0)) / m
            lhs = Fraction(0)
            for op, w in fop.items():
                image = tuple(op.apply(col) for col in zip(*rows))
                lhs += w * rel.value(image).frac
            if lhs > avg:
                return False, ("inequality", rel.name, list(rows), lhs, avg)
    return True, None


def _pol_filtered(lang, candidates, cap):
    kept = []
    for op in candidates:
        ok, _ = is_language_polymorphism(op, lang, cap)
        if ok:
            kept.append(op)
    return kept


def _fpol_rows(lang, candidates, cap):
    """Inequality rows of the fractional-polymorphism LP, deduplicated.

    Row semantics: sum_f omega_f * (phi(f(X)) - avg(X)) <= 0 for every
    relation phi and every feasible tuple list X.
    """
    if not candidates:
        return []
    m = candidates[0].arity
    rows = set()
    for rel in lang.relations():
        feas = rel.feasible_tuples()
        total = len(feas) ** m
        if total > cap:
            raise CapExceeded(f"{total} tuple combinations exceed cap {cap}")
        for rows_in in itertools.product(feas, repeat=m):
            avg = sum((rel.value(t).frac for t in rows_in), Fraction(0)) / m
            coeffs = []
            for op in candidates:
                image = tuple(op.apply(col) for col in zip(*rows_in))
                coeffs.append(rel.value(image).frac - avg)
            if any(c > 0 for c in coeffs):
                rows.add(tuple(coeffs))
    return sorted(rows)


def _solve_fpol_lp(lang, candidates, objective_coeffs, cap):
    """Shared LP core: min objective over fractional polymorphisms supported
    on `candidates` (already polymorphism-filtered)."""
    n = len(candidates)
    lp = ExactLP(n)
    lp.set_objective(dict(enumerate(objective_coeffs)))
    lp.add_eq({j: Fraction(1) for j in range(n)}, 1)
    for row in _fpol_rows(lang, candidates, cap):
        lp.add_le({j: c for j, c in enumerate(row) if c != 0}, 0)
    return solve_lp(lp)


def find_fractional_polymorphism(
    lang: ConstraintLanguage,
    arity: int,
    candidates=None,
    op_cap: int = OP_CAP,
    tuple_cap: int = TUPLE_CAP,
):
    """Some m-ary fractional polymorphism, or None when none exists.

    With the default (full) candidate set the answer is exact; a user
    candidate set restricts the search space and only affirmative answers
    are conclusive.
    """
    if candidates is None:
        candidates = all_operations(arity, lang.domain_size, cap=op_cap)
    candidates = _pol_filtered(lang, candidates, tuple_cap)
    if not candidates:
        return None
    res = _solve_fpol_lp(lang, candidates, [0] * len(candidates), tuple_cap)
    if res.status != "optimal":
        return None
    weights = {op: res.x[j] for j, op in enumerate(candidates) if res.x[j] > 0}
    fop = FractionalOperation(weights)
    ok, witness = check_fractional_polymorphism(fop, lang, tuple_cap)
    if not ok:
        raise InternalError(
            f"solver returned an invalid fractional polymorphism: {witness}")
    return fop


def _max_mass_fpol(lang, candidates, predicate, cap):
    """Maximize the mass on operations satisfying `predicate`.

    Returns (mass, fop or None).  Exact sign decision: mass is a Fraction.
    """
    if not candidates:
        return Fraction(0), None
    objective = [Fraction(-1) if predicate(op) else Fraction(0) for op in candidates]
    if all(c == 0 for c in objective):
        return Fraction(0), None
    res = _solve_fpol_lp(lang, candidates, objective, cap)
    if res.status != "optimal":
        return Fraction(0), None
    mass = -res.value
    if mass <= 0:
        return Fraction(0), None
    weights = {op: res.x[j] for j, op in enumerate(candidates) if res.x[j] > 0}
    fop = FractionalOperation(weights)
    ok, witness = check_fractional_polymorphism(fop, lang, cap)
    if not ok:
        raise InternalError(
            f"solver returned an invalid fractional polymorphism: {witness}")
    return mass, fop


def supp_membership(
    lang: ConstraintLanguage,
    op: Operation,
    op_cap: int = OP_CAP,
    tuple_cap: int = TUPLE_CAP,
):
    """Is `op` in the union of supports of fractional polymorphisms?

    Returns (member, witness fractional operation or None).  For crisp
    languages membership coincides with being an ordinary polymorphism
    (point mass works), avoiding the LP.
    """
    ok, _ = is_language_polymorphism(op, lang, tuple_cap)
    if not ok:
        return False, None
    if lang.is_crisp:
        return True, FractionalOperation({op: Fraction(1)})
    candidates = all_operations(op.arity, lang.domain_size, cap=op_cap)
    candidates = _pol_filtered(lang, candidates, tuple_cap)
    mass, fop = _max_mass_fpol(lang, candidates, lambda f: f == op, tuple_cap)
    return mass > 0, fop


class CoreReport:
    def __init__(self, is_core, core_domain, restriction_map, steps):
        self.is_core = is_core                # input language already a core?
        self.core_domain = core_domain        # labels of the original domain
        self.restriction_map = restriction_map  # original label -> core label
        self.steps = steps                    # (collapsing op, witness) per round

    def __repr__(self):
        return f"CoreReport(is_core={self.is_core}, core_domain={self.core_domain})"


def compute_core(
    lang: ConstraintLanguage, op_cap: int = OP_CAP, tuple_cap: int = TUPLE_CAP
):
    """Iteratively collapse the domain along non-bijective unary support
    members until none remains."""
    d = lang.domain_size
    current = lang
    sub = list(range(d))            # current labels, in original numbering
    total_map = {x: x for x in range(d)}
    steps = []
    while True:
        found = None
        for op in all_operations(1, current.domain_size, cap=op_cap):
            if op.is_bijective:
                continue
            member, fop = supp_membership(current, op, op_cap, tuple_cap)
            if member:
                found = (op, fop)
                break
        if found is None:
            break
        op, fop = found
        steps.append((op, fop))
        image = sorted(set(op.table))
        step_orig = {sub[j]: sub[op.table[j]] for j in range(len(sub))}
        total_map = {x: step_orig[total_map[x]] for x in total_map}
        sub = [sub[j] for j in image]
        current = restrict_language(current, image)
    relabel = {orig: i for i, orig in enumerate(sub)}
    restriction = {x: relabel[total_map[x]] for x in total_map}
    return CoreReport(
        is_core=(not steps),
        core_domain=sub,
        restriction_map=restriction,
        steps=steps,
    ), current


def find_wnu_in_supp(
    lang: ConstraintLanguage,
    arity: int,
    require_idempotent: bool = True,
    candidates=None,
    op_cap: int = OP_CAP,
    tuple_cap: int = TUPLE_CAP,
):
    """A fractional polymorphism with positive mass on deviating-argument
    operations of the given arity, or None when provably none exists.

    Strategy: crisp languages are decided by direct enumeration of identity
    candidates (support = polymorphisms there).  Otherwise a small LP over
    the symmetric operations runs first (affirmative answers are verified
    and conclusive), then the full LP within the operation cap settles the
    negative case.
    """
    d = lang.domain_size
    is_wnu = lambda op: op.satisfies_wnu_identities(require_idempotent)

    if candidates is not None:
        filtered = _pol_filtered(lang, candidates, tuple_cap)
        mass, fop = _max_mass_fpol(lang, filtered, is_wnu, tuple_cap)
        return fop if mass > 0 else None

    if lang.is_crisp:
        for op in wnu_candidate_operations(arity, d, require_idempotent, cap=op_cap):
            ok, _ = is_language_polymorphism(op, lang, tuple_cap)
            if ok:
                return FractionalOperation({op: Fraction(1)})
        return None

    # affirmative fast path: symmetric operations all satisfy the identities
    try:
        sym = symmetric_operations(arity, d, cap=op_cap)
    except CapExceeded:
        sym = []
    if sym:
        filtered = _pol_filtered(lang, sym, tuple_cap)
        mass, fop = _max_mass_fpol(lang, filtered, is_wnu, tuple_cap)
        if mass > 0:
            return fop
    full = all_operations(arity, d, cap=op_cap)  # raises CapExceeded when too big
    filtered = _pol_filtered(lang, full, tuple_cap)
    mass, fop = _max_mass_fpol(lang, filtered, is_wnu, tuple_cap)
    return fop if mass > 0 else None


class BwcReport:
    """Per-arity verdicts for the bounded-width criterion, up to m_max."""

    def __init__(self, m_max, verdicts, witnesses):
        self.m_max = m_max
        self.verdicts = verdicts      # {m: 'satisfied' | 'violated' | 'inconclusive'}
        self.witnesses = witnesses    # {m: FractionalOperation} where satisfied

    @property
    def first_violation(self):
        for m in sorted(self.verdicts):
            if self.verdicts[m] == "violated":
                return m
        return None

    @property
    def summary(self) -> str:
        v = self.first_violation
        if v is not None:
            return f"violated at {v}"
        if all(s == "satisfied" for s in self.verdicts.values()):
            return f"satisfied up to {self.m_max}"
        bad = [m for m, s in self.verdicts.items() if s != "satisfied"]
        return f"inconclusive at {bad} up to {self.m_max}"

    def __repr__(self):
        return f"BwcReport({self.summary!r})"


def bwc_report(
    lang: ConstraintLanguage,
    m_max: int = 4,
    require_idempotent: bool = False,
    op_cap: int = OP_CAP,
    tuple_cap: int = TUPLE_CAP,
):
    """Check for deviating-argument operations in the support at every arity
    3..m_max.  The criterion proper quantifies over all arities, so verdicts
    are qualified by m_max; 'violated' at some arity is conclusive.
    """
    verdicts = {}
    witnesses = {}
    for m in range(3, m_max + 1):
        try:
            fop = find_wnu_in_supp(
                lang, m, require_idempotent=require_idempotent,
                op_cap=op_cap, tuple_cap=tuple_cap,
            )
        except CapExceeded:
            verdicts[m] = "inconclusive"
            continue
        if fop is None:
            verdicts[m] = "violated"
        else:
            verdicts[m] = "satisfied"
            witnesses[m] = fop
    return BwcReport(m_max, verdicts, witnesses)


class KillResult:
    def __init__(self, language, certificates, failures):
        self.language = language          # crisp ConstraintLanguage
        self.certificates = certificates  # op name -> (kind, relation name, instance|None)
        self.failures = failures          # ops the bounded search could not kill

    @property
    def complete(self) -> bool:
        return not self.failures

    def __repr__(self):
        return f"KillResult(complete={self.complete}, relations={self.language.names()})"


def _instances_over(lang, num_vars, num_constraints):
    """All instances with the given shape, in lexicographic order, using
    every variable at least once."""
    universe = []
    for ri, rel in enumerate(lang.relations()):
        for scope in itertools.product(range(num_vars), repeat=rel.arity):
            universe.append((ri, scope))
    rels = lang.relations()
    for combo in itertools.combinations_with_replacement(
        range(len(universe)), num_constraints
    ):
        used = set()
        for u in combo:
            used.update(universe[u][1])
        if len(used) != num_vars:
            continue
        inst = VCSPInstance(num_vars, lang.domain_size)
        for u in combo:
            ri, scope = universe[u]
            inst.add(ValuedConstraint(rels[ri], scope))
        yield inst


def _objective_relation(inst: VCSPInstance, name: str) -> WeightedRelation:
    """The instance objective as a weighted relation over all its variables."""
    totals, lcm, limit = scaled_objective(inst)
    table = [Fraction(int(t), lcm) if t <= limit else INF for t in totals]
    return WeightedRelation(name, inst.num_vars, inst.domain_size, table)


def kill_operations(
    lang: ConstraintLanguage,
    ops,
    budget: int = KILL_BUDGET,
    max_vars: int = KILL_MAX_VARS,
    max_constraints: int = KILL_MAX_CONSTRAINTS,
    tuple_cap: int = TUPLE_CAP,
):
    """Build a crisp language expressible from `lang` that none of `ops`
    preserves.

    The output always contains the feasibility relation of every language
    member (killing non-polymorphisms).  For each remaining operation a
    bounded search over small instances looks for an objective whose
    optimal-tuple relation the operation fails to preserve.  Everything is
    re-verified by enumeration before returning; operations that survive the
    budget are reported as failures (e.g. genuine support members, which no
    expressible relation can kill).
    """
    ops = list(ops)
    delta = ConstraintLanguage(lang.domain_size)
    for rel in lang.relations():
        delta.add(feas_of(rel, name=f"feas_{rel.name}"))
    certificates = {}
    failures = []
    pending = []
    for op in ops:
        ok, _ = is_language_polymorphism(op, lang, tuple_cap)
        if not ok:
            for rel in lang.relations():
                fr = delta.get(f"feas_{rel.name}")
                good, _ = is_polymorphism(op, fr, tuple_cap)
                if not good:
                    certificates[op.name] = ("feas", fr.name, None)
                    break
        else:
            pending.append(op)
    counter = 0
    examined = 0
    for op in pending:
        found = None
        examined_for_op = 0
        for v in range(1, max_vars + 1):
            if found:
                break
            for c in range(1, max_constraints + 1):
                if found:
                    break
                for inst in _instances_over(lang, v, c):
                    examined += 1
                    examined_for_op += 1
                    if examined_for_op > budget:
                        break
                    phi = _objective_relation(inst, f"obj_{counter}")
                    opt = opt_of(phi, name=f"opt_inst_{counter}")
                    good, _ = is_polymorphism(op, opt, tuple_cap)
                    if not good:
                        found = (opt, inst)
                        break
                if examined_for_op > budget:
                    break
            if examined_for_op > budget:
                break
        if found is None:
            failures.append(op)
        else:
            opt, inst = found
            delta.add(opt)
            certificates[op.name] = ("opt", opt.name, inst)
            counter += 1
    # re-verify the whole kill set by plain enumeration
    for op in ops:
        if op in failures:
            continue
        killed = False
        for rel in delta.relations():
            good, _ = is_polymorphism(op, rel, tuple_cap)
            if not good:
                killed = True
                break
        if not killed:
            raise InternalError(
                f"certificate for {op.name} did not survive re-verification")
    return KillResult(delta, certificates, failures)
