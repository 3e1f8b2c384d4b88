"""Gadget reductions between valued constraint instances.

Five constructions rewrite an instance over an extended language into an
equivalent instance over a base language: expressibility gadgets with
fresh auxiliary variables, merging of equality-constrained variables,
interpretations that encode each variable as a block of tuple slots, and
the argmin / feasibility closure operators via constraint duplication.

Every construction returns a ReductionTrace.  The trace records, per
source constraint, the produced sub-instance (a set of constraint ids of
the produced instance together with its variable set) and a deterministic
map from source-side partial assignments to target-side ones.  That is
enough to re-verify the three soundness conditions by brute force
(verify_reduction) and to carry a level-2k Gram relaxation solution of
the source over to a level-k' solution of the target without re-solving
(transport_solution).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .errors import CapExceeded, VcspError
from .lasserre import GramSolution, build_las
from .model import (
    INF,
    ZERO,
    VCSPInstance,
    WeightedRelation,
    brute_force_opt,
    decode,
    evaluate,
    feas_of,
    opt_of,
    optimal_assignments,
    scaled_objective,
)

EXPRESS_CAP = 1_000_000
COPY_CAP = 1_000_000
VERIFY_BUDGET = 200_000


class Gadget:
    """A template instance with designated external variables.

    The remaining template variables are auxiliary.  Minimising the
    template objective over the auxiliaries, for each assignment of the
    externals, yields the expressed relation.
    """

    def __init__(self, target_name: str, externals, template: VCSPInstance):
        externals = tuple(externals)
        if len(set(externals)) != len(externals):
            raise ValueError("external variables must be distinct")
        for x in externals:
            if not 0 <= x < template.num_vars:
                raise ValueError(f"external variable {x} outside the template")
        if not externals:
            raise ValueError("a gadget needs at least one external variable")
        self.target_name = target_name
        self.externals = externals
        self.template = template
        self.aux_slots = tuple(
            t for t in range(template.num_vars) if t not in set(externals)
        )
        self._expressed = None
        self._canonical = None

    @property
    def arity(self) -> int:
        return len(self.externals)

    def express(self, cap: int = EXPRESS_CAP) -> WeightedRelation:
        """Brute-force the expressed relation.

        Also records, per external assignment, the lexicographically
        smallest minimising auxiliary assignment; those canonical
        choices are what the reduction maps use.
        """
        if self._expressed is not None:
            return self._expressed
        d = self.template.domain_size
        m, p = len(self.externals), len(self.aux_slots)
        totals, lcm, limit = scaled_objective(self.template, cap)
        # rows: external assignments, columns: auxiliary ones, both in
        # lexicographic order, so argmin picks the smallest minimiser
        grid = (totals.reshape((d,) * (m + p))
                .transpose(self.externals + self.aux_slots)
                .reshape(d**m, d**p))
        best, first = grid.min(axis=1), grid.argmin(axis=1)
        entries, canonical = {}, {}
        for e in np.flatnonzero(best <= limit):
            ext = decode(int(e), m, d)
            entries[ext] = Fraction(int(best[e]), lcm)
            canonical[ext] = decode(int(first[e]), p, d)
        self._expressed = WeightedRelation.from_entries(
            self.target_name, m, d, entries, default=INF)
        self._canonical = canonical
        return self._expressed

    def canonical_aux(self, ext_tuple):
        """Canonical minimising auxiliary values, None when the min is infinite."""
        self.express()
        return self._canonical.get(tuple(ext_tuple))

    def instantiate(self, scope, fresh_start: int):
        """Rewrite the template onto instance variables.

        scope[t] hosts external slot t (repeats allowed); auxiliaries
        become fresh_start, fresh_start+1, ... in slot order.  Returns
        (constraint_specs, aux_vars).
        """
        var_map = dict(zip(self.externals, scope))
        aux_vars = []
        for slot in self.aux_slots:
            var_map[slot] = fresh_start + len(aux_vars)
            aux_vars.append(var_map[slot])
        specs = [
            (c.relation, tuple(var_map[v] for v in c.scope))
            for c in self.template.constraints
        ]
        return specs, tuple(aux_vars)

    def __repr__(self):
        return (f"Gadget({self.target_name!r}, externals={self.externals}, "
                f"aux={len(self.aux_slots)})")


class TracePiece:
    """One source constraint's image: its sub-instance and assignment map."""

    __slots__ = ("src_id", "x_vars", "y_vars", "constraint_ids", "alpha",
                 "b_scale", "b_shift")

    def __init__(self, src_id, x_vars, y_vars, constraint_ids, alpha,
                 b_scale=1, b_shift=Fraction(0)):
        self.src_id = src_id
        self.x_vars = tuple(x_vars)
        self.y_vars = tuple(y_vars)
        self.constraint_ids = tuple(constraint_ids)
        self.alpha = alpha
        self.b_scale = b_scale
        self.b_shift = b_shift


class ReductionTrace:
    """A produced instance plus everything needed to audit the rewrite.

    value_scale, value_offset and the residue window document how the
    two optima relate: the produced optimum equals
    scale * source_optimum + offset + r with r inside
    [residue_lo, residue_hi].  For most constructions the window is
    degenerate at zero and the relation is exact equality.
    """

    def __init__(self, kind, source, produced, pieces, pullback,
                 value_scale=1, value_offset=Fraction(0),
                 residue_lo=Fraction(0), residue_hi=Fraction(0),
                 a_slack=Fraction(0), var_class=None, notes=()):
        self.kind = kind
        self.source = source
        self.produced = produced
        self.pieces = list(pieces)
        self.value_scale = value_scale
        self.value_offset = value_offset
        self.residue_lo = residue_lo
        self.residue_hi = residue_hi
        self.a_slack = a_slack
        self.var_class = var_class
        self.notes = list(notes)
        self._pullback = pullback

    def pull_back(self, assignment):
        """Source assignment recovered from a produced-instance one."""
        return self._pullback(tuple(assignment))

    def support_ok(self, vars_tuple, sigma) -> bool:
        # partial assignments that violate transitive equality can never
        # carry relaxation mass, so the audit skips them
        if self.var_class is None:
            return True
        seen = {}
        for v, a in zip(vars_tuple, sigma):
            c = self.var_class[v]
            if seen.setdefault(c, a) != a:
                return False
        return True

    def piece_value(self, piece: TracePiece, alpha_vals):
        """Objective of the piece's sub-instance at a mapped assignment."""
        adict = dict(zip(piece.y_vars, alpha_vals))
        total = ZERO
        for cid in piece.constraint_ids:
            c = self.produced.constraints[cid]
            total = total + c.relation.value(tuple(adict[v] for v in c.scope))
            if not total.is_finite:
                return INF
        return total

    def __repr__(self):
        return (f"ReductionTrace({self.kind!r}, "
                f"{self.source.num_vars}->{self.produced.num_vars} vars, "
                f"{len(self.pieces)} pieces)")


def _sorted_scope_set(constraint):
    return tuple(sorted(constraint.scope_set))


def _feasible_block_assignments(constraint, domain_size):
    """Yield (sigma over the sorted scope set, value) with finite value."""
    xs = _sorted_scope_set(constraint)
    pos = {v: t for t, v in enumerate(xs)}
    for sigma in itertools.product(range(domain_size), repeat=len(xs)):
        val = constraint.relation.value(
            tuple(sigma[pos[v]] for v in constraint.scope))
        if val.is_finite:
            yield sigma, val


def _identity_piece(i, constraint, cid, domain_size):
    xs = _sorted_scope_set(constraint)
    alpha = {s: s for s, _ in _feasible_block_assignments(constraint, domain_size)}
    return TracePiece(i, xs, xs, (cid,), alpha)


def reduce_expressibility(instance: VCSPInstance, gadgets,
                          cap: int = EXPRESS_CAP) -> ReductionTrace:
    """Replace gadget-expressible constraints by fresh gadget copies.

    gadgets maps relation names to Gadget objects.  Each gadget must
    express exactly the relation it replaces (checked here); constraints
    without a registered gadget are kept as they are.
    """
    d = instance.domain_size
    checked = {}
    for c in instance.constraints:
        name = c.relation.name
        if name not in gadgets or name in checked:
            continue
        g = gadgets[name]
        if g.template.domain_size != d:
            raise VcspError(
                f"gadget for {name!r} lives on domain size "
                f"{g.template.domain_size}, instance has {d}")
        if g.express(cap) != c.relation:
            raise VcspError(
                f"gadget mismatch: the gadget for {name!r} expresses a "
                f"different relation")
        checked[name] = g

    j_specs = []
    pieces = []
    next_aux = instance.num_vars
    for i, c in enumerate(instance.constraints):
        name = c.relation.name
        if name not in gadgets:
            pieces.append(_identity_piece(i, c, len(j_specs), d))
            j_specs.append((c.relation, c.scope))
            continue
        g = checked[name]
        specs, aux_vars = g.instantiate(c.scope, next_aux)
        next_aux += len(aux_vars)
        cids = tuple(range(len(j_specs), len(j_specs) + len(specs)))
        j_specs.extend(specs)
        xs = _sorted_scope_set(c)
        pos = {v: t for t, v in enumerate(xs)}
        y_vars = tuple(sorted(set(c.scope) | set(aux_vars)))
        alpha = {}
        for sigma, _ in _feasible_block_assignments(c, d):
            ext = tuple(sigma[pos[v]] for v in c.scope)
            aux = g.canonical_aux(ext)
            adict = {v: sigma[pos[v]] for v in xs}
            adict.update(zip(aux_vars, aux))
            alpha[sigma] = tuple(adict[v] for v in y_vars)
        pieces.append(TracePiece(i, xs, y_vars, cids, alpha))

    produced = VCSPInstance(next_aux, d)
    for rel, scope in j_specs:
        produced.add_constraint(rel, scope)
    n = instance.num_vars

    return ReductionTrace(
        "expressibility", instance, produced, pieces,
        pullback=lambda a: a[:n],
        notes=[f"replaced {sum(1 for c in instance.constraints if c.relation.name in gadgets)} "
               f"constraints, {next_aux - n} auxiliary variables"])


def _is_equality(rel: WeightedRelation) -> bool:
    if rel.arity != 2 or not rel.is_crisp:
        return False
    d = rel.domain_size
    return all(
        rel.value((a, b)).is_finite == (a == b)
        for a in range(d) for b in range(d)
    )


def reduce_equality(instance: VCSPInstance) -> ReductionTrace:
    """Merge variables joined by crisp equality constraints.

    Components collapse onto their smallest member; equality constraints
    disappear (self-loops included) and the rest are rewritten onto the
    representatives.
    """
    n, d = instance.num_vars, instance.domain_size
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    eq_ids = set()
    for i, c in enumerate(instance.constraints):
        if _is_equality(c.relation):
            eq_ids.add(i)
            a, b = c.scope
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

    rep = [find(x) for x in range(n)]
    used_reps = sorted({
        rep[v]
        for i, c in enumerate(instance.constraints) if i not in eq_ids
        for v in c.scope
    })
    new_index = {r: t for t, r in enumerate(used_reps)}

    produced = VCSPInstance(len(used_reps), d)
    pieces = []
    cid = 0
    for i, c in enumerate(instance.constraints):
        xs = _sorted_scope_set(c)
        if i in eq_ids:
            alpha = {s: () for s, _ in _feasible_block_assignments(c, d)}
            pieces.append(TracePiece(i, xs, (), (), alpha))
            continue
        scope_j = tuple(new_index[rep[v]] for v in c.scope)
        produced.add_constraint(c.relation, scope_j)
        pos = {v: t for t, v in enumerate(xs)}
        y_vars = tuple(sorted({new_index[rep[v]] for v in xs}))
        alpha = {}
        for sigma, _ in _feasible_block_assignments(c, d):
            adict = {}
            consistent = True
            for v in xs:
                y = new_index[rep[v]]
                if adict.setdefault(y, sigma[pos[v]]) != sigma[pos[v]]:
                    consistent = False
                    break
            if consistent:
                alpha[sigma] = tuple(adict[y] for y in y_vars)
        pieces.append(TracePiece(i, xs, y_vars, (cid,), alpha))
        cid += 1

    def pullback(a):
        out = []
        for x in range(n):
            r = rep[x]
            out.append(a[new_index[r]] if r in new_index else 0)
        return tuple(out)

    return ReductionTrace(
        "equality", instance, produced, pieces, pullback,
        var_class=rep,
        notes=[f"merged {n} variables into {len(used_reps)} representatives, "
               f"dropped {len(eq_ids)} equality constraints"])


class Interpretation:
    """Encoding of a target domain inside tuples over a base domain.

    dimension slots per target variable; s_tuples lists the admissible
    slot tuples and h_map sends each of them onto a target label (h must
    be surjective).  Three gadget families over the base language are
    verified against their required tables at construction time: a
    membership gadget for the admissible set, an equality-pullback
    gadget, and one gadget per target relation.
    """

    def __init__(self, dimension, s_tuples, h_map, target_domain_size,
                 phi_s_gadget, eq_gadget, relation_gadgets,
                 cap: int = EXPRESS_CAP):
        self.dimension = dimension
        self.s_tuples = tuple(tuple(s) for s in s_tuples)
        if len(set(self.s_tuples)) != len(self.s_tuples):
            raise ValueError("admissible tuples must be distinct")
        for s in self.s_tuples:
            if len(s) != dimension:
                raise ValueError(f"tuple {s} is not {dimension}-dimensional")
        self.h_map = {tuple(k): v for k, v in h_map.items()}
        if set(self.h_map) != set(self.s_tuples):
            raise ValueError("h must be defined on exactly the admissible set")
        self.target_domain_size = target_domain_size
        if set(self.h_map.values()) != set(range(target_domain_size)):
            raise ValueError("h is not surjective onto the target domain")
        self.base_domain_size = phi_s_gadget.template.domain_size
        # smallest admissible preimage per target label, the canonical choice
        self.canonical_preimage = {}
        for s in sorted(self.s_tuples):
            self.canonical_preimage.setdefault(self.h_map[s], s)

        self.phi_s_gadget = phi_s_gadget
        self.eq_gadget = eq_gadget
        self.relation_gadgets = {}
        for name, (rel, gadget) in relation_gadgets.items():
            self.relation_gadgets[name] = (rel, gadget)

        self._check_gadget("phi_S", phi_s_gadget, self.membership_relation(), cap)
        self._check_gadget("eq-pullback", eq_gadget,
                           self.pullback_equality(), cap)
        for name, (rel, gadget) in self.relation_gadgets.items():
            self._check_gadget(name, gadget, self.pullback_relation(rel), cap)

    def _check_gadget(self, label, gadget, want, cap):
        got = gadget.express(cap)
        if got == want:
            return
        for t, v in enumerate(want.table):
            if got.table[t] != v:
                raise VcspError(
                    f"interpretation gadget {label!r} expresses "
                    f"{got.table[t]} at {decode(t, want.arity, want.domain_size)}, "
                    f"required {v}")
        raise VcspError(f"interpretation gadget {label!r} has wrong shape")

    def membership_relation(self) -> WeightedRelation:
        return WeightedRelation.from_entries(
            "phi_S", self.dimension, self.base_domain_size,
            {s: 0 for s in self.s_tuples}, default=INF)

    def pullback_equality(self) -> WeightedRelation:
        entries = {
            s + t: 0
            for s in self.s_tuples for t in self.s_tuples
            if self.h_map[s] == self.h_map[t]
        }
        return WeightedRelation.from_entries(
            "eq_pull", 2 * self.dimension, self.base_domain_size,
            entries, default=INF)

    def pullback_relation(self, rel: WeightedRelation) -> WeightedRelation:
        """The relation on slot tuples whose value is rel after decoding."""
        entries = {}
        for combo in itertools.product(self.s_tuples, repeat=rel.arity):
            val = rel.value(tuple(self.h_map[s] for s in combo))
            if val.is_finite:
                entries[sum(combo, ())] = val.frac
        return WeightedRelation.from_entries(
            f"pull_{rel.name}", rel.arity * self.dimension,
            self.base_domain_size, entries, default=INF)


def apply_interpretation(interp: Interpretation,
                         instance: VCSPInstance) -> ReductionTrace:
    """Rewrite an instance onto slot blocks of the base domain.

    Each variable becomes `dimension` fresh slots guarded by a
    membership gadget; each constraint becomes its pullback gadget on
    the concatenated blocks.  Variables outside every constraint scope
    are rejected, they would leave an unowned membership gadget.
    """
    if instance.domain_size != interp.target_domain_size:
        raise VcspError(
            f"instance domain size {instance.domain_size} does not match "
            f"the interpretation target {interp.target_domain_size}")
    for rel in instance.relations():
        entry = interp.relation_gadgets.get(rel.name)
        if entry is None:
            raise VcspError(f"no gadget registered for relation {rel.name!r}")
        if entry[0] != rel:
            raise VcspError(
                f"relation {rel.name!r} differs from the registered table")

    n, dim = instance.num_vars, interp.dimension
    covered = set()
    owner = {}
    for i, c in enumerate(instance.constraints):
        for v in c.scope:
            covered.add(v)
            owner.setdefault(v, i)
    if len(covered) != n:
        isolated = sorted(set(range(n)) - covered)
        raise VcspError(
            f"variables {isolated} appear in no constraint; assign them a "
            f"constraint before interpreting")

    def block(y):
        return tuple(range(y * dim, (y + 1) * dim))

    j_specs = []
    pieces = []
    next_aux = n * dim
    for i, c in enumerate(instance.constraints):
        cids = []
        owned = sorted(v for v in set(c.scope) if owner[v] == i)
        owned_aux = {}
        for y in owned:
            specs, aux_vars = interp.phi_s_gadget.instantiate(block(y), next_aux)
            next_aux += len(aux_vars)
            owned_aux[y] = aux_vars
            cids.extend(range(len(j_specs), len(j_specs) + len(specs)))
            j_specs.extend(specs)
        _, gadget = interp.relation_gadgets[c.relation.name]
        ext_vars = tuple(v for y in c.scope for v in block(y))
        specs, rel_aux = gadget.instantiate(ext_vars, next_aux)
        next_aux += len(rel_aux)
        cids.extend(range(len(j_specs), len(j_specs) + len(specs)))
        j_specs.extend(specs)

        xs = _sorted_scope_set(c)
        pos = {v: t for t, v in enumerate(xs)}
        y_set = {v for y in xs for v in block(y)}
        y_set.update(rel_aux)
        for aux in owned_aux.values():
            y_set.update(aux)
        y_vars = tuple(sorted(y_set))
        alpha = {}
        for sigma, _ in _feasible_block_assignments(c, instance.domain_size):
            adict = {}
            for y in xs:
                s = interp.canonical_preimage[sigma[pos[y]]]
                adict.update(zip(block(y), s))
            ok = True
            for y in owned:
                s = interp.canonical_preimage[sigma[pos[y]]]
                aux_vals = interp.phi_s_gadget.canonical_aux(s)
                if aux_vals is None:
                    ok = False
                    break
                adict.update(zip(owned_aux[y], aux_vals))
            ext = tuple(
                v for y in c.scope
                for v in interp.canonical_preimage[sigma[pos[y]]])
            aux_vals = gadget.canonical_aux(ext)
            if not ok or aux_vals is None:
                continue
            adict.update(zip(rel_aux, aux_vals))
            alpha[sigma] = tuple(adict[v] for v in y_vars)
        pieces.append(TracePiece(i, xs, y_vars, tuple(cids), alpha))

    produced = VCSPInstance(next_aux, interp.base_domain_size)
    for rel, scope in j_specs:
        produced.add_constraint(rel, scope)

    def pullback(a):
        out = []
        for y in range(n):
            s = tuple(a[v] for v in block(y))
            lab = interp.h_map.get(s)
            if lab is None:
                return None
            out.append(lab)
        return tuple(out)

    return ReductionTrace(
        "interpretation", instance, produced, pieces, pullback,
        notes=[f"{dim} slots per variable, "
               f"{next_aux - n * dim} auxiliary variables"])


def _duplication_factor(instance: VCSPInstance, phi: WeightedRelation,
                        copy_cap: int):
    """Copy count that makes one relation-gap outweigh the whole objective.

    All finite values become integers after scaling by L, the lcm of
    their denominators; any two distinct objective totals then differ by
    at least 1/L while the totals span at most q * W.  q * W * L + 1
    copies therefore dominate every trade-off.
    """
    if phi.is_crisp:
        return 1, len(instance.constraints), Fraction(0), 1
    rels = list(instance.relations()) + [phi]
    denoms = [
        v.frac.denominator for r in rels for v in r.table if v.is_finite
    ]
    big_l = math.lcm(*denoms) if denoms else 1
    spread = Fraction(0)
    for r in rels:
        lo, hi = r.min_finite(), r.max_finite()
        if lo is not None:
            spread = max(spread, hi.frac - lo.frac)
    q = len(instance.constraints)
    m = q * int(spread * big_l) + 1
    if m > copy_cap:
        raise CapExceeded(f"duplication factor {m} exceeds cap {copy_cap}")
    return m, q, spread, big_l


def reduce_opt(instance: VCSPInstance, phi: WeightedRelation,
               copy_cap: int = COPY_CAP) -> ReductionTrace:
    """Replace argmin constraints of phi by M weighted copies of phi.

    M is large enough that any assignment leaving the argmin set loses
    more on the copies than it could gain anywhere else, so produced
    optima use argmin tuples only.  The optimum shifts by the constant
    M * min(phi) per replaced constraint, recorded as value_offset; with
    min(phi) = 0 the optima agree exactly.  The recovery direction needs
    a satisfiable source: an unsatisfiable one can leave the produced
    instance satisfiable, which the audit reports as a violation.
    """
    if phi.min_finite() is None:
        raise ValueError("phi has no finite values, argmin is undefined")
    target = opt_of(phi)
    m_copies, q, spread, big_l = _duplication_factor(instance, phi, copy_cap)
    min_phi = phi.min_finite().frac

    produced = VCSPInstance(instance.num_vars, instance.domain_size)
    pieces = []
    cid = 0
    replaced = 0
    d = instance.domain_size
    for i, c in enumerate(instance.constraints):
        if c.relation == target:
            replaced += 1
            for _ in range(m_copies):
                produced.add_constraint(phi, c.scope)
            xs = _sorted_scope_set(c)
            alpha = {s: s for s, _ in _feasible_block_assignments(c, d)}
            pieces.append(TracePiece(
                i, xs, xs, tuple(range(cid, cid + m_copies)), alpha,
                b_shift=m_copies * min_phi))
            cid += m_copies
        else:
            produced.add_constraint(c.relation, c.scope)
            pieces.append(_identity_piece(i, c, cid, d))
            cid += 1

    return ReductionTrace(
        "opt", instance, produced, pieces,
        pullback=lambda a: a,
        value_offset=replaced * m_copies * min_phi,
        notes=[f"M = {m_copies} copies (q={q}, spread W={spread}, L={big_l}), "
               f"{replaced} argmin constraints replaced",
               "constructed, verified empirically"])


def reduce_feas(instance: VCSPInstance, phi: WeightedRelation,
                copy_cap: int = COPY_CAP) -> ReductionTrace:
    """Swap feasibility constraints of phi for phi, M-scaling the rest.

    Every other constraint is duplicated M times, so the finite values
    the phi copies contribute can never flip a comparison between
    M-scaled objective totals.  The produced optimum is
    M * source_optimum plus a residue inside [cnt*min(phi), cnt*max(phi)];
    the audit compares values at scale M with that documented window.
    """
    if phi.min_finite() is None:
        raise ValueError("phi has no finite values, feasibility is empty")
    target = feas_of(phi)
    m_copies, q, spread, big_l = _duplication_factor(instance, phi, copy_cap)
    max_phi = phi.max_finite().frac
    min_phi = phi.min_finite().frac

    produced = VCSPInstance(instance.num_vars, instance.domain_size)
    pieces = []
    cid = 0
    replaced = 0
    d = instance.domain_size
    for i, c in enumerate(instance.constraints):
        xs = _sorted_scope_set(c)
        if c.relation == target:
            replaced += 1
            produced.add_constraint(phi, c.scope)
            alpha = {s: s for s, _ in _feasible_block_assignments(c, d)}
            pieces.append(TracePiece(
                i, xs, xs, (cid,), alpha,
                b_scale=m_copies, b_shift=max(Fraction(0), max_phi)))
            cid += 1
        else:
            for _ in range(m_copies):
                produced.add_constraint(c.relation, c.scope)
            alpha = {s: s for s, _ in _feasible_block_assignments(c, d)}
            pieces.append(TracePiece(
                i, xs, xs, tuple(range(cid, cid + m_copies)), alpha,
                b_scale=m_copies))
            cid += m_copies

    return ReductionTrace(
        "feas", instance, produced, pieces,
        pullback=lambda a: a,
        value_scale=m_copies,
        residue_lo=replaced * min(Fraction(0), min_phi),
        residue_hi=replaced * max(Fraction(0), max_phi),
        a_slack=replaced * max(Fraction(0), -min_phi),
        notes=[f"M = {m_copies} copies (q={q}, spread W={spread}, L={big_l}), "
               f"{replaced} feasibility constraints replaced",
               "constructed, verified empirically"])


class ReductionReport:
    """Outcome of the three-condition audit of a trace."""

    def __init__(self, kind, conditions, value_scale, value_offset, notes):
        self.kind = kind
        self.conditions = conditions
        self.value_scale = value_scale
        self.value_offset = value_offset
        self.notes = notes
        self.ok = all(c["ok"] for c in conditions.values())

    def witness(self, name):
        return self.conditions[name]["witness"]

    def as_lines(self):
        out = [f"reduction-kind = {self.kind}", f"verified = {self.ok}"]
        for name in ("a", "b", "c"):
            c = self.conditions[name]
            out.append(
                f"condition-{name} = {'pass' if c['ok'] else 'FAIL'} "
                f"(checked {c['checked']})")
            if c["witness"]:
                out.append(f"condition-{name}-witness = {c['witness']}")
        return out

    def __repr__(self):
        flags = {k: v["ok"] for k, v in self.conditions.items()}
        return f"ReductionReport({self.kind!r}, ok={self.ok}, {flags})"


def verify_reduction(trace: ReductionTrace,
                     sample_budget: int = VERIFY_BUDGET) -> ReductionReport:
    """Audit a trace by brute force.

    Checks that (a) every optimal produced assignment pulls back to a
    satisfying source assignment of no larger scaled value, (b) every
    feasible source-side partial assignment has a mapped counterpart
    whose sub-instance value stays below the scaled constraint value,
    and (c) the maps of any two pieces agree wherever their variable
    sets overlap.  Raises CapExceeded when the enumeration spaces do
    not fit the budget.
    """
    source, produced = trace.source, trace.produced
    spent = 0

    def charge(amount):
        nonlocal spent
        spent += amount
        if spent > sample_budget:
            raise CapExceeded(
                f"verification needs more than {sample_budget} evaluations")

    # (a) optimal produced assignments pull back
    charge(produced.domain_size ** produced.num_vars)
    opt_val, optima = optimal_assignments(produced, cap=sample_budget)
    cond_a = {"ok": True, "checked": 0, "witness": None}
    for a in optima:
        cond_a["checked"] += 1
        sigma = trace.pull_back(a)
        bad = None
        if sigma is None:
            bad = "no pullback"
        else:
            v_src = evaluate(source, sigma)
            if not v_src.is_finite:
                bad = f"pullback {sigma} does not satisfy the source"
            elif (trace.value_scale * v_src.frac + trace.value_offset
                  > opt_val.frac + trace.a_slack):
                bad = (f"pullback {sigma} has scaled value "
                       f"{trace.value_scale * v_src.frac} above "
                       f"{opt_val.frac}")
        if bad:
            cond_a = {"ok": False, "checked": cond_a["checked"],
                      "witness": f"alpha={a}: {bad}"}
            break

    # (b) per-piece maps exist and respect the scaled value bound
    di = source.domain_size
    cond_b = {"ok": True, "checked": 0, "witness": None}
    for pi, piece in enumerate(trace.pieces):
        if not cond_b["ok"]:
            break
        c = source.constraints[piece.src_id]
        pos = {v: t for t, v in enumerate(piece.x_vars)}
        charge(di ** len(piece.x_vars))
        for sigma in itertools.product(range(di), repeat=len(piece.x_vars)):
            phi_val = c.relation.value(tuple(sigma[pos[v]] for v in c.scope))
            mapped = piece.alpha.get(sigma)
            if mapped is None:
                if phi_val.is_finite and trace.support_ok(piece.x_vars, sigma):
                    cond_b = {"ok": False, "checked": cond_b["checked"],
                              "witness": f"piece {pi}: no map for {sigma}"}
                    break
                continue
            cond_b["checked"] += 1
            if not phi_val.is_finite:
                cond_b = {"ok": False, "checked": cond_b["checked"],
                          "witness": f"piece {pi}: map on infeasible {sigma}"}
                break
            sub_val = trace.piece_value(piece, mapped)
            if not sub_val.is_finite:
                cond_b = {"ok": False, "checked": cond_b["checked"],
                          "witness": f"piece {pi}: image of {sigma} violates "
                                     f"the sub-instance"}
                break
            if piece.b_scale * phi_val.frac + piece.b_shift < sub_val.frac:
                cond_b = {"ok": False, "checked": cond_b["checked"],
                          "witness": f"piece {pi}: value bound fails at "
                                     f"{sigma} ({sub_val.frac} > "
                                     f"{piece.b_scale * phi_val.frac + piece.b_shift})"}
                break

    # (c) overlapping pieces agree
    cond_c = {"ok": True, "checked": 0, "witness": None}
    for pi in range(len(trace.pieces)):
        if not cond_c["ok"]:
            break
        a_piece = trace.pieces[pi]
        a_pos = {v: t for t, v in enumerate(a_piece.x_vars)}
        ya_pos = {v: t for t, v in enumerate(a_piece.y_vars)}
        for pr in range(pi + 1, len(trace.pieces)):
            b_piece = trace.pieces[pr]
            shared = sorted(set(a_piece.y_vars) & set(b_piece.y_vars))
            if not shared:
                continue
            b_pos = {v: t for t, v in enumerate(b_piece.x_vars)}
            yb_pos = {v: t for t, v in enumerate(b_piece.y_vars)}
            union = tuple(sorted(set(a_piece.x_vars) | set(b_piece.x_vars)))
            charge(di ** len(union))
            u_pos = {v: t for t, v in enumerate(union)}
            bad = None
            for sigma in itertools.product(range(di), repeat=len(union)):
                if not trace.support_ok(union, sigma):
                    continue
                sig_a = tuple(sigma[u_pos[v]] for v in a_piece.x_vars)
                sig_b = tuple(sigma[u_pos[v]] for v in b_piece.x_vars)
                da = a_piece.alpha.get(sig_a)
                db = b_piece.alpha.get(sig_b)
                if da is None or db is None:
                    continue
                cond_c["checked"] += 1
                for y in shared:
                    if da[ya_pos[y]] != db[yb_pos[y]]:
                        bad = (f"pieces {pi},{pr} disagree at produced "
                               f"variable {y} under {sigma}")
                        break
                if bad:
                    break
            if bad:
                cond_c = {"ok": False, "checked": cond_c["checked"],
                          "witness": bad}
                break

    return ReductionReport(
        trace.kind, {"a": cond_a, "b": cond_b, "c": cond_c},
        trace.value_scale, trace.value_offset, list(trace.notes))


def oracle_value_identity(trace: ReductionTrace, cap: int = VERIFY_BUDGET):
    """Compare the two optima by brute force against the documented window.

    Returns (ok, message).  Exactness means residue window [0, 0].
    """
    v_src, _ = brute_force_opt(trace.source, cap=cap)
    v_prod, _ = brute_force_opt(trace.produced, cap=cap)
    if not v_src.is_finite or not v_prod.is_finite:
        ok = v_src.is_finite == v_prod.is_finite
        return ok, f"source={v_src} produced={v_prod}"
    residue = v_prod.frac - (trace.value_scale * v_src.frac
                             + trace.value_offset)
    ok = trace.residue_lo <= residue <= trace.residue_hi
    return ok, (f"source={v_src.frac} produced={v_prod.frac} "
                f"scale={trace.value_scale} offset={trace.value_offset} "
                f"residue={residue} window=[{trace.residue_lo}, "
                f"{trace.residue_hi}]")


def _language_arity(instance: VCSPInstance) -> int:
    return max((c.relation.arity for c in instance.constraints), default=1)


def transport_solution(trace: ReductionTrace, lam: GramSolution, kprime: int,
                       choice: str = "min") -> GramSolution:
    """Carry a Gram solution of the source onto the produced instance.

    lam must be a solved relaxation of trace.source at level at least
    2 * max(kprime, produced arity) * source arity, built with full
    subset coverage.  Each produced-side moment is a sum of source-side
    diagonal entries: the sum runs over the assignments of one covering
    source block whose mapped image matches the produced assignment.
    Any covering block gives the same sums up to solver tolerance;
    `choice` picks which block ("min" or "max" preference per variable)
    so the agreement itself can be probed.

    Each produced entry accumulates up to A source masses, so the
    source tolerance amplifies by at most A.  The result records
    eps = A * lam.eps and its residuals should be judged against that.
    """
    if choice not in ("min", "max"):
        raise ValueError("choice must be 'min' or 'max'")
    if not isinstance(lam, GramSolution) or lam.model is None:
        raise VcspError("transport needs a solved GramSolution with its model")
    model_i = lam.model
    if model_i.instance is not trace.source:
        raise VcspError("the solution was not solved on the trace's source")
    if model_i.subset_mode != "full":
        raise VcspError("transport needs a full-subset source model")

    source, produced = trace.source, trace.produced
    ar_src = _language_arity(source)
    ar_prod = _language_arity(produced)
    k = max(kprime, ar_prod) * ar_src
    if model_i.level < 2 * k:
        raise VcspError(
            f"level arithmetic: transport to level {kprime} needs a source "
            f"relaxation of level {2 * k}, got {model_i.level}")

    pieces = trace.pieces
    cover = {}
    for pi, piece in enumerate(pieces):
        for y in piece.y_vars:
            cover.setdefault(y, []).append(pi)

    def thin_scope(union_vars):
        xs = set()
        for y in union_vars:
            cands = cover.get(y)
            if not cands:
                raise VcspError(
                    f"produced variable {y} lies outside every piece")
            pi = cands[0] if choice == "min" else cands[-1]
            xs.update(pieces[pi].x_vars)
        return tuple(sorted(xs))

    owner = {}
    for pi, piece in enumerate(pieces):
        for cid in piece.constraint_ids:
            owner[cid] = pi

    model_j = build_las(produced, kprime, subset_mode="full",
                        allow_low_level=True)
    mi = lam.M
    mj = np.zeros((model_j.num_rows, model_j.num_rows))
    terms = np.zeros_like(mj, dtype=np.int64)

    within_cache = {}
    glue_cache = {}

    def pieces_within(xp):
        got = within_cache.get(xp)
        if got is None:
            xset = set(xp)
            got = [pi for pi, piece in enumerate(pieces)
                   if set(piece.x_vars) <= xset]
            within_cache[xp] = got
        return got

    def glue(iblk, xp, sigma):
        key = (iblk, sigma)
        if key in glue_cache:
            return glue_cache[key]
        pos = {v: t for t, v in enumerate(xp)}
        out = {}
        for pi in pieces_within(xp):
            piece = pieces[pi]
            sub = tuple(sigma[pos[v]] for v in piece.x_vars)
            vals = piece.alpha.get(sub)
            if vals is None:
                out = None
                break
            for y, a in zip(piece.y_vars, vals):
                if out.setdefault(y, a) != a:
                    out = None
                    break
            if out is None:
                break
        glue_cache[key] = out
        return out

    q_j = len(produced.constraints)
    blocks = [(-1, (), {(): 0})]
    blocks += [(b, model_j.aug[b].vars, model_j.aug_rows[b])
               for b in range(len(model_j.aug))]

    dropped = 0.0
    for a_idx, (b1, vars1, rows1) in enumerate(blocks):
        for b2, vars2, rows2 in blocks[a_idx:]:
            if b1 == -1 and b2 == -1:
                mj[0, 0] = mi[0, 0]
                continue
            if b1 == b2 and 0 <= b1 < q_j:
                # the owning piece keeps the objective sums exact
                xp = pieces[owner[b1]].x_vars
            else:
                xp = thin_scope(sorted(set(vars1) | set(vars2)))
            iblk = model_i.designated.get(xp)
            if iblk is None:
                raise VcspError(
                    f"source block {xp} missing from the level-"
                    f"{model_i.level} model")
            for sigma, r in model_i.aug_rows[iblk].items():
                g = glue(iblk, xp, sigma)
                if g is None:
                    dropped += abs(mi[r, r])
                    continue
                p1 = rows1.get(tuple(g[v] for v in vars1))
                if p1 is None:
                    dropped += abs(mi[r, r])
                    continue
                p2 = rows2.get(tuple(g[v] for v in vars2))
                if p2 is None:
                    dropped += abs(mi[r, r])
                    continue
                mj[p1, p2] += mi[r, r]
                terms[p1, p2] += 1
                if p1 != p2:
                    mj[p2, p1] += mi[r, r]
                    terms[p2, p1] += 1

    residuals = model_j.residual_report(mj)
    residuals["transport_dropped_mass"] = float(dropped)
    amp = max(1, int(terms.max()))
    out = GramSolution(mj, model_j.value_of(mj), 0, amp * lam.eps, residuals,
                       model=model_j)
    out.status = "transported"
    return out
