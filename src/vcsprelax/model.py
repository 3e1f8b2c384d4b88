"""Core model: weighted relations, valued constraints, instances, languages.

A weighted relation maps tuples over a finite domain {0..d-1} to exact
rational costs or infinity.  An instance is a sum of constraints, each
applying a weighted relation to a scope of variables.  Brute-force oracles
here are the ground truth the relaxation modules are tested against.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .errors import CapExceeded
from .values import INF, ZERO, ExtValue

ENUM_CAP = 10**7

# assignments per vectorised block of the enumerator
_CHUNK = 1 << 20


class WeightedRelation:
    """A function D^r -> Q union {inf}, stored as a flat value table.

    The table index of a tuple (t_1, .., t_r) is its big-endian base-d
    encoding, so iterating the table walks tuples in lexicographic order.
    """

    __slots__ = ("name", "arity", "domain_size", "table")

    def __init__(self, name: str, arity: int, domain_size: int, table):
        if arity < 1:
            raise ValueError("arity must be at least 1")
        if domain_size < 1:
            raise ValueError("domain size must be at least 1")
        table = tuple(ExtValue(v) for v in table)
        if len(table) != domain_size**arity:
            raise ValueError(
                f"table for {name!r} has {len(table)} entries, "
                f"expected {domain_size**arity}"
            )
        self.name = name
        self.arity = arity
        self.domain_size = domain_size
        self.table = table

    @classmethod
    def from_entries(cls, name, arity, domain_size, entries, default=INF):
        """Build from a {tuple: value} dict; unlisted tuples get `default`."""
        default = ExtValue(default)
        table = [default] * domain_size**arity
        for tup, val in entries.items():
            if len(tup) != arity:
                raise ValueError(f"tuple {tup} has wrong arity for {name!r}")
            table[cls.encode(tup, domain_size)] = ExtValue(val)
        return cls(name, arity, domain_size, table)

    @staticmethod
    def encode(tup, domain_size: int) -> int:
        idx = 0
        for t in tup:
            if not 0 <= t < domain_size:
                raise ValueError(f"label {t} outside domain of size {domain_size}")
            idx = idx * domain_size + t
        return idx

    def value(self, tup) -> ExtValue:
        return self.table[self.encode(tup, self.domain_size)]

    def tuples(self):
        return itertools.product(range(self.domain_size), repeat=self.arity)

    def items(self):
        for tup in self.tuples():
            yield tup, self.table[self.encode(tup, self.domain_size)]

    def feasible_tuples(self):
        return [t for t, v in self.items() if v.is_finite]

    @property
    def is_crisp(self) -> bool:
        return all(v == ZERO or not v.is_finite for v in self.table)

    @property
    def is_finite_valued(self) -> bool:
        return all(v.is_finite for v in self.table)

    def min_finite(self):
        vals = [v for v in self.table if v.is_finite]
        return min(vals) if vals else None

    def max_finite(self):
        vals = [v for v in self.table if v.is_finite]
        return max(vals) if vals else None

    def __eq__(self, other):
        if not isinstance(other, WeightedRelation):
            return NotImplemented
        return (
            self.arity == other.arity
            and self.domain_size == other.domain_size
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.arity, self.domain_size, self.table))

    def __repr__(self):
        return f"WeightedRelation({self.name!r}, arity={self.arity}, d={self.domain_size})"


def feas_of(rel: WeightedRelation, name: str | None = None) -> WeightedRelation:
    """Crisp relation of the finite-cost tuples of `rel`."""
    table = [ZERO if v.is_finite else INF for v in rel.table]
    return WeightedRelation(name or f"feas_{rel.name}", rel.arity, rel.domain_size, table)


def opt_of(rel: WeightedRelation, name: str | None = None) -> WeightedRelation:
    """Crisp relation of the minimum-cost tuples among feas(rel)."""
    best = rel.min_finite()
    if best is None:
        table = [INF] * len(rel.table)
    else:
        table = [ZERO if v == best else INF for v in rel.table]
    return WeightedRelation(name or f"opt_{rel.name}", rel.arity, rel.domain_size, table)


class ValuedConstraint:
    """One application of a weighted relation to a tuple of variables."""

    __slots__ = ("relation", "scope")

    def __init__(self, relation: WeightedRelation, scope):
        scope = tuple(scope)
        if len(scope) != relation.arity:
            raise ValueError(
                f"scope {scope} has arity {len(scope)}, "
                f"relation {relation.name!r} wants {relation.arity}"
            )
        self.relation = relation
        self.scope = scope

    @property
    def scope_set(self) -> frozenset:
        return frozenset(self.scope)

    def value(self, assignment) -> ExtValue:
        return self.relation.value(tuple(assignment[v] for v in self.scope))

    def __repr__(self):
        return f"ValuedConstraint({self.relation.name!r}, {self.scope})"


class VCSPInstance:
    """n variables over {0..d-1} plus an ordered constraint list.

    Duplicate constraints are kept; the objective is the plain sum.
    """

    def __init__(self, num_vars: int, domain_size: int, constraints=()):
        if num_vars < 0:
            raise ValueError("negative variable count")
        self.num_vars = num_vars
        self.domain_size = domain_size
        self.constraints = []
        for c in constraints:
            self.add(c)

    def add(self, constraint: ValuedConstraint):
        if constraint.relation.domain_size != self.domain_size:
            raise ValueError("constraint domain size differs from instance")
        for v in constraint.scope:
            if not 0 <= v < self.num_vars:
                raise ValueError(f"variable {v} out of range")
        self.constraints.append(constraint)
        return self

    def add_constraint(self, relation: WeightedRelation, scope):
        return self.add(ValuedConstraint(relation, scope))

    def max_arity(self) -> int:
        return max((c.relation.arity for c in self.constraints), default=0)

    def relations(self):
        """Distinct relations in constraint order."""
        seen, out = set(), []
        for c in self.constraints:
            if id(c.relation) not in seen:
                seen.add(id(c.relation))
                out.append(c.relation)
        return out

    def __repr__(self):
        return (
            f"VCSPInstance(n={self.num_vars}, d={self.domain_size}, "
            f"q={len(self.constraints)})"
        )


def evaluate(instance: VCSPInstance, assignment) -> ExtValue:
    """Objective value of a total assignment (tuple/list of labels)."""
    total = ZERO
    for c in instance.constraints:
        total = total + c.value(assignment)
        if not total.is_finite:
            return INF
    return total


def decode(index: int, length: int, domain_size: int) -> tuple:
    """The tuple whose big-endian base-d encoding is `index`."""
    return tuple((index // domain_size ** (length - 1 - v)) % domain_size
                 for v in range(length))


def _scaled_totals(instance: VCSPInstance, cap: int):
    """Exact objective of every assignment as integers on a common scale.

    Finite costs are multiplied by `lcm`, the lcm of their denominators.
    An infinite cost becomes a penalty above twice the largest total the
    finite costs can reach, so a total stands for a finite value exactly
    when it is at most `limit`.  Totals are int64 when no sum can
    overflow it and Python ints (dtype=object) otherwise; the statements
    are the same for both.

    Returns (chunks, lcm, limit).  `chunks` yields (start, totals), where
    totals[i] belongs to the assignment with encoding start + i; a chunk
    holds at most _CHUNK assignments, so memory stays bounded.  Raises
    CapExceeded when d^n > cap.
    """
    n, d = instance.num_vars, instance.domain_size
    space = d**n
    if space > cap:
        raise CapExceeded(f"assignment space {d}^{n} exceeds cap {cap}")
    rels = instance.relations()
    lcm = math.lcm(1, *(v.frac.denominator
                        for rel in rels for v in rel.table if v.is_finite))
    ints = {id(rel): [int(v.frac * lcm) if v.is_finite else None
                      for v in rel.table] for rel in rels}
    q = len(instance.constraints)
    limit = q * max((abs(x) for t in ints.values() for x in t if x is not None),
                    default=0)
    penalty = 2 * limit + 1
    dtype = np.int64 if q * penalty < 1 << 63 else object
    tables = {key: np.array([penalty if x is None else x for x in t], dtype=dtype)
              for key, t in ints.items()}
    strides = [d ** (n - 1 - v) for v in range(n)]

    def chunks():
        for start in range(0, space, _CHUNK):
            ids = np.arange(start, min(start + _CHUNK, space), dtype=np.int64)
            totals = np.zeros(ids.shape, dtype=dtype)
            for c in instance.constraints:
                idx = np.zeros(ids.shape, dtype=np.int64)
                for x in c.scope:
                    idx = idx * d + (ids // strides[x]) % d
                totals += tables[id(c.relation)][idx]
            yield start, totals

    return chunks(), lcm, limit


def scaled_objective(instance: VCSPInstance, cap: int = ENUM_CAP):
    """(totals, lcm, limit): the objective of all d^n assignments.

    totals[i] / lcm is the value of the assignment with encoding i when
    totals[i] <= limit; above limit the value is infinite.
    """
    chunks, lcm, limit = _scaled_totals(instance, cap)
    return np.concatenate([t for _, t in chunks]), lcm, limit


def brute_force_opt(instance: VCSPInstance, cap: int = ENUM_CAP):
    """Exact optimum by full enumeration.

    Returns (value, assignment) where the assignment is the lexicographically
    smallest optimal one, or (INF, None) when no assignment has finite value.
    Raises CapExceeded when d^n > cap.
    """
    chunks, lcm, limit = _scaled_totals(instance, cap)
    best = best_id = None
    for start, totals in chunks:
        pos = int(np.argmin(totals))
        if totals[pos] <= limit and (best is None or totals[pos] < best):
            best, best_id = totals[pos], start + pos
    if best is None:
        return INF, None
    n, d = instance.num_vars, instance.domain_size
    return ExtValue(Fraction(int(best), lcm)), decode(best_id, n, d)


def optimal_assignments(instance: VCSPInstance, cap: int = ENUM_CAP):
    """(value, every optimal assignment in lexicographic order).

    Returns (INF, []) when no assignment has finite value.  Raises
    CapExceeded when d^n > cap.
    """
    chunks, lcm, limit = _scaled_totals(instance, cap)
    best, ids = None, []
    for start, totals in chunks:
        low = totals.min()
        if low > limit or (best is not None and low > best):
            continue
        if best is None or low < best:
            best, ids = low, []
        ids.extend(start + np.flatnonzero(totals == low))
    if best is None:
        return INF, []
    n, d = instance.num_vars, instance.domain_size
    return (ExtValue(Fraction(int(best), lcm)),
            [decode(int(i), n, d) for i in ids])


def is_satisfiable(instance: VCSPInstance, cap: int = ENUM_CAP) -> bool:
    value, _ = brute_force_opt(instance, cap=cap)
    return value.is_finite


class ConstraintLanguage:
    """Named weighted relations over a common domain."""

    def __init__(self, domain_size: int, relations=()):
        if domain_size < 1:
            raise ValueError("domain size must be at least 1")
        self.domain_size = domain_size
        self._by_name: dict[str, WeightedRelation] = {}
        for rel in relations:
            self.add(rel)

    def add(self, rel: WeightedRelation):
        if rel.domain_size != self.domain_size:
            raise ValueError(f"relation {rel.name!r} has wrong domain size")
        if rel.name in self._by_name:
            raise ValueError(f"duplicate relation name {rel.name!r}")
        self._by_name[rel.name] = rel
        return self

    def get(self, name: str) -> WeightedRelation:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def relations(self):
        return list(self._by_name.values())

    def names(self):
        return list(self._by_name.keys())

    def max_arity(self) -> int:
        return max((r.arity for r in self.relations()), default=0)

    @property
    def is_crisp(self) -> bool:
        return all(r.is_crisp for r in self.relations())

    def __len__(self):
        return len(self._by_name)

    def __repr__(self):
        return f"ConstraintLanguage(d={self.domain_size}, relations={self.names()})"


def restrict_relation(rel: WeightedRelation, sub_domain) -> WeightedRelation:
    """Reindex `rel` to the sorted sub-domain (labels renamed to 0..|S|-1)."""
    sub = sorted(sub_domain)
    d2 = len(sub)
    table = []
    for tup in itertools.product(range(d2), repeat=rel.arity):
        table.append(rel.value(tuple(sub[t] for t in tup)))
    return WeightedRelation(rel.name, rel.arity, d2, table)


def restrict_language(lang: ConstraintLanguage, sub_domain) -> ConstraintLanguage:
    return ConstraintLanguage(
        len(set(sub_domain)),
        [restrict_relation(r, sub_domain) for r in lang.relations()],
    )
