"""Linear equations over finite Abelian groups and a gap-instance probe.

Every finite Abelian group is a product of cyclic groups, so groups are
specified as moduli lists and elements are carried as mixed-radix
indices.  The language of a group collects the crisp relations
"x_1 + ... + x_m = a" for all m up to a fixed arity and all right-hand
sides a.  An exact satisfiability oracle (elimination for prime order,
bounded enumeration otherwise) backs two instance generators and a
search loop that hunts for unsatisfiable instances whose semidefinite
relaxation at a given level stays feasible.  Reported gaps are
re-verified from scratch; exhausted budgets are reported as
inconclusive rather than as evidence.
"""

from __future__ import annotations

import itertools
import math
import random
import re

from .errors import CapExceeded, NonConvergence, VcspError
from .lasserre import (
    DEFAULT_EPS,
    DEFAULT_MAX_ITER,
    ROW_CAP,
    NumericallyInfeasible,
    build_las,
    judge_gap,
    solve_sdp,
)
from .model import INF, ZERO, VCSPInstance, WeightedRelation, is_satisfiable

TABLE_CAP = 1_000_000
BRUTE_CAP = 10_000_000

_SPEC_TOKEN = re.compile(r"^Z(\d+)$")


class AbelianGroup:
    """Product of cyclic groups Z_{m_1} x ... x Z_{m_t}.

    Elements are indices 0 .. order-1 under the mixed-radix encoding
    with the first modulus least significant, so index 0 is the neutral
    element and arithmetic reduces to per-factor residue arithmetic.
    """

    def __init__(self, moduli):
        moduli = tuple(int(m) for m in moduli)
        if not moduli:
            raise ValueError("a group needs at least one cyclic factor")
        if any(m < 2 for m in moduli):
            raise ValueError("trivial cyclic factors are not allowed")
        self.moduli = moduli
        self.order = math.prod(moduli)
        self.zero = 0

    @property
    def spec(self) -> str:
        return "x".join(f"Z{m}" for m in self.moduli)

    def element(self, index: int):
        """Residue tuple of an element index."""
        if not 0 <= index < self.order:
            raise ValueError(f"element index {index} out of range")
        out = []
        for m in self.moduli:
            out.append(index % m)
            index //= m
        return tuple(out)

    def index(self, residues) -> int:
        residues = tuple(residues)
        if len(residues) != len(self.moduli):
            raise ValueError("residue tuple length mismatch")
        out = 0
        for r, m in zip(reversed(residues), reversed(self.moduli)):
            out = out * m + (r % m)
        return out

    def add(self, i: int, j: int) -> int:
        return self.index(a + b for a, b in
                          zip(self.element(i), self.element(j)))

    def neg(self, i: int) -> int:
        return self.index(-a for a in self.element(i))

    def sum(self, indices) -> int:
        total = self.zero
        for i in indices:
            total = self.add(total, i)
        return total

    def elements(self):
        return range(self.order)

    def __eq__(self, other):
        return (isinstance(other, AbelianGroup)
                and self.moduli == other.moduli)

    def __hash__(self):
        return hash(self.moduli)

    def __repr__(self):
        return f"AbelianGroup({self.spec})"


def make_group(spec: str) -> AbelianGroup:
    """Parse a spec like "Z2", "Z3", "Z2xZ4" into a group."""
    moduli = []
    for token in spec.strip().split("x"):
        m = _SPEC_TOKEN.match(token.strip())
        if not m:
            raise ValueError(f"cannot parse group factor {token!r}")
        moduli.append(int(m.group(1)))
    return AbelianGroup(moduli)


class EquationLanguage:
    """All relations "x_1 + ... + x_m = a" for 1 <= m <= r, a in G."""

    def __init__(self, group: AbelianGroup, r: int, relations):
        self.group = group
        self.r = r
        self._relations = relations

    @property
    def domain_size(self) -> int:
        return self.group.order

    def relation(self, m: int, a: int) -> WeightedRelation:
        got = self._relations.get((m, a))
        if got is None:
            raise KeyError(f"no relation for m={m}, a={a}")
        return got

    def relations(self):
        return dict(self._relations)


def build_equation_language(group: AbelianGroup, r: int = 3,
                            table_cap: int = TABLE_CAP) -> EquationLanguage:
    if r < 1:
        raise ValueError("max arity must be at least 1")
    if group.order ** r > table_cap:
        raise CapExceeded(
            f"table size {group.order ** r} exceeds cap {table_cap}")
    relations = {}
    for m in range(1, r + 1):
        for a in group.elements():
            entries = {}
            for t in itertools.product(group.elements(), repeat=m):
                if group.sum(t) == a:
                    entries[t] = 0
            relations[(m, a)] = WeightedRelation.from_entries(
                f"sum{m}={a}", m, group.order, entries, default=INF)
    return EquationLanguage(group, r, relations)


def equation_form(relation: WeightedRelation, group: AbelianGroup):
    """Right-hand side a when the relation is exactly "sum = a", else None."""
    if relation.domain_size != group.order or not relation.is_crisp:
        return None
    rhs = None
    for t in itertools.product(group.elements(), repeat=relation.arity):
        if relation.value(t).is_finite:
            rhs = group.sum(t)
            break
    if rhs is None:
        return None
    for t in itertools.product(group.elements(), repeat=relation.arity):
        if relation.value(t).is_finite != (group.sum(t) == rhs):
            return None
    return rhs


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def linear_satisfiable(instance: VCSPInstance, group: AbelianGroup,
                       brute_cap: int = BRUTE_CAP) -> bool:
    """Exact satisfiability of a system of group equations.

    Every constraint must be an equation of the group's language;
    anything else raises.  Prime order goes through elimination over
    the field, composite order enumerates assignments up to brute_cap.
    """
    system = []
    for c in instance.constraints:
        rhs = equation_form(c.relation, group)
        if rhs is None:
            raise VcspError(
                f"constraint {c.relation.name!r} is not a group equation")
        system.append((c.scope, rhs))

    if _is_prime(group.order):
        return _eliminate(system, instance.num_vars, group.order)
    return is_satisfiable(instance, cap=brute_cap)


def _eliminate(system, num_vars: int, p: int) -> bool:
    # row reduction of the augmented matrix over the prime field;
    # repeated scope variables fold into coefficients mod p
    rows = []
    for scope, rhs in system:
        row = [0] * (num_vars + 1)
        for v in scope:
            row[v] = (row[v] + 1) % p
        row[num_vars] = rhs % p
        rows.append(row)
    pivot_row = 0
    for col in range(num_vars):
        src = next((r for r in range(pivot_row, len(rows))
                    if rows[r][col]), None)
        if src is None:
            continue
        rows[pivot_row], rows[src] = rows[src], rows[pivot_row]
        inv = pow(rows[pivot_row][col], p - 2, p)
        rows[pivot_row] = [(x * inv) % p for x in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p
                           for x, y in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return not any(all(x == 0 for x in row[:num_vars]) and row[num_vars]
                   for row in rows)


def tseitin(edges, charges, group: AbelianGroup, r: int = 3) -> VCSPInstance:
    """One variable per edge, one equation per vertex.

    Vertex v constrains the sum of its incident edge variables to
    charges[v].  Degrees must lie in 1 .. r and self-loops are not
    allowed, so every equation fits the arity-r language.
    """
    num_vertices = len(charges)
    incident = [[] for _ in range(num_vertices)]
    for e, (u, v) in enumerate(edges):
        if u == v:
            raise VcspError(f"self-loop at vertex {u}")
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise VcspError(f"edge ({u}, {v}) leaves the charge vector")
        incident[u].append(e)
        incident[v].append(e)
    for v, inc in enumerate(incident):
        if not inc:
            raise VcspError(f"vertex {v} has degree 0")
        if len(inc) > r:
            raise VcspError(
                f"vertex {v} has degree {len(inc)}, language arity is {r}")
    for v, a in enumerate(charges):
        if not 0 <= a < group.order:
            raise ValueError(f"charge {a} at vertex {v} out of range")
    lang = build_equation_language(group, r)
    inst = VCSPInstance(len(edges), group.order)
    for v in range(num_vertices):
        inst.add_constraint(lang.relation(len(incident[v]), charges[v]),
                            tuple(incident[v]))
    return inst


def random_kxor(n: int, m: int, group: AbelianGroup, arity: int = 3,
                seed: int = 0) -> VCSPInstance:
    """m random equations on distinct-variable scopes, deterministic in
    seed."""
    if n < arity:
        raise ValueError(f"need at least {arity} variables, got {n}")
    rng = random.Random(seed)
    lang = build_equation_language(group, arity)
    inst = VCSPInstance(n, group.order)
    for _ in range(m):
        scope = tuple(rng.sample(range(n), arity))
        rhs = rng.randrange(group.order)
        inst.add_constraint(lang.relation(arity, rhs), scope)
    return inst


def random_regular_graph(num_vertices: int, degree: int, seed: int = 0,
                         tries: int = 1000):
    """Simple regular graph via the pairing model with rejection."""
    if num_vertices * degree % 2:
        raise ValueError("vertex count times degree must be even")
    if degree >= num_vertices:
        raise ValueError("degree must be below the vertex count")
    rng = random.Random(seed)
    stubs = [v for v in range(num_vertices) for _ in range(degree)]
    for _ in range(tries):
        rng.shuffle(stubs)
        edges = [tuple(sorted(stubs[i:i + 2]))
                 for i in range(0, len(stubs), 2)]
        if any(u == v for u, v in edges):
            continue
        if len(set(edges)) < len(edges):
            continue
        return sorted(edges)
    raise VcspError(
        f"no simple {degree}-regular graph on {num_vertices} vertices "
        f"after {tries} tries")


class GapReport:
    """Outcome of one probe instance.

    verdict is "gap" only when the oracle says unsatisfiable, the
    relaxation converged to a feasible solution, and an independent
    residual check plus the extra-identity audit both pass.
    """

    def __init__(self, instance, level, vcsp_opt, sdp_value, verdict,
                 diagnostics):
        self.instance = instance
        self.level = level
        self.vcsp_opt = vcsp_opt
        self.sdp_value = sdp_value
        self.verdict = verdict
        self.diagnostics = diagnostics

    def as_lines(self):
        out = [f"verdict = {self.verdict}",
               f"level = {self.level}",
               f"vcsp_opt = {self.vcsp_opt}",
               f"sdp_value = {self.sdp_value}"]
        for key in sorted(self.diagnostics):
            out.append(f"{key} = {self.diagnostics[key]}")
        return out

    def __repr__(self):
        return (f"GapReport(verdict={self.verdict!r}, level={self.level}, "
                f"vcsp_opt={self.vcsp_opt}, sdp_value={self.sdp_value})")


def _probe_instance(instance, group, level, meta, eps, max_iter, row_cap):
    diagnostics = dict(meta)
    sat = linear_satisfiable(instance, group)
    if sat:
        diagnostics["note"] = "oracle satisfiable"
        return GapReport(instance, level, ZERO, None, "no-gap",
                         diagnostics)

    try:
        model = build_las(instance, level, row_cap=row_cap)
    except CapExceeded as e:
        diagnostics["note"] = f"cap exceeded: {e}"
        return GapReport(instance, level, INF, None, "inconclusive",
                         diagnostics)
    try:
        sol = solve_sdp(model, eps=eps, max_iter=max_iter)
    except NonConvergence as e:
        diagnostics["note"] = str(e)
        return GapReport(instance, level, INF, None, "inconclusive",
                         diagnostics)
    diagnostics["stop"] = sol.stop
    diagnostics["checks"] = sol.checks
    diagnostics["face_dim"] = sol.face_dim
    if isinstance(sol, NumericallyInfeasible):
        diagnostics["note"] = "relaxation infeasible"
        diagnostics["iterations"] = sol.iterations
        diagnostics["displacement"] = sol.displacement
        return GapReport(instance, level, INF, float("inf"), "no-gap",
                         diagnostics)

    # candidate gap: recompute the residuals from the matrix and replay
    # the extra-identity audit before believing the solver
    verdict, fresh, l7 = judge_gap(sol, model, math.inf)
    diagnostics["iterations"] = sol.iterations
    diagnostics.update((f"residual_{k}", v) for k, v in fresh.items())
    diagnostics["l7_ok"] = l7.ok
    if verdict == "gap":
        return GapReport(instance, level, INF, sol.objective, "gap",
                         diagnostics)
    diagnostics["note"] = "re-verification failed"
    return GapReport(instance, level, INF, sol.objective, "inconclusive",
                     diagnostics)


def gap_search(group: AbelianGroup, level: int, n_values,
               family: str = "tseitin", count: int = 5, seed: int = 0,
               density: float = 4.0, arity: int = 3,
               eps: float = DEFAULT_EPS, max_iter: int = DEFAULT_MAX_ITER,
               row_cap: int = ROW_CAP):
    """Probe random instances for relaxation gaps at one level.

    n_values counts variables.  The tseitin family needs n divisible by
    3 and at least 6: the instance lives on the edges of a random
    3-regular graph with 2n/3 vertices, all charges zero except a
    random nonzero charge at vertex 0.  The kxor family draws
    round(density * n) random equations.  Instance seeds derive from
    the top-level seed, are recorded in each report, and make every
    probe reproducible on its own.  A seed that draws an instance
    already probed in this call (same variable count, scopes and
    relation tables) is not solved again: its report copies the first
    one's verdict, values and diagnostics, keeps its own seed and adds
    `repeat_of`, the first seed.
    """
    if family not in ("tseitin", "kxor"):
        raise ValueError(f"unknown family {family!r}")
    if level < arity:
        raise ValueError(
            f"level {level} is below the language arity {arity}")
    rng = random.Random(seed)
    reports = []
    probed = {}
    for n in n_values:
        for _ in range(count):
            child = rng.randrange(2 ** 32)
            if family == "tseitin":
                if n % 3 or n < 6:
                    raise ValueError(
                        "tseitin needs a variable count divisible by 3 "
                        "and at least 6")
                vertices = 2 * n // 3
                edges = random_regular_graph(vertices, 3, seed=child)
                charges = [0] * vertices
                charges[0] = random.Random(child + 1).randrange(
                    1, group.order)
                instance = tseitin(edges, charges, group, r=max(3, arity))
                meta = {"family": "tseitin", "n": n, "vertices": vertices,
                        "seed": child}
            else:
                m = max(1, round(density * n))
                instance = random_kxor(n, m, group, arity=arity, seed=child)
                meta = {"family": "kxor", "n": n, "m": m, "seed": child}
            key = _instance_key(instance)
            first = probed.get(key)
            if first is None:
                probed[key] = report = _probe_instance(
                    instance, group, level, meta, eps, max_iter, row_cap)
            else:
                diagnostics = dict(first.diagnostics, seed=child,
                                   repeat_of=first.diagnostics["seed"])
                report = GapReport(instance, level, first.vcsp_opt,
                                   first.sdp_value, first.verdict, diagnostics)
            reports.append(report)
    return reports


def _instance_key(instance):
    """Everything a probe reads of an instance, as a hashable value."""
    return (instance.num_vars,
            tuple((c.scope, c.relation.table) for c in instance.constraints))
