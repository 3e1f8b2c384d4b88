"""Reference computations the benchmark checks the program against.

Nothing here calls into vcsprelax except to read public fields of the
objects it returns (an SA model's blocks and rows, a solution's lambda).
Instances are described by `Problem`: variable count, domain size and a
list of (scope, Table) pairs, where a Table maps each tuple to a Fraction
cost or None for infinity.  Optima are found by enumeration in integer
arithmetic, satisfiability of parity systems by GF(2) elimination,
infeasible LPs are confirmed by a float HiGHS solve, and Gram matrices
are tested with numpy's own eigvalsh.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog as _highs_linprog
from scipy.sparse import csr_matrix

INF = None


class Table:
    """A cost table over {0..d-1}^arity, Fraction or None (infinity)."""

    def __init__(self, name, arity, d, costs):
        self.name = name
        self.arity = arity
        self.d = d
        self.costs = dict(costs)  # tuple -> Fraction | None

    @classmethod
    def from_fn(cls, name, arity, d, fn):
        return cls(name, arity, d, {
            t: fn(t) for t in itertools.product(range(d), repeat=arity)})

    def text(self):
        """This table in the library's language-file syntax."""
        out = [f"relation {self.name} {self.arity}"]
        for t, v in sorted(self.costs.items()):
            out.append(f"{' '.join(map(str, t))} : {'inf' if v is None else v}")
        out.append("end")
        return out


class Problem:
    def __init__(self, n, d, cons):
        self.n = n
        self.d = d
        self.cons = list(cons)  # (scope tuple, Table)

    def instance_text(self):
        out = [f"vars {self.n}"]
        out += [f"constraint {t.name} {' '.join(map(str, s))}"
                for s, t in self.cons]
        return "\n".join(out) + "\n"

    def language_text(self):
        tables = {}
        for _, t in self.cons:
            tables.setdefault(t.name, t)
        out = [f"domain {self.d}"]
        for t in tables.values():
            out += t.text()
        return "\n".join(out) + "\n"


def to_instance(problem: Problem):
    """The library object for a Problem (relations built once per name)."""
    from vcsprelax import VCSPInstance, WeightedRelation, INF as LIB_INF
    rels = {}
    inst = VCSPInstance(problem.n, problem.d)
    for scope, t in problem.cons:
        rel = rels.get(t.name)
        if rel is None:
            entries = {k: (LIB_INF if v is None else v)
                       for k, v in t.costs.items()}
            rel = rels[t.name] = WeightedRelation.from_entries(
                t.name, t.arity, t.d, entries)
        inst.add_constraint(rel, scope)
    return inst


# ------------------------------------------------------------- optima

def enum_opt(problem: Problem):
    """Exact optimum by enumerating all d^n assignments (None = inf).

    Costs are scaled to integers by the lcm of their denominators, so
    the int64 sums are exact.
    """
    n, d = problem.n, problem.d
    dens = [v.denominator for _, t in problem.cons
            for v in t.costs.values() if v is not None]
    scale = math.lcm(*dens) if dens else 1
    grid = np.indices((d,) * n, dtype=np.int64).reshape(n, -1) if n else \
        np.zeros((0, 1), dtype=np.int64)
    total = np.zeros(grid.shape[1], dtype=np.int64)
    ok = np.ones(grid.shape[1], dtype=bool)
    for scope, t in problem.cons:
        idx = np.zeros(grid.shape[1], dtype=np.int64)
        for v in scope:
            idx = idx * d + grid[v]
        flat = [t.costs[tup] for tup in itertools.product(range(d),
                                                          repeat=t.arity)]
        finite = np.array([v is not None for v in flat])
        ints = np.array([0 if v is None else int(v * scale) for v in flat],
                        dtype=np.int64)
        ok &= finite[idx]
        total += ints[idx]
    if not ok.any():
        return INF
    return Fraction(int(total[ok].min()), scale)


def gf2_satisfiable(n, equations):
    """Satisfiability of sum(x_v for v in scope) = rhs (mod 2) systems.

    Each equation becomes an (n+1)-bit mask, bit n the right-hand side;
    repeated variables cancel.  Elimination to echelon form leaves
    0 = 1 exactly when the system is unsatisfiable.
    """
    pivots = {}
    for scope, rhs in equations:
        row = (rhs & 1) << n
        for v in scope:
            row ^= 1 << v
        while row & ((1 << n) - 1):
            low = (row & -row).bit_length() - 1
            if low not in pivots:
                pivots[low] = row
                break
            row ^= pivots[low]
        else:
            if row:
                return False
    return True


def parity_equations(problem: Problem):
    """The (scope, rhs) list of a crisp Z2 parity problem."""
    eqs = []
    for scope, t in problem.cons:
        zeros = {sum(k) % 2 for k, v in t.costs.items() if v == 0}
        if len(zeros) != 1 or any(v not in (0, None) for v in t.costs.values()):
            raise ValueError(f"{t.name} is not a parity equation")
        (rhs,) = zeros
        eqs.append((scope, rhs))
    return eqs


# ------------------------------------------------------------ SA check

def sa_lambda_problems(problem: Problem, level, model, solution):
    """The Sherali-Adams conditions on lambda, checked exactly.

    Blocks are read from the model: the first len(problem.cons) are the
    problem's constraints in order, every variable set of size 1..level
    must be some block.  Costs and feasibility come from the problem's
    own tables, not from the model.  Checks: nonnegativity, zero mass
    off the feasible set, unit mass per block, marginal consistency of
    every block onto each other block inside it of size <= level, and
    that the lambda objective equals the reported value.
    """
    out = []
    d = problem.d
    aug = model.aug
    lam = solution.lam
    for i, (scope, _) in enumerate(problem.cons):
        if tuple(aug[i].vars) != tuple(sorted(set(scope))):
            out.append(f"block {i} vars {aug[i].vars} != scope {scope}")
            return out
    have = {tuple(e.vars) for e in aug}
    for size in range(1, min(level, problem.n) + 1):
        for sub in itertools.combinations(range(problem.n), size):
            if sub not in have:
                out.append(f"no block for {sub}")
                return out

    def cost(i, sigma):
        """Cost of an assignment to block i (0 on null blocks)."""
        if i >= len(problem.cons):
            return Fraction(0)
        scope, t = problem.cons[i]
        pos = {v: k for k, v in enumerate(aug[i].vars)}
        return t.costs[tuple(sigma[pos[v]] for v in scope)]

    dist = []
    objective = Fraction(0)
    for i, e in enumerate(aug):
        mass = Fraction(0)
        table = {}
        for sigma in itertools.product(range(d), repeat=len(e.vars)):
            v = Fraction(lam.get((i, sigma), 0))
            if v < 0:
                out.append(f"negative lambda at {(i, sigma)}")
            if v:
                c = cost(i, sigma)
                if c is None:
                    out.append(f"mass on infeasible {(i, sigma)}")
                else:
                    objective += v * c
            mass += v
            table[sigma] = v
        if mass != 1:
            out.append(f"block {i} mass {mass}")
        dist.append(table)
        if len(out) > 5:
            return out
    for i, ei in enumerate(aug):
        si = set(ei.vars)
        for j, ej in enumerate(aug):
            if i == j or len(ej.vars) > level or not set(ej.vars) <= si:
                continue
            idx = [ei.vars.index(v) for v in ej.vars]
            marg = {}
            for sigma, v in dist[i].items():
                key = tuple(sigma[k] for k in idx)
                marg[key] = marg.get(key, 0) + v
            for tau, v in dist[j].items():
                if marg.get(tau, 0) != v:
                    out.append(f"block {i} does not marginalize onto {j} at {tau}")
                    return out
    if solution.value.frac != objective:
        out.append(f"lambda objective {objective} != value {solution.value.frac}")
    return out


# -------------------------------------------------------- LP and Gram

def highs_infeasible(model) -> bool:
    """Float HiGHS on the model's own rows: True when it proves them
    infeasible."""
    lp = model.lp
    eq_rows, ub_rows = [], []
    for coeffs, rhs, kind in lp.rows:
        (eq_rows if kind == "eq" else ub_rows).append((coeffs, float(rhs)))

    def mat(rows):
        data, ri, ci = [], [], []
        for r, (coeffs, _) in enumerate(rows):
            for c, v in coeffs.items():
                ri.append(r)
                ci.append(c)
                data.append(float(v))
        return csr_matrix((data, (ri, ci)), shape=(len(rows), lp.num_vars))

    kw = {}
    if eq_rows:
        kw["A_eq"], kw["b_eq"] = mat(eq_rows), [b for _, b in eq_rows]
    if ub_rows:
        kw["A_ub"], kw["b_ub"] = mat(ub_rows), [b for _, b in ub_rows]
    res = _highs_linprog(np.zeros(lp.num_vars), bounds=(0, None),
                         method="highs", **kw)
    return res.status == 2


def min_eigenvalue(M) -> float:
    return float(np.linalg.eigvalsh(np.asarray(M, dtype=float))[0])


def gram_psd(M, eps) -> bool:
    return min_eigenvalue(M) >= -10 * eps


# --------------------------------------------------- file-format reader

def _value(tok):
    return None if tok == "inf" else Fraction(tok)


def read_language(text):
    """Tables by name from a language file."""
    lines = [l.split("#", 1)[0].strip() for l in text.splitlines()]
    lines = [l for l in lines if l]
    d = int(lines[0].split()[1])
    tables = {}
    pos = 1
    while pos < len(lines):
        _, name, arity = lines[pos].split()
        arity = int(arity)
        pos += 1
        costs, default = {}, None
        while lines[pos] != "end":
            lhs, _, rhs = lines[pos].partition(":")
            if lhs.strip() == "default":
                default = _value(rhs.strip())
            else:
                costs[tuple(int(x) for x in lhs.split())] = _value(rhs.strip())
            pos += 1
        pos += 1
        for t in itertools.product(range(d), repeat=arity):
            costs.setdefault(t, default)
        tables[name] = Table(name, arity, d, costs)
    return d, tables


def read_problem(language_text, instance_text):
    d, tables = read_language(language_text)
    lines = [l.split("#", 1)[0].strip() for l in instance_text.splitlines()]
    lines = [l for l in lines if l]
    n = int(lines[0].split()[1])
    cons = []
    for l in lines[1:]:
        parts = l.split()
        cons.append((tuple(int(x) for x in parts[2:]), tables[parts[1]]))
    return Problem(n, d, cons)


def report_fields(lines):
    """`key = value` report lines as a dict (first occurrence wins)."""
    out = {}
    for line in lines:
        key, sep, val = line.partition(" = ")
        if sep and key not in out:
            out[key] = val
    return out


def read_gram_dump(text):
    """The symmetric matrix of a `gram r c value` dump."""
    entries = []
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "gram":
            entries.append((int(parts[1]), int(parts[2]), float(parts[3])))
    n = 1 + max(r for r, _, _ in entries)
    M = np.zeros((n, n))
    for r, c, v in entries:
        M[r, c] = M[c, r] = v
    return M
