"""Level-k Sherali-Adams linear programs over exact rationals, in moment
coordinates.

The model follows the local-distribution picture: one block of lambda
variables per constraint of an augmented instance (the original constraints
plus one zero-valued null constraint per admissible scope-set not already
carried by an original).  Each scope-set of at most k variables has a
designated block: the first original constraint with that scope-set, or
the null block added for it.

The LP's columns are the moments y(U, alpha), the mass on x_U = alpha, for
U empty or a designated scope-set and alpha a vector of nonzero values.
The lambda of a block with at most k variables is the Moebius expansion
P.y, which writes each 1[x_v = 0] of an assignment as
1 - sum_{b != 0} 1[x_v = b].  Unit mass and marginal consistency between
such blocks then hold by construction (Sherali-Adams, SIAM J. Discrete
Math. 1990; Laurent, Math. Oper. Res. 2003).  The LP is min c.P.y with
y(empty) = 1 and one row per (block, assignment): P.y >= 0 on a feasible
assignment, P.y = 0 on an infeasible one.  Blocks wider than k keep lambda
columns of their own, one per feasible assignment, tied to each size-k
subset by sum lambda = P.y.  `solve_lp_exact` returns lambda, and
`verify_sa` re-checks the full quantifier form on it, whatever the
coordinates.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import CapExceeded, InternalError
from .model import VCSPInstance
from .simplex import ExactLP, certificate_problems, solve_lp
from .values import INF, ExtValue

COLUMN_CAP = 10**6


class AugConstraint:
    """One block of the augmented instance.

    `vars` is the sorted scope-set.  Null constraints have relation None and
    contribute nothing to the objective; original constraints keep their
    scope tuple so repeated variables evaluate correctly.
    """

    __slots__ = ("vars", "relation", "scope")

    def __init__(self, vars_, relation=None, scope=None):
        self.vars = tuple(vars_)
        self.relation = relation
        self.scope = scope

    @property
    def is_null(self) -> bool:
        return self.relation is None

    def induced_tuple(self, sigma):
        pos = {v: j for j, v in enumerate(self.vars)}
        return tuple(sigma[pos[v]] for v in self.scope)

    def assignments(self, domain_size):
        """Assignment tuples over `vars` paired with their cost (None for
        null constraints); infeasible assignments are skipped."""
        for sigma in itertools.product(range(domain_size), repeat=len(self.vars)):
            if self.relation is None:
                yield sigma, None
            else:
                val = self.relation.value(self.induced_tuple(sigma))
                if val.is_finite:
                    yield sigma, val.frac

    def feasible_set(self, domain_size):
        return {sigma for sigma, _ in self.assignments(domain_size)}


class SaModel:
    def __init__(self, instance, level, subset_mode, aug, designated, moments,
                 expansion, lp):
        self.instance = instance
        self.level = level
        self.subset_mode = subset_mode
        self.aug = aug                  # originals first, then null blocks
        self.designated = designated    # sorted var tuple -> aug index
        self.moments = moments          # (U, alpha) of each moment column
        self.expansion = expansion      # (aug index, feasible sigma) -> P row
        self.lp = lp

    @property
    def num_columns(self) -> int:
        return self.lp.num_vars

    @property
    def num_rows(self) -> int:
        return len(self.lp.rows)

    def __repr__(self):
        return (
            f"SaModel(level={self.level}, mode={self.subset_mode!r}, "
            f"columns={self.num_columns}, rows={self.num_rows})"
        )


class SaSolution:
    """Exact solution of the level-k LP.

    `lam` maps (augmented constraint index, assignment tuple) to a
    nonnegative Fraction; assignments eliminated at build time are zero and
    not listed.  `value` is the attained objective, infinite when the LP is
    infeasible.  `certificate` and `path` come from the exact LP solver:
    the evidence for the answer against `model.lp` (a dual or a Farkas
    ray, or None) and how it was found.
    """

    def __init__(self, status, value, lam, pivots=0, certificate=None,
                 path="two-phase"):
        self.status = status            # 'optimal' | 'infeasible'
        self.value = value              # ExtValue
        self.lam = lam
        self.pivots = pivots
        self.certificate = certificate  # simplex.Certificate or None
        self.path = path                # 'certified' | 'two-phase'

    def __repr__(self):
        return f"SaSolution(status={self.status!r}, value={self.value})"


def _null_scope_sets(instance, level, subset_mode):
    if subset_mode == "full":
        pool = list(range(instance.num_vars))
    elif subset_mode == "scopes":
        used = set()
        for c in instance.constraints:
            used.update(c.scope)
        pool = sorted(used)
    else:
        raise ValueError(f"unknown subset mode {subset_mode!r}")
    top = min(level, len(pool))
    for size in range(1, top + 1):
        yield from itertools.combinations(pool, size)


def augment_instance(instance: VCSPInstance, level: int, subset_mode: str):
    """Append one null constraint per admissible scope set not already
    carried by an original constraint.

    Returns (aug, designated) where aug lists the original constraints
    followed by the null ones and designated maps each covered scope set
    to the index of its canonical block: the first original constraint
    with that scope set, otherwise the null block.  Scope sets larger
    than the level stay undesignated.
    """
    aug = []
    designated = {}
    for c in instance.constraints:
        vars_ = tuple(sorted(c.scope_set))
        if len(vars_) <= level and vars_ not in designated:
            designated[vars_] = len(aug)
        aug.append(AugConstraint(vars_, c.relation, c.scope))
    for x in _null_scope_sets(instance, level, subset_mode):
        if x not in designated:
            designated[x] = len(aug)
            aug.append(AugConstraint(x))
    return aug, designated


def _expansion(U, d, column):
    """P over the moment columns for every sigma in D^U.  Its terms are
    the tau that agree with sigma where sigma is nonzero, a 0 of tau
    leaving its variable out; the sign counts the zeros of sigma that tau
    fills in."""
    col, nnz = {}, {}
    for tau in itertools.product(range(d), repeat=len(U)):
        on = [t for t, a in enumerate(tau) if a]
        col[tau] = column[(tuple(U[t] for t in on), tuple(tau[t] for t in on))]
        nnz[tau] = len(on)
    out = {}
    for sigma in col:
        free = [(s,) if s else range(d) for s in sigma]
        out[sigma] = {col[tau]: (-1) ** (nnz[tau] - nnz[sigma])
                      for tau in itertools.product(*free)}
    return out


def build_sa(
    instance: VCSPInstance,
    level: int,
    subset_mode: str = "full",
    column_cap: int = COLUMN_CAP,
) -> SaModel:
    if level < 1:
        raise ValueError("level must be at least 1")
    d = instance.domain_size
    aug, designated = augment_instance(instance, level, subset_mode)
    null_cols = sum(d ** len(e.vars) for e in aug if e.is_null)
    if null_cols > column_cap:
        raise CapExceeded(f"{null_cols} null columns exceed cap {column_cap}")
    for X in designated:
        if len(X) > 1 and any(X[:j] + X[j + 1:] not in designated
                              for j in range(len(X))):
            raise InternalError(f"designated scope set {X} lacks a designated subset")

    nonzero = range(1, d)
    moments = [((), ())]
    for U in sorted(designated, key=lambda X: (len(X), X)):
        moments += [(U, alpha) for alpha in itertools.product(nonzero, repeat=len(U))]
    column = {m: c for c, m in enumerate(moments)}
    P = {U: _expansion(U, d, column) for U in designated}
    costs = [dict(e.assignments(d)) for e in aug]
    if sum(map(len, costs)) > column_cap:
        raise CapExceeded(f"column count exceeds cap {column_cap}")
    n = len(moments)
    wide = sum(len(costs[i]) for i, e in enumerate(aug) if len(e.vars) > level)
    lp = ExactLP(n + wide)
    lp.add_eq({0: 1}, 1)
    expansion = {}
    objective = {}
    for i, entry in enumerate(aug):
        if len(entry.vars) > level:
            own = []
            for sigma, cost in costs[i].items():
                expansion[(i, sigma)] = {n: 1}
                own.append((sigma, n))
                if cost:
                    objective[n] = cost
                n += 1
            pos = {v: t for t, v in enumerate(entry.vars)}
            for sub in itertools.combinations(entry.vars, level):
                idx = [pos[v] for v in sub]
                ties = {tau: {c: -v for c, v in row.items()}
                        for tau, row in P[sub].items()}
                for sigma, c in own:
                    ties[tuple(sigma[t] for t in idx)][c] = 1
                for tie in ties.values():
                    lp.add_eq(tie, 0)
            continue
        for sigma, row in P[entry.vars].items():
            if sigma not in costs[i]:
                lp.add_eq(row, 0)
                continue
            lp.add_le({c: -v for c, v in row.items()}, 0)
            expansion[(i, sigma)] = row
            cost = costs[i][sigma]
            if cost:
                for c, v in row.items():
                    objective[c] = objective.get(c, 0) + v * cost
    lp.set_objective(objective)
    return SaModel(instance, level, subset_mode, aug, designated, moments, expansion, lp)


def solve_lp_exact(model: SaModel) -> SaSolution:
    res = solve_lp(model.lp)
    if res.status == "infeasible":
        return SaSolution("infeasible", INF, {}, res.pivots, res.certificate, res.path)
    if res.status != "optimal":
        raise InternalError(f"exact simplex returned status {res.status!r}")
    lam = {key: sum((v * res.x[c] for c, v in row.items()), Fraction(0))
           for key, row in model.expansion.items()}
    return SaSolution("optimal", ExtValue(res.value), lam, res.pivots,
                      res.certificate, res.path)


def lp_opt(
    instance: VCSPInstance,
    level: int,
    subset_mode: str = "full",
    column_cap: int = COLUMN_CAP,
) -> ExtValue:
    model = build_sa(instance, level, subset_mode, column_cap)
    return solve_lp_exact(model).value


class SaCheck:
    def __init__(self, ok, max_residual, violations):
        self.ok = ok
        self.max_residual = max_residual  # Fraction
        self.violations = violations      # up to a handful, for diagnostics

    def __repr__(self):
        return f"SaCheck(ok={self.ok}, max_residual={self.max_residual})"


def verify_sa(model: SaModel, solution: SaSolution, max_violations: int = 10) -> SaCheck:
    """Exact check of a solution, independent of the solver.

    An infeasible answer must carry a Farkas ray for `model.lp`.  An
    optimum is checked on the four defining conditions in the full
    quantifier form: nonnegativity, zeros outside the feasible sets, unit
    mass per block, and marginal consistency for every pair of augmented
    constraints whose scope-sets nest within the level bound.  Its
    objective, summed from lambda and the blocks' own costs, must equal
    `value`, and a dual it carries must prove that value optimal."""
    cert = solution.certificate
    if solution.status != "optimal":
        problems = list(certificate_problems(model.lp, cert, "farkas"))
        worst = max((abs(r) for _, _, r in problems), default=Fraction(0))
        return SaCheck(not problems, worst, problems[:max_violations])

    d = model.instance.domain_size
    lam = solution.lam
    violations = []
    max_res = Fraction(0)

    def note(kind, detail, res):
        nonlocal max_res
        res = abs(res)
        if res > max_res:
            max_res = res
        if res > 0 and len(violations) < max_violations:
            violations.append((kind, detail, res))

    value = solution.value.frac
    problems = [] if cert is None else list(certificate_problems(model.lp, cert, "dual", value))
    for kind, detail, res in problems:
        note(kind, detail, res)
    cost = sum((c * lam.get((i, sigma), 0)
                for i, entry in enumerate(model.aug) if not entry.is_null
                for sigma, c in entry.assignments(d)), Fraction(0))
    note("objective", "c.lambda", cost - value)

    # the block conditions in integers: every lambda over one common
    # denominator, a residual turned back into a Fraction only if nonzero
    den = math.lcm(*(v.denominator for v in lam.values()))
    scaled = {key: v.numerator * (den // v.denominator) for key, v in lam.items()}

    def off(kind, detail, res):
        if res:
            note(kind, detail, Fraction(res, den))

    feas_sets = [entry.feasible_set(d) for entry in model.aug]
    for i, entry in enumerate(model.aug):
        total = 0
        for sigma in itertools.product(range(d), repeat=len(entry.vars)):
            val = scaled.get((i, sigma), 0)
            if val < 0:
                off("nonneg", (i, sigma), val)
            if val and sigma not in feas_sets[i]:
                off("zero", (i, sigma), val)
            total += val
        off("mass", i, total - den)

    for i, ei in enumerate(model.aug):
        set_i = set(ei.vars)
        pos = {v: t for t, v in enumerate(ei.vars)}
        marginals = {}  # block i summed onto each sub-scope, built once
        for j, ej in enumerate(model.aug):
            if i == j or len(ej.vars) > model.level:
                continue
            if not set(ej.vars) <= set_i:
                continue
            marg = marginals.get(ej.vars)
            if marg is None:
                idx = [pos[v] for v in ej.vars]
                marg = marginals[ej.vars] = {}
                for sigma in feas_sets[i]:
                    tau = tuple(sigma[t] for t in idx)
                    marg[tau] = marg.get(tau, 0) + scaled.get((i, sigma), 0)
            for tau in itertools.product(range(d), repeat=len(ej.vars)):
                off("marginal", (i, j, tau),
                    marg.get(tau, 0) - scaled.get((j, tau), 0))

    return SaCheck(max_res == 0 and not problems, max_res, violations)
