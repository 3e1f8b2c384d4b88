"""Level-k Sherali-Adams linear programs over exact rationals.

The model follows the local-distribution picture: one block of lambda
variables per constraint of an augmented instance (the original constraints
plus one zero-valued null constraint per admissible scope-set not already
carried by an original), with normalization and marginal-consistency rows.
Each scope-set has a designated block: the first original constraint with
that scope-set, or the null block added for it.  Infeasible assignments are
eliminated at build time, so the nonnegativity and zero conditions are
structural and the LP carries only normalization and marginals.

Marginal consistency is materialized in an equivalent reduced form: small
constraints are tied directly to the designated block of their scope-set,
large constraints marginalize onto every size-k subset, and designated
blocks chain down one element at a time.  `verify_sa` re-checks the full
quantifier form on every pair, so the reduction is itself under test.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import CapExceeded, InternalError
from .model import VCSPInstance
from .simplex import ExactLP, certificate_problems, solve_lp
from .values import INF, ZERO, ExtValue

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
    def __init__(self, instance, level, subset_mode, aug, designated, columns, col_of, lp):
        self.instance = instance
        self.level = level
        self.subset_mode = subset_mode
        self.aug = aug                  # originals first, then null blocks
        self.designated = designated    # sorted var tuple -> aug index
        self.columns = columns          # list of (aug index, assignment)
        self.col_of = col_of
        self.lp = lp

    @property
    def num_columns(self) -> int:
        return len(self.columns)

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

    columns = []
    col_of = {}
    objective = {}
    for i, entry in enumerate(aug):
        for sigma, cost in entry.assignments(d):
            col_of[(i, sigma)] = len(columns)
            columns.append((i, sigma))
            if cost:
                objective[col_of[(i, sigma)]] = cost
        if len(columns) > column_cap:
            raise CapExceeded(f"column count exceeds cap {column_cap}")

    lp = ExactLP(len(columns))
    lp.set_objective(objective)

    # normalization: each block's mass is 1
    for i, entry in enumerate(aug):
        row = {
            col_of[(i, sigma)]: Fraction(1)
            for sigma, _ in entry.assignments(d)
        }
        lp.add_eq(row, 1)

    one = Fraction(1)
    for i, entry in enumerate(aug):
        if entry.is_null or not entry.vars:
            continue
        x_i = entry.vars
        if len(x_i) <= level:
            j = designated[x_i]
            if j == i:
                continue
            for sigma in itertools.product(range(d), repeat=len(x_i)):
                row = {}
                if (i, sigma) in col_of:
                    row[col_of[(i, sigma)]] = one
                if (j, sigma) in col_of:
                    row[col_of[(j, sigma)]] = row.get(col_of[(j, sigma)], Fraction(0)) - one
                if row:
                    lp.add_eq(row, 0)
        else:
            feas = entry.feasible_set(d)
            pos = {v: t for t, v in enumerate(x_i)}
            for sub in itertools.combinations(x_i, level):
                j = designated[sub]
                idx = [pos[v] for v in sub]
                for tau in itertools.product(range(d), repeat=level):
                    row = {}
                    if (j, tau) in col_of:
                        row[col_of[(j, tau)]] = -one
                    for sigma in feas:
                        if tuple(sigma[t] for t in idx) == tau:
                            key = col_of[(i, sigma)]
                            row[key] = row.get(key, Fraction(0)) + one
                    if row:
                        lp.add_eq(row, 0)

    # designated chains: marginalizing out one variable lands on the
    # designated block of the smaller scope-set
    for x, i in designated.items():
        if len(x) < 2:
            continue
        for t, v in enumerate(x):
            sub = x[:t] + x[t + 1:]
            j = designated[sub]
            for tau in itertools.product(range(d), repeat=len(sub)):
                row = {}
                if (j, tau) in col_of:
                    row[col_of[(j, tau)]] = -one
                for a in range(d):
                    sigma = tau[:t] + (a,) + tau[t:]
                    if (i, sigma) in col_of:
                        row[col_of[(i, sigma)]] = one
                if row:
                    lp.add_eq(row, 0)

    return SaModel(instance, level, subset_mode, aug, designated, columns, col_of, lp)


def solve_lp_exact(model: SaModel) -> SaSolution:
    res = solve_lp(model.lp)
    if res.status == "infeasible":
        return SaSolution("infeasible", INF, {}, res.pivots, res.certificate, res.path)
    if res.status != "optimal":
        raise InternalError(f"exact simplex returned status {res.status!r}")
    lam = {
        key: res.x[col] for key, col in model.col_of.items()
    }
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
    objective must equal `value`, and a dual it carries must prove that
    value optimal."""
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

    def lam_at(i, sigma):
        return lam.get((i, sigma), Fraction(0))

    value = solution.value.frac
    problems = [] if cert is None else list(certificate_problems(model.lp, cert, "dual", value))
    for kind, detail, res in problems:
        note(kind, detail, res)
    cost = sum((c * lam_at(*model.columns[col]) for col, c in model.lp.objective.items()),
               Fraction(0))
    note("objective", "c.lambda", cost - value)

    feas_sets = [entry.feasible_set(d) for entry in model.aug]
    for i, entry in enumerate(model.aug):
        total = Fraction(0)
        for sigma in itertools.product(range(d), repeat=len(entry.vars)):
            val = lam_at(i, sigma)
            if val < 0:
                note("nonneg", (i, sigma), val)
            if sigma not in feas_sets[i] and val != 0:
                note("zero", (i, sigma), val)
            total += val
        note("mass", i, total - 1)

    for i, ei in enumerate(model.aug):
        set_i = set(ei.vars)
        pos = {v: t for t, v in enumerate(ei.vars)}
        for j, ej in enumerate(model.aug):
            if i == j or len(ej.vars) > model.level:
                continue
            if not set(ej.vars) <= set_i:
                continue
            idx = [pos[v] for v in ej.vars]
            for tau in itertools.product(range(d), repeat=len(ej.vars)):
                s = Fraction(0)
                for sigma in feas_sets[i]:
                    if tuple(sigma[t] for t in idx) == tau:
                        s += lam_at(i, sigma)
                note("marginal", (i, j, tau), s - lam_at(j, tau))

    return SaCheck(max_res == 0 and not problems, max_res, violations)
