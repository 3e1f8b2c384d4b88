"""Exact linear programming over rationals: floats propose, rationals decide.

Every program first asks HiGHS, with `eq` rows as equalities and `le`
rows as inequalities, as written.  Its answer is a proposal only.  The
point and duals of an optimum, or the ray of a bounded Farkas LP when
HiGHS finds the rows infeasible, are rounded to rationals on a fixed
ladder of denominator bounds and accepted only when `certificate_problems`
finds nothing wrong with them; the result then carries that certificate
and took no pivots.  Only when no rung certifies the proposal (or HiGHS
gives none, as for an unbounded program) does the cold two-phase simplex
answer.  Its phase-1 reduced costs give a Farkas ray for free, so every
infeasible answer carries one; its optima carry no dual.  It stops with
`NonConvergence` once its pivots have made `_WORK_BUDGET` rational entry
updates.  It alone needs standard form (a slack per `le` row, every rhs
made >= 0), and it turns its ray back to the rows as written.

Rows are kept as sparse {column: coefficient} dicts.  Pivoting uses
largest-coefficient pricing but switches permanently to Bland's rule after a
degenerate stall, so termination is guaranteed while typical solves stay
fast.  Coefficients are gmpy2 rationals when available (much faster) and
fractions.Fraction otherwise; results are returned as Fraction either way,
and no float ever reaches a returned number.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import InternalError, NonConvergence

try:
    from gmpy2 import mpq as _num
except ImportError:  # pragma: no cover
    _num = Fraction

# degenerate pivots tolerated before switching to Bland
_STALL_LIMIT = 60

# rational entry updates the two-phase simplex may make in one solve
_WORK_BUDGET = 12_000_000

# denominator bounds tried, in order, when rounding a HiGHS proposal.  A
# rung that fails costs an exact pass over the rows, so the ladder holds
# only bounds that some measured LP needed: 1 for integral answers, 12
# for halves, thirds and quarters, 840 and 27720 for the rest.
_DENOMINATORS = (1, 12, 840, 27720)

_ZERO = _num(0)
_ONE = _num(1)


def _to_fraction(v) -> Fraction:
    return Fraction(v.numerator, v.denominator)


class ExactLP:
    """min c.x subject to equality / <= rows and x >= 0."""

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        self.objective: dict[int, object] = {}
        self.rows: list[tuple[dict[int, object], object, str]] = []

    def set_objective(self, coeffs):
        self.objective = {c: _num(v) for c, v in coeffs.items() if v != 0}

    def _check(self, coeffs):
        clean = {}
        for c, v in coeffs.items():
            if not 0 <= c < self.num_vars:
                raise ValueError(f"column {c} out of range")
            v = _num(v)
            if v:
                clean[c] = v
        return clean

    def add_eq(self, coeffs, rhs):
        self.rows.append((self._check(coeffs), _num(rhs), "eq"))

    def add_le(self, coeffs, rhs):
        self.rows.append((self._check(coeffs), _num(rhs), "le"))

    def add_ge(self, coeffs, rhs):
        neg = {c: -v for c, v in coeffs.items()}
        self.add_le(neg, -_num(rhs))


class Certificate(NamedTuple):
    """Exact evidence for an LP answer: one multiplier per entry of
    `ExactLP.rows`, in the row's own orientation, so y_i <= 0 on every
    `le` row.

    'dual': c - A^T y >= 0 on every column and b.y equals the optimum.
    'farkas': A^T y <= 0 on every column and b.y > 0, so no x >= 0
    satisfies the rows.
    """

    kind: str
    y: list


class LPResult:
    __slots__ = ("status", "value", "x", "pivots", "certificate", "path")

    def __init__(self, status, value=None, x=None, pivots=0,
                 certificate=None, path="two-phase"):
        self.status = status  # 'optimal' | 'infeasible' | 'unbounded'
        self.value = value
        self.x = x
        self.pivots = pivots
        self.certificate = certificate  # Certificate or None
        self.path = path      # 'certified' | 'two-phase'

    def __repr__(self):
        return f"LPResult({self.status}, value={self.value})"


def _subtract(target, row, f):
    """target -= f * row on sparse dicts, dropping entries that reach 0."""
    for c, v in row.items():
        nv = target.get(c, _ZERO) - f * v
        if nv == 0:
            target.pop(c, None)
        else:
            target[c] = nv


class _Tableau:
    def __init__(self, rows, rhs, basis):
        self.rows = rows          # list of sparse dicts
        self.rhs = rhs            # list of rationals, >= 0 invariant
        self.basis = basis        # basis[i] = basic column of row i
        self.pivots = 0
        self.work = 0             # rational entry updates so far

    def pivot(self, row_idx, col):
        row = self.rows[row_idx]
        piv = row[col]
        if piv != _ONE:
            inv = _ONE / piv
            self.rows[row_idx] = row = {c: v * inv for c, v in row.items()}
            self.rhs[row_idx] *= inv
        b = self.rhs[row_idx]
        updated = 0
        for i, other in enumerate(self.rows):
            if i == row_idx:
                continue
            f = other.get(col)
            if f is None or f == 0:
                continue
            _subtract(other, row, f)
            self.rhs[i] -= f * b
            updated += 1
        self.basis[row_idx] = col
        self.pivots += 1
        self.work += updated * len(row)
        if self.work > _WORK_BUDGET:
            raise NonConvergence(
                f"exact simplex stopped after {self.pivots} pivots: "
                f"work budget of {_WORK_BUDGET} rational updates exhausted")

    def solve(self, cost, allowed):
        """Minimize cost over columns in `allowed`; returns (status, z, zrow).

        `cost` is a sparse dict over columns.  The tableau must hold a
        feasible basis on entry.
        """
        zrow = dict(cost)
        for i, b in enumerate(self.basis):
            f = zrow.get(b)
            if f:
                _subtract(zrow, self.rows[i], f)
        bland = False
        stall = 0
        while True:
            enter = None
            if bland:
                for c in sorted(zrow):
                    if c in allowed and zrow[c] < 0:
                        enter = c
                        break
            else:
                best = _ZERO
                for c, v in zrow.items():
                    if c in allowed and v < 0 and (v < best or (v == best and (enter is None or c < enter))):
                        best = v
                        enter = c
            if enter is None:
                return "optimal", self._objective(cost), zrow
            # ratio test; ties broken by smallest basic column (Bland leave)
            leave = None
            best_ratio = None
            for i, row in enumerate(self.rows):
                a = row.get(enter)
                if a is None or a <= 0:
                    continue
                ratio = self.rhs[i] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and self.basis[i] < self.basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
            if leave is None:
                return "unbounded", None, zrow
            self.pivot(leave, enter)
            f = zrow.get(enter)
            if f:
                _subtract(zrow, self.rows[leave], f)
            if not bland:
                # a zero step leaves the objective unchanged
                if best_ratio == 0:
                    stall += 1
                    if stall >= _STALL_LIMIT:
                        bland = True
                else:
                    stall = 0

    def _objective(self, cost):
        total = _ZERO
        for i, b in enumerate(self.basis):
            f = cost.get(b)
            if f:
                total += f * self.rhs[i]
        return total

    def solution(self, num_vars):
        x = [_ZERO] * num_vars
        for i, b in enumerate(self.basis):
            if b < num_vars:
                x[b] = self.rhs[i]
        return x


def _rounded(values, bound):
    """Floats rounded to the nearest rationals of denominator <= bound."""
    memo = {}
    out = []
    for v in values:
        r = memo.get(v)
        if r is None:
            r = memo[v] = _num(Fraction(v).limit_denominator(bound))
        out.append(r)
    return out


def certificate_problems(lp, cert, kind, value=None, x=None):
    """Exact check of an LP certificate of `kind` against `lp.rows` as
    written, with no solver code: yields (kind, detail, residual) for each
    failed condition, nothing when the certificate holds.

    Both kinds need y_i <= 0 on `le` rows.  A Farkas ray needs A^T y <= 0
    on every column and b.y > 0; a dual needs A^T y <= c on every column
    and b.y == value.  A point `x`, when given with a dual, must also be
    feasible (x >= 0, the rows hold) and attain value == c.x.  The point
    is checked first and lazily, so a caller that stops at the first
    problem pays little for a rounding that is plainly wrong."""
    if cert is None or cert.kind != kind:
        yield (kind, "missing", _ZERO)
        return
    if len(cert.y) != len(lp.rows):
        yield (kind, "length", _num(len(cert.y) - len(lp.rows)))
        return
    if x is not None:
        for c, v in enumerate(x):
            if v < 0:
                yield ("primal", ("nonneg", c), v)
        for i, (coeffs, b, row_kind) in enumerate(lp.rows):
            gap = sum((v * x[c] for c, v in coeffs.items()), _ZERO) - b
            if gap > 0 or (gap and row_kind == "eq"):
                yield ("primal", ("row", i), gap)
        gap = sum((v * x[c] for c, v in lp.objective.items()), _ZERO) - value
        if gap:
            yield ("primal", "c.x", gap)
    aty = [_ZERO] * lp.num_vars
    by = _ZERO
    for i, ((coeffs, b, row_kind), yi) in enumerate(zip(lp.rows, cert.y)):
        if row_kind == "le" and yi > 0:
            yield (kind, ("sign", i), yi)
        if yi:
            by += yi * b
            for c, v in coeffs.items():
                aty[c] += yi * v
    if kind == "farkas":
        for c, s in enumerate(aty):
            if s > 0:
                yield (kind, ("column", c), s)
        if by <= 0:
            yield (kind, "b.y", by)
        return
    for c, s in enumerate(aty):
        slack = lp.objective.get(c, _ZERO) - s
        if slack < 0:
            yield (kind, ("column", c), slack)
    if by != value:
        yield (kind, "b.y", by - value)


def _float_guided_tableau(lp):
    """Ask HiGHS for an answer and return it as a certified LPResult, or
    None when no rounding of it checks and the caller must pivot.

    HiGHS gets `lp.rows` as written: `eq` rows as A_eq, `le` rows as
    A_ub.  For an optimum, its point and its multipliers on both kinds of
    row are rounded together on each rung of `_DENOMINATORS` until they
    form an exact optimal primal-dual pair.  When HiGHS finds the rows
    infeasible, a second call solves the bounded Farkas LP
    max b.y s.t. A^T y <= 0 over the same rows, with -1 <= y <= 0 on `le`
    rows and -1 <= y <= 1 on `eq` rows, and its rounded y must be an
    exact ray.  Both are judged by `certificate_problems` against
    `lp.rows`, so floats never touch a returned number.  (The name
    predates this role; the benchmark's tracer in bench/spans.py wraps it
    under that name.)
    """
    try:
        import numpy as np
        from scipy.optimize import linprog
        from scipy.sparse import csr_matrix
    except ImportError:  # pragma: no cover
        return None
    m = len(lp.rows)
    data, ri, ci = [], [], []
    for i, (coeffs, _, _) in enumerate(lp.rows):
        for c, v in coeffs.items():
            ri.append(i)
            ci.append(c)
            data.append(float(v))
    cols = max(lp.num_vars, 1)   # HiGHS wants a column; a zero one is harmless
    mat = csr_matrix((data, (ri, ci)), shape=(m, cols))
    bvec = np.array([float(b) for _, b, _ in lp.rows])
    eq = np.array([kind == "eq" for _, _, kind in lp.rows], dtype=bool)
    cvec = np.zeros(cols)
    for c, v in lp.objective.items():
        cvec[c] = float(v)
    try:
        res = linprog(cvec, A_ub=mat[~eq], b_ub=bvec[~eq], A_eq=mat[eq],
                      b_eq=bvec[eq], bounds=(0, None), method="highs")
        if res.status == 2:
            ray = linprog(-bvec, A_ub=mat.T, b_ub=np.zeros(cols),
                          bounds=np.column_stack([-np.ones(m), eq]),
                          method="highs")
    except Exception:
        return None
    if res.status == 2:
        if not ray.success:
            return None
        for bound in _DENOMINATORS:
            cert = Certificate("farkas", _rounded(ray.x.tolist(), bound))
            if next(certificate_problems(lp, cert, "farkas"), None) is None:
                return LPResult("infeasible", certificate=cert, path="certified")
        return None
    if not res.success:
        return None
    xs = res.x[:lp.num_vars].tolist()
    ys = np.zeros(m)
    ys[eq] = res.eqlin.marginals
    ys[~eq] = res.ineqlin.marginals
    ys = ys.tolist()
    for bound in _DENOMINATORS:
        x = _rounded(xs, bound)
        value = sum((v * x[c] for c, v in lp.objective.items()), _ZERO)
        cert = Certificate("dual", _rounded(ys, bound))
        if next(certificate_problems(lp, cert, "dual", value, x), None) is None:
            return LPResult("optimal", value, x, certificate=cert, path="certified")
    return None


def _two_phase(lp):
    """Cold two-phase simplex.  It works on the standard form: one slack
    per `le` row, then every row with a negative rhs negated; a ray it
    finds is turned back to the orientation of `lp.rows`."""
    n = total_cols = lp.num_vars
    rows, rhs, flipped = [], [], set()
    for i, (coeffs, b, kind) in enumerate(lp.rows):
        row = dict(coeffs)
        if kind == "le":
            row[total_cols] = _ONE
            total_cols += 1
        if b < 0:
            row = {c: -v for c, v in row.items()}
            b = -b
            flipped.add(i)
        rows.append(row)
        rhs.append(b)
    # initial basis: reuse a slack when its row kept +1 sign, else artificial
    basis = []
    art_cols = []
    phase1_cost = {}
    for i, row in enumerate(rows):
        # each slack lives in exactly one row; usable as basic iff sign kept
        slack = None
        for c in row:
            if c >= n and row[c] == _ONE:
                slack = c
                break
        if slack is not None:
            basis.append(slack)
        else:
            a = total_cols + len(art_cols)
            art_cols.append(a)
            row[a] = _ONE
            basis.append(a)
            phase1_cost[a] = _ONE
    start = list(basis)
    all_cols = total_cols + len(art_cols)
    tab = _Tableau(rows, rhs, basis)

    if art_cols:
        status, z, zrow = tab.solve(phase1_cost, set(range(all_cols)))
        if status != "optimal":
            raise InternalError(f"phase 1 is bounded below, yet simplex said {status!r}")
        if z != 0:
            # the phase-1 duals y = c_B B^-1 are a Farkas ray: the starting
            # basis is an identity, so y_i is the cost of row i's starting
            # column less its reduced cost, negated on a flipped row
            y = [phase1_cost.get(b, _ZERO) - zrow.get(b, _ZERO) for b in start]
            y = [-v if i in flipped else v for i, v in enumerate(y)]
            return LPResult("infeasible", pivots=tab.pivots,
                            certificate=Certificate("farkas", y))
        art_set = set(art_cols)
        # drive leftover artificials out of the basis or drop redundant rows
        drop = []
        for i in range(len(tab.rows)):
            if tab.basis[i] in art_set:
                chosen = None
                for c in sorted(tab.rows[i]):
                    if c not in art_set and tab.rows[i][c] != 0:
                        chosen = c
                        break
                if chosen is None:
                    drop.append(i)
                else:
                    tab.pivot(i, chosen)
        for i in reversed(drop):
            del tab.rows[i]
            del tab.rhs[i]
            del tab.basis[i]
        for row in tab.rows:
            for c in art_set:
                row.pop(c, None)

    cost = lp.objective
    status, _, _ = tab.solve(cost, set(range(total_cols)))
    if status == "unbounded":
        return LPResult("unbounded", pivots=tab.pivots)
    x = tab.solution(n)
    value = sum((v * x[c] for c, v in cost.items()), _ZERO)
    return LPResult("optimal", value, x, pivots=tab.pivots)


def solve_lp(lp: ExactLP) -> LPResult:
    """Solve `lp` exactly; see the module docstring for the paths.  Any
    certificate on the result is written against `lp.rows` as given."""
    res = _float_guided_tableau(lp)
    if res is None:
        res = _two_phase(lp)
    if res.x is not None:
        res.x = [_to_fraction(v) for v in res.x]
        res.value = _to_fraction(res.value)
    if res.certificate is not None:
        res.certificate = Certificate(res.certificate.kind,
                                      [_to_fraction(v) for v in res.certificate.y])
    return res
