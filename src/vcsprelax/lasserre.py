"""Level-k semidefinite relaxations of VCSP instances in Gram form.

The level-k relaxation assigns one vector per (block, assignment) pair,
where the blocks are the instance's constraints plus one null block per
admissible scope set, exactly as in the LP hierarchy.  A unit vector is
added at index 0.  The Gram matrix of these vectors is constrained by
entry ties (pairs with equal combined scope and compatible assignments
share a value), zeros for incompatible or infeasible pairs, unit mass
per block, and positive semidefiniteness; the objective is linear in
the diagonal.

Face lemma.  Every feasible Gram matrix lies in the face
{Q X Q^T : X PSD} of the PSD cone, where Q (N x D, orthonormal columns)
spans the Möbius basis of the partial assignments with nonzero values
(Laurent, Math. Oper. Res. 2003).  For a vector n with n^T M(y) n = 0
on every tie-feasible y, a PSD M(y) has M(y) n = 0.  Such n are the
unit mass of a block (sum_sigma e_(S,sigma) - e_0), each
marginalization identity, two blocks with one scope set, and the unit
vector of a row with a pinned diagonal.  The Möbius matrix C
(`_mobius`) expands each row's indicator by
1[x_v = 0] = 1 - sum_{b != 0} 1[x_v = b] into those assignments;
rows of blocks wider than the level get columns of their own.  Every
such n has n^T C K = 0, where K spans the assignments whose expansion
vanishes (infeasible ones, pinned diagonals).  Reducing an arbitrary
vector modulo these n, by the same expansion, shows that they span
the whole null space of (C K)^T.  So span(Q) = span(C K) is exactly
the complement of the n, and the face holds every feasible M(y)
(Permenter and Parrilo, "Partial facial reduction", Math. Prog.
2018).  Typically D << N: 26 against 217 for Tseitin on K4.

Solving is numerical.  An operator-splitting scheme alternates an exact
projection onto the affine part (through a cached factorization of the
tie system) with a projection onto the face's cone, a D x D eigenvalue
problem: Z = Q P(Q^T V Q) Q^T, P keeping the positive part.  Since Q
is orthonormal this is the Frobenius projection of V onto the face's
cone.  The affine part includes the marginalization identities that
every exactly feasible Gram matrix satisfies; enforcing them directly
does not change the optimum but makes the returned matrices
marginalize to machine precision instead of solver tolerance.  The
returned matrix is judged on the whole cone (`residual_report`).

An infeasible answer carries evidence: an inconsistent tie system, or
a checked certificate.  The relaxation asks for class values y with
A y = a, y >= 0 and M(y) PSD.  Every feasible y lies in the box [0, 1]:
M[0,p] and M[p,p] share a class and M[0,0] = 1, so the 2x2 minor gives
0 <= M[p,p] <= 1, and every other entry is bounded by its two
diagonals.  For any symmetric S, vector t and tie multipliers mu, let
g be the class sums of S plus t and r = g - A^T mu, so that
<S, M(y)> + t.y = g.y = mu.a + r.y whenever A y = a.  By the face
lemma a feasible M(y) = Q X Q^T with X PSD, and tr X = tr M(y) since
Q^T Q = I, so <S, M(y)> = <Q^T S Q, X> >= lambda tr M(y) with
lambda = lambda_min(Q^T S Q).  As tr M(y) <= N, a feasible y gives

    0 <= <S, M(y)> + N max(0, -lambda)
       = mu.a + r.y - t.y + N max(0, -lambda)
      <= mu.a + sum(max(r, 0)) + sum(max(-t, 0))
         + N max(0, -lambda) = beta,

so beta < 0 proves that no y exists (`certificate_bound`).  The
splitting scheme's scaled duals supply S and t >= 0 (Banjac, Goulart,
Stellato and Boyd, "Infeasibility detection in the alternating
direction method of multipliers", JOTA 2019).  They are checked at
iterations 4, 8, 16 and 32, then every 50 iterations; a check only
reads the iterates, so it never changes a converging run.

Objective values and certificate bounds are binary64 floats.  Exactness
guarantees live in the LP module, not here.
"""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import ArityError, CapExceeded, InternalError, NonConvergence
from .model import VCSPInstance
from .sherali_adams import augment_instance
from .values import INF

ROW_CAP = 4000
DEFAULT_EPS = 1e-7
DEFAULT_MAX_ITER = 50000
DEFAULT_DELTA_INF = 1e-5

# iteration schedule for the splitting scheme
_ADAPT_UNTIL = 500
_ADAPT_EVERY = 50
_CHECK_EVERY = 50
_EARLY_CHECKS = (4, 8, 16, 32)  # all below _STALL_START
_STALL_START = 800
_STALL_WINDOW = 300
_STALL_SPREAD = 0.05
_RHO_MIN = 1e-3
_RHO_MAX = 1e3
_GRID_PAIRS = 1 << 20  # pairs per block of the builder's pair grid


class LasModel:
    """Static description of one level-k Gram relaxation.

    Rows of the Gram matrix are indexed by `rows`: index 0 is the unit
    row, the rest are (block, assignment) pairs over feasible
    assignments only.  Entries are partitioned into classes of equal
    value (by combined scope and assignment) plus a structurally-zero
    remainder; `filled` marks the class positions.  The affine tie
    system over class values is `A y = a`.
    """

    def __init__(self, instance, level, subset_mode, aug, designated,
                 rows, row_of, aug_rows, num_classes,
                 pos_r, pos_c, cls, filled, A, a, b, y0,
                 obj_rows, obj_costs):
        self.instance = instance
        self.level = level
        self.subset_mode = subset_mode
        self.aug = aug
        self.designated = designated
        self.rows = rows
        self.row_of = row_of
        self.aug_rows = aug_rows
        self.num_classes = num_classes
        self.pos_r = pos_r
        self.pos_c = pos_c
        self.cls = cls
        self.filled = filled
        self.A = A
        self.a = a
        self.b = b
        self.y0 = y0
        self.obj_rows = obj_rows
        self.obj_costs = obj_costs
        self._fact = None
        self._face = None

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def __repr__(self):
        return (f"LasModel(level={self.level}, rows={self.num_rows}, "
                f"classes={self.num_classes}, ties={self.A.shape[0]})")

    def moment_matrix(self, y):
        """Scatter class values into a full Gram matrix."""
        m = np.zeros((self.num_rows, self.num_rows))
        m[self.pos_r, self.pos_c] = np.asarray(y)[self.cls]
        return m

    def class_sums(self, M):
        """Sum of M over each entry class: <M, M(y)> = class_sums(M).y."""
        return np.bincount(self.cls, weights=M[self.pos_r, self.pos_c],
                           minlength=self.num_classes)

    def class_means(self, M):
        """Average each entry class of M, weighted by class size."""
        nc = np.bincount(self.cls, minlength=self.num_classes)
        return self.class_sums(M) / np.maximum(nc, 1)

    def value_of(self, M) -> float:
        """Objective value of a Gram matrix: cost-weighted diagonal."""
        if len(self.obj_rows) == 0:
            return 0.0
        return float(self.obj_costs @ M[self.obj_rows, self.obj_rows])

    def residual_report(self, M) -> dict:
        """Feasibility diagnostics for an arbitrary Gram matrix."""
        M = np.asarray(M, dtype=float)
        y = self.class_means(M)
        spread = float(np.abs(M[self.pos_r, self.pos_c] - y[self.cls]).max(initial=0.0))
        zero_part = float(np.abs(M[~self.filled]).max(initial=0.0))
        affine = float(np.abs(self.A @ y - self.a).max(initial=0.0))
        negativity = float(max(0.0, -y.min(initial=0.0)))
        min_eig = float(np.linalg.eigvalsh(M)[0])
        return {
            "unit": abs(float(M[0, 0]) - 1.0),
            "class_spread": spread,
            "zero_ties": zero_part,
            "affine": affine,
            "negativity": negativity,
            "min_eig": min_eig,
        }

    def _solver_data(self):
        """Rank-reduced tie system and its cached factorization."""
        if self._fact is None:
            self._fact = _factor_ties(self)
        return self._fact

    def _face_basis(self):
        """Orthonormal N x D basis Q of the face that holds every
        feasible Gram matrix (module docstring), built once."""
        if self._face is None:
            self._face = _face(*_mobius(self))
        return self._face


class _TieFactorization:
    """The rank-reduced tie system A_red y = a_red, with the Cholesky
    factor of A_red diag(1/weights) A_red^T.

    The kept rows are held dense, so no call builds a sparse transpose
    of A_red; the array is the same order of size as the dense QR
    input that `_factor_ties` already forms.
    """

    def __init__(self, A_red, a_red, weights, chol, inconsistent):
        self.A_red = A_red
        self.a_red = a_red
        self.weights = weights
        self.chol = chol
        self.inconsistent = inconsistent

    def _solve(self, rhs):
        # dpotrs flags only bad arguments; a non-finite iterate shows
        # in its output
        x, info = scipy.linalg.lapack.dpotrs(self.chol, rhs)
        if info or not np.isfinite(x).all():
            raise np.linalg.LinAlgError("tie solve on a non-finite iterate")
        return x

    def project(self, v):
        """Projection of v onto {A y = a} in the diag(weights) metric."""
        mu = self._solve(self.A_red @ v - self.a_red)
        return v - (mu @ self.A_red) / self.weights

    def multipliers(self, g):
        """Tie multipliers mu making A_red^T mu closest to g in the
        diag(1/weights) metric (weighted least squares)."""
        return self._solve(self.A_red @ (g / self.weights))


def _factor_ties(model: LasModel) -> _TieFactorization:
    A, a = model.A, model.a
    weights = np.bincount(model.cls, minlength=model.num_classes).astype(float) + 1.0
    touched = np.unique(A.indices) if A.nnz else np.array([0])
    dense_t = A[:, touched].toarray().T
    r_mat, piv = scipy.linalg.qr(dense_t, mode="r", pivoting=True)
    diag = np.abs(np.diag(r_mat))
    tol = max(dense_t.shape) * np.finfo(float).eps * (diag[0] if diag.size else 1.0)
    del dense_t, r_mat
    rank = int((diag > max(tol, 1e-12)).sum())
    keep = np.sort(piv[:rank])
    A_red = A[keep].tocsr()
    gram = (A_red @ scipy.sparse.diags(1.0 / weights) @ A_red.T).toarray()
    chol, _ = scipy.linalg.cho_factor(gram)
    fact = _TieFactorization(A_red.toarray(), a[keep], weights, chol, False)
    # dropped rows must be consequences of the kept ones; if not, the
    # tie system has no solution and neither does the relaxation
    probe = fact.project(np.zeros(model.num_classes))
    fact.inconsistent = bool(np.abs(A @ probe - a).max(initial=0.0) > 1e-7)
    return fact


def _mobius(model: LasModel):
    """The Möbius matrix C (N x L) and its relation rows R (over the
    same L columns), both dense.

    The first columns are the live partial assignments rho with nonzero
    values on a designated scope set, the unit row's empty one first:
    those whose own Gram row, in the designated block, has an unpinned
    diagonal.  Row (i, sigma) of a block with at most `level` variables
    expands every 1[x_v = 0] of sigma as 1 - sum_{b != 0} 1[x_v = b];
    its entry on rho = sigma's nonzero part plus (T', b) is
    (-1)^|T'|.  Each other row gets a column of its own, shared by the
    rows with its diagonal class (blocks with one scope set) and absent
    where that class is pinned.  R holds the same expansion of every
    infeasible assignment of a block with at most `level` variables and
    of every such Gram row with a pinned diagonal: each must vanish on
    a feasible Gram matrix.  Terms on columns that are not live are
    dropped, since those assignments vanish too.
    """
    d, level, N = model.instance.domain_size, model.level, model.num_rows
    for X in model.designated:
        if len(X) > 1 and any(X[:j] + X[j + 1:] not in model.designated
                              for j in range(len(X))):
            raise InternalError(
                f"designated scope set {X} lacks a designated subset")
    on_diag = model.pos_r == model.pos_c
    diag_cls = np.full(N, -1, dtype=np.int64)
    diag_cls[model.pos_r[on_diag]] = model.cls[on_diag]
    var, val, block, vrow = _virtual_assignments(model.aug, model.aug_rows, d)
    size = (var >= 0).sum(axis=1)
    live = vrow >= 0
    live[live] = diag_cls[vrow[live]] >= 0
    words = max(1, -(-model.instance.num_vars * d // 64))
    key_type = np.dtype(f"V{8 * words}")

    def keys(bits):
        return np.ascontiguousarray(_onehot(bits, words)).view(
            key_type).ravel()

    own = np.zeros(len(model.aug) + 1, dtype=bool)  # block -1: the unit row
    own[list(model.designated.values())] = True
    own[-1] = True
    col_rows = np.flatnonzero(
        own[block] & live & ((val > 0) | (var < 0)).all(axis=1))
    col_keys = keys(np.where(var < 0, -1, var * d + val)[col_rows])
    order = np.argsort(col_keys)
    col_keys = col_keys[order]

    # one term per value of the free (zero-valued) variables, 0 leaving
    # the variable out; the sign counts the ones put in
    narrow = size <= level
    relation = narrow & ~live
    items = np.flatnonzero(narrow & ((vrow >= 0) | relation))
    width = min(level, var.shape[1])
    choice = np.array(list(itertools.product(range(d), repeat=width)),
                      dtype=np.int64).reshape(d ** width, width)
    v, s = var[items, None, :width], val[items, None, :width]
    free = (s == 0) & (v >= 0)
    at, term = np.nonzero((free | (choice == 0)).all(axis=2))
    full = np.where(free, choice, s)[at, term]
    pos = _find(col_keys, keys(np.where(full > 0, v[at, 0] * d + full, -1)))
    hit = pos >= 0
    at, term = at[hit], term[hit]
    flips = (free[at, 0] & (choice[term] > 0)).sum(axis=1)
    sign = 1.0 - 2.0 * (flips % 2)
    item, col = items[at], order[pos[hit]]

    wide = vrow[~narrow & live]
    wide_cls, wide_col = np.unique(diag_cls[wide], return_inverse=True)
    C = np.zeros((N, len(col_rows) + len(wide_cls)))
    in_c = vrow[item] >= 0
    C[vrow[item[in_c]], col[in_c]] = sign[in_c]
    C[wide, len(col_rows) + wide_col] = 1.0
    in_r = relation[item]
    R = np.zeros((int(relation.sum()), C.shape[1]))
    R[(np.cumsum(relation) - 1)[item[in_r]], col[in_r]] = sign[in_r]
    return C, R


def _face(C, R):
    """Orthonormal basis Q of span(C K), K a basis of the null space of
    R.  Only the columns that R touches are mixed: their null space
    comes from an SVD of R on those columns, and the Cholesky factor of
    (C K)^T (C K) orthonormalizes, so no factorization sees a matrix
    with N rows."""
    touched = R.any(axis=0)
    B = C[:, ~touched]
    if touched.any():
        K = scipy.linalg.null_space(R[:, touched])
        B = np.hstack([B, C[:, touched] @ K])
    chol = np.linalg.cholesky(B.T @ B)
    return scipy.linalg.solve_triangular(chol, B.T, lower=True).T


class GramSolution:
    """A converged Gram matrix with objective and diagnostics.

    `checks` counts the certificate checks the solver ran before it
    converged (none of them certified).  `rho_schedule` lists the
    solver's (iteration, rho) pairs: (0, initial rho), then one pair per
    change (empty for a transported solution).
    """

    status = "solved"
    stop = "converged"

    def __init__(self, M, objective, iterations, eps, residuals, checks=0,
                 model=None, rho_schedule=(), face_dim=None):
        self.M = M
        self.objective = objective
        self.iterations = iterations
        self.eps = eps
        self.residuals = residuals
        self.checks = checks
        self.model = model
        self.rho_schedule = list(rho_schedule)
        self.face_dim = face_dim

    def within_tolerance(self, residuals=None) -> bool:
        """The residual-acceptance rule: the unit, class-spread, zero-tie,
        affine and negativity residuals are at most 10*eps and no
        eigenvalue lies below -10*eps.  Judges `residuals` (by default
        the solution's own) against this solution's eps."""
        r = self.residuals if residuals is None else residuals
        bound = 10 * self.eps
        return (max(r[k] for k in ("unit", "class_spread", "zero_ties",
                                   "affine", "negativity")) <= bound
                and r["min_eig"] >= -bound)

    def __repr__(self):
        return (f"GramSolution(objective={self.objective:.6g}, "
                f"iterations={self.iterations})")


class NumericallyInfeasible:
    """Returned when the relaxation has no feasible point, with evidence.

    `stop` says what the evidence is: `tie-system` when the tie system
    itself is inconsistent (decided before iterating), `certificate`
    when a candidate (S, t, mu) from the scaled duals passed
    `certificate_bound`.  `bound` is that candidate's beta divided by
    its scale, below -delta_inf; it is -inf for the tie system, whose
    certificate uses tie rows alone (S = 0, scale 0).  `displacement`
    is the distance between the two projection outputs at the stop
    (infinity for the tie system).  `checks` counts the certificate
    checks run, the certifying one included (0 for the tie system).
    `rho_schedule` lists (iteration, rho) pairs as on `GramSolution`.
    """

    status = "infeasible"

    def __init__(self, iterations, displacement, eps, stop, bound, checks,
                 rho_schedule, face_dim):
        self.iterations = iterations
        self.displacement = displacement
        self.eps = eps
        self.stop = stop
        self.bound = bound
        self.checks = checks
        self.rho_schedule = list(rho_schedule)
        self.face_dim = face_dim

    def __repr__(self):
        return (f"NumericallyInfeasible(stop={self.stop!r}, "
                f"bound={self.bound:.3g}, iterations={self.iterations}, "
                f"displacement={self.displacement:.3g})")


def build_las(
    instance: VCSPInstance,
    level: int,
    subset_mode: str = "full",
    row_cap: int = ROW_CAP,
    allow_low_level: bool = False,
) -> LasModel:
    """Assemble the level-k Gram relaxation of an instance.

    Raises ArityError when the level is below the largest constraint
    scope unless allow_low_level is set; the relaxation is still sound
    below that level, but blocks wider than the level are tied to the
    rest only through the cone, not through marginalization.

    Entry classes come from the virtual rows: the unit row, then every
    assignment of every block, infeasible ones included.  Each is a
    one-hot key (bit v*d + value for each variable it fixes, in
    ceil(n*d/64) uint64 words) with a mask of its variables.  Two are
    compatible iff the union of their keys has as many bits as the
    union of their masks; that union keys the combined assignment, and
    equal keys make a class.  The upper-triangular pair grid is formed
    in row-major order, in blocks of first rows of at most _GRID_PAIRS
    pairs.  Classes are numbered by first pair; one with a pair on an
    infeasible assignment is pinned to zero and dropped.  Tie rows and
    the objective find classes by binary search on the sorted keys.
    """
    if level < 1:
        raise ValueError("level must be at least 1")
    d = instance.domain_size
    n = instance.num_vars
    max_scope = max((len(c.scope_set) for c in instance.constraints), default=0)
    if max_scope > level and not allow_low_level:
        raise ArityError(
            f"level {level} is below the widest constraint scope ({max_scope})")
    aug, designated = augment_instance(instance, level, subset_mode)

    rows = [None]
    row_of = {}
    aug_rows = []
    obj_rows = []
    obj_costs = []
    for i, entry in enumerate(aug):
        block = {}
        for sigma, cost in entry.assignments(d):
            row_of[(i, sigma)] = len(rows)
            block[sigma] = len(rows)
            rows.append((i, sigma))
            if cost:
                obj_rows.append(len(rows) - 1)
                obj_costs.append(float(cost))
        aug_rows.append(block)
    if len(rows) > row_cap:
        raise CapExceeded(f"Gram dimension {len(rows)} exceeds cap {row_cap}")
    obj_rows = np.array(obj_rows, dtype=np.int64)
    obj_costs = np.array(obj_costs)

    hot, mask, vrow = _virtual_rows(aug, aug_rows, n, d)
    words = hot.shape[1]
    first, second, keys = _pair_keys(hot, mask)

    # classes are the runs of equal keys after a stable sort, so a run
    # starts at its first pair; the sort goes by the little-endian key
    # bytes that can be nonzero, first byte first (radix sorts, and the
    # byte order of memcmp, which the searches below use)
    keys = keys.astype("<u8", copy=False)
    order = np.lexsort(keys.view(np.uint8)[:, :max(1, -(-n * d // 8))].T[::-1])
    keys = keys[order]
    head = np.ones(len(keys), dtype=bool)
    head[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    run = np.cumsum(head) - 1
    pinned = np.zeros(run[-1] + 1, dtype=bool)
    first, second = vrow[first], vrow[second]  # Gram rows, -1 infeasible
    pinned[run[((first < 0) | (second < 0))[order]]] = True
    kept = np.flatnonzero(~pinned)
    kept = kept[np.argsort(order[head][kept])]  # by first pair
    num_classes = len(kept)
    run_id = np.full(len(pinned), -1, dtype=np.int64)
    run_id[kept] = np.arange(num_classes)
    y0 = np.array([float(d) ** -k for k in range(n + 1)])[
        np.bitwise_count(keys[head][kept]).sum(axis=1)]

    pair_id = np.empty(len(order), dtype=np.int64)
    pair_id[order] = run_id[run]
    live = pair_id >= 0
    # int32 halves the three largest arrays; flat indices are int64
    R, Cc, K = (x[live].astype(np.int32) for x in (first, second, pair_id))
    off = R != Cc
    pos_r = np.concatenate([R, Cc[off]])
    pos_c = np.concatenate([Cc, R[off]])
    cls = np.concatenate([K, K[off]])

    filled = np.zeros((len(rows), len(rows)), dtype=bool)
    filled[pos_r, pos_c] = True

    # kept classes in key order, searched as opaque byte strings
    class_keys = keys[head][~pinned]
    class_ids = run_id[~pinned]
    key_type = np.dtype(f"V{8 * words}")

    def class_of(q):
        """Class of each key row of q, -1 if absent or pinned."""
        pos = _find(class_keys.view(key_type).ravel(),
                    np.ascontiguousarray(q, "<u8").view(key_type).ravel())
        return np.where(pos >= 0, class_ids[pos], -1)

    # tie rows: unit mass at the top, then one marginalization row per
    # designated scope set, eliminated variable and outer assignment,
    # +1 on the class of each extension and -1 on the outer
    # assignment's; pinned classes contribute a fixed zero and are
    # omitted.  Each row asks for d + 1 keys, bit -1 for the outer one.
    width = max(map(len, designated), default=0)
    queries = [np.zeros((0, width), dtype=np.int64)]
    for size, group in itertools.groupby(
            sorted(designated, key=lambda t: (len(t), t)), key=len):
        X = np.array(list(group), dtype=np.int64)
        rest = np.stack([np.delete(X, v, axis=1) for v in range(size)], 1)
        outer = np.array(list(itertools.product(range(d), repeat=size - 1)),
                         dtype=np.int64).reshape(d ** (size - 1), size - 1)
        bits = np.full((len(X), size, len(outer), d + 1, width), -1)
        bits[..., :size - 1] = rest[:, :, None, None] * d + outer[:, None]
        bits[..., :d, size - 1] = X[:, :, None, None] * d + np.arange(d)
        queries.append(bits.reshape(-1, width))
    terms = class_of(_onehot(np.concatenate(queries), words)).reshape(-1, d + 1)
    terms = terms[(terms >= 0).any(axis=1)]
    line, col = np.nonzero(terms >= 0)
    A = scipy.sparse.csr_matrix(
        (np.concatenate([[1.0], np.where(col < d, 1.0, -1.0)]),
         (np.concatenate([[0], line + 1]),
          np.concatenate([[0], terms[line, col]]))),
        shape=(len(terms) + 1, num_classes))
    a = np.zeros(len(terms) + 1)
    a[0] = 1.0

    # Gram rows are the feasible virtual rows, in order
    obj_ids = class_of(hot[np.flatnonzero(vrow >= 0)[obj_rows]])
    has = obj_ids >= 0
    b = np.zeros(num_classes)
    np.add.at(b, obj_ids[has], obj_costs[has])

    return LasModel(instance, level, subset_mode, aug, designated,
                    rows, row_of, aug_rows, num_classes,
                    pos_r, pos_c, cls, filled, A, a, b, y0,
                    obj_rows, obj_costs)


def _onehot(bits, words):
    """Each row of bit positions as a row of `words` uint64 words with
    those bits set.  Positions are distinct within a row; -1 sets no
    bit (it lands in a spare last word, which is dropped)."""
    keys = np.zeros((len(bits), words + 1), dtype=np.uint64)
    at = np.arange(len(bits))
    for col in bits.T:
        keys[at, col >> 6] |= np.uint64(1) << (col & 63).astype(np.uint64)
    return keys[:, :words]


def _find(table, q):
    """Position of each key of q in the sorted key array table (both
    void views of one-hot keys), -1 where absent."""
    pos = np.searchsorted(table, q)
    hit = pos < len(table)
    hit[hit] = table[pos[hit]] == q[hit]
    return np.where(hit, pos, -1)


def _virtual_assignments(aug, aug_rows, d):
    """The virtual rows, the unit row and then every assignment of every
    block in product order: their variables (left-aligned, -1 padded),
    values, blocks (-1 for the unit row) and Gram rows (-1 for an
    infeasible assignment)."""
    sizes = [d ** len(e.vars) for e in aug]
    nv = 1 + sum(sizes)
    var = np.full((nv, max((len(e.vars) for e in aug), default=0)), -1)
    val = np.zeros_like(var)
    vrow = [0]
    for i, entry in enumerate(aug):
        m = len(entry.vars)
        sigmas = list(itertools.product(range(d), repeat=m))
        at = len(vrow)
        var[at:at + len(sigmas), :m] = entry.vars
        val[at:at + len(sigmas), :m] = np.array(sigmas).reshape(len(sigmas), m)
        vrow.extend(aug_rows[i].get(s, -1) for s in sigmas)
    block = np.repeat(np.arange(-1, len(aug)), [1] + sizes)
    return var, val, block, np.array(vrow, dtype=np.int64)


def _virtual_rows(aug, aug_rows, n, d):
    """One-hot keys and variable masks of the virtual rows
    (`_virtual_assignments`), with their Gram rows."""
    var, val, _, vrow = _virtual_assignments(aug, aug_rows, d)
    hot = _onehot(np.where(var < 0, -1, var * d + val), max(1, -(-n * d // 64)))
    mask = _onehot(var, max(1, -(-n // 64)))
    return hot, mask, vrow


def _pair_keys(hot, mask):
    """The compatible pairs (a, b), a <= b, of virtual rows in row-major
    order, and the one-hot key of each pair's combined assignment."""
    nv = len(hot)
    step = max(1, _GRID_PAIRS // nv)
    firsts, seconds, keys = [], [], []
    for a0 in range(0, nv, step):
        # rows a0 .. a0 + step - 1 against columns a0 .. nv - 1
        union = hot[a0:a0 + step, None] | hot[None, a0:]
        ok = (np.bitwise_count(union).sum(axis=2, dtype=np.uint16)
              == np.bitwise_count(mask[a0:a0 + step, None]
                                  | mask[None, a0:]).sum(axis=2, dtype=np.uint16))
        ok &= np.arange(nv - a0) >= np.arange(len(ok))[:, None]
        at = np.flatnonzero(ok)
        first, second = np.divmod(at, nv - a0)
        firsts.append(first + a0)
        seconds.append(second + a0)
        keys.append(union.reshape(-1, union.shape[2]).take(at, axis=0))
    return np.concatenate(firsts), np.concatenate(seconds), np.concatenate(keys)


def solve_sdp(
    model: LasModel,
    eps: float = DEFAULT_EPS,
    max_iter: int = DEFAULT_MAX_ITER,
    delta_inf: float = DEFAULT_DELTA_INF,
    rho: float = 1.0,
):
    """Run the splitting scheme on a built model.

    Returns a GramSolution on convergence, or NumericallyInfeasible
    with evidence: an inconsistent tie system, or an infeasibility
    certificate.  Each iteration projects onto the face's cone through
    one D x D eigendecomposition (module docstring); the face basis is
    built on the first solve whose tie system is consistent, and both
    results record D in `face_dim` (None for a tie-system stop).  At
    iterations 4, 8, 16 and 32, then every 50, the scaled duals give
    the candidate S = -U, t = -u (U is M(y) + U before the update less
    its projection onto the face's cone, u = min(y + u, 0)), mu is the
    weighted least-squares fit of the class sums, and the run stops once
    `certificate_bound` gives beta < -delta_inf * scale (see the module
    docstring for why beta < 0 rules out every feasible point).  Both
    results count the checks run in `checks`.  Raises NonConvergence
    when the primal residual, looked at every 50 iterations, stalls
    above delta_inf without a certificate, after max_iter undecided
    iterations, when a factorization or eigendecomposition fails, or
    when an iterate turns non-finite (the tie solve refuses it).
    Results record the rho schedule in `rho_schedule`.  Deterministic
    for fixed inputs.
    """
    try:
        return _split(model, eps, max_iter, delta_inf, rho)
    except np.linalg.LinAlgError as e:
        raise NonConvergence(f"linear algebra failure: {e}") from e


def _split(model, eps, max_iter, delta_inf, rho):
    fact = model._solver_data()
    rho_schedule = [(0, rho)]
    if fact.inconsistent:
        return NumericallyInfeasible(
            iterations=0, displacement=float("inf"), eps=eps,
            stop="tie-system", bound=float("-inf"), checks=0,
            rho_schedule=rho_schedule, face_dim=None)

    Q = model._face_basis()
    N, face_dim = Q.shape
    flat = model.pos_r.astype(np.int64) * N + model.pos_c
    cls = model.cls
    nc_w = np.bincount(cls, minlength=model.num_classes).astype(float)
    b = model.b
    y = model.y0.copy()
    w = y.copy()
    u = np.zeros_like(y)
    M_y = np.zeros((N, N))
    M_y.reshape(-1)[flat] = y[cls]
    Z = M_y.copy()
    U = np.zeros((N, N))
    hist = deque(maxlen=_STALL_WINDOW)
    r = s = float("inf")
    checks = 0

    for it in range(1, max_iter + 1):
        g = np.bincount(cls, weights=(Z - U).reshape(-1)[flat],
                        minlength=model.num_classes)
        v = (g + (w - u) - b / rho) / (nc_w + 1.0)
        y = fact.project(v)
        M_y.reshape(-1)[flat] = y[cls]

        # projection onto the face's cone {Q X Q^T : X PSD}
        evals, evecs = np.linalg.eigh(Q.T @ ((M_y + U) @ Q))
        take = evals > 0.0
        if take.any():
            B = Q @ evecs[:, take]
            Zn = (B * evals[take]) @ B.T
            Zn += Zn.T
            Zn *= 0.5
        else:
            Zn = np.zeros_like(M_y)
        wn = np.maximum(y + u, 0.0)

        R = M_y - Zn
        U += R
        u += y - wn
        r = max(float(np.abs(R).max()), float(np.abs(y - wn).max()))
        s = rho * max(float(np.abs(Zn - Z).max()),
                      float(np.abs(wn - w).max(initial=0.0)))
        Z = Zn
        w = wn
        hist.append(r)

        if r <= eps and s <= eps:
            return _polish(model, fact, Z, it, eps, checks,
                           {"primal": r, "dual": s, "rho": rho}, rho_schedule,
                           face_dim)
        if it % _CHECK_EVERY == 0 or it in _EARLY_CHECKS:
            S, t = -U, -u
            mu = fact.multipliers(model.class_sums(S) + t)
            beta, scale = certificate_bound(model, S, t, mu)
            checks += 1
            if beta < -delta_inf * scale:
                return NumericallyInfeasible(
                    iterations=it, displacement=r, eps=eps,
                    stop="certificate", bound=beta / scale, checks=checks,
                    rho_schedule=rho_schedule, face_dim=face_dim)
            if it >= _STALL_START and len(hist) == _STALL_WINDOW:
                lo, hi = min(hist), max(hist)
                if lo > delta_inf and hi - lo <= _STALL_SPREAD * hi:
                    raise NonConvergence(
                        f"stalled without certificate at iteration {it} "
                        f"(displacement {lo:.2e}, bound {beta / scale:.2e})")
        if it <= _ADAPT_UNTIL and it % _ADAPT_EVERY == 0:
            if r > 10.0 * s and rho < _RHO_MAX:
                rho *= 2.0
                U *= 0.5
                u *= 0.5
            elif s > 10.0 * r and rho > _RHO_MIN:
                rho *= 0.5
                U *= 2.0
                u *= 2.0
            if rho != rho_schedule[-1][1]:
                rho_schedule.append((it, rho))

    raise NonConvergence(
        f"budget exhausted: undecided after {max_iter} iterations "
        f"(primal {r:.2e}, dual {s:.2e})")


def certificate_bound(model: LasModel, S, t, mu):
    """Judge a candidate infeasibility certificate (S, t, mu).

    S is a symmetric N x N matrix, t one weight per class, mu one
    multiplier per kept tie row.  With Q the model's face basis
    (N x D, orthonormal) and lambda the eigenvalues of the D x D
    matrix Q^T S Q, returns (beta, scale) with

        beta  = mu.a + sum(max(r, 0)) + sum(max(-t, 0))
                + N max(0, -lambda_min),
        r     = class_sums(S) + t - A^T mu,
        scale = N max|lambda| + sum|t|.

    Every feasible y gives beta >= 0, whatever the candidate: its Gram
    matrix lies in the face (module docstring), so only S restricted
    to the face is judged.  beta < 0 proves the relaxation infeasible.
    scale bounds |<S, M(y)> + t.y| over the box, so beta / scale is the
    margin of the proof in units of the terms it adds up; the solver
    asks for beta / scale < -delta_inf, far above the rounding error
    of these float sums (about N times machine epsilon).
    """
    fact = model._solver_data()
    Q = model._face_basis()
    r = model.class_sums(S) + t - mu @ fact.A_red
    evals = np.linalg.eigvalsh(Q.T @ (S @ Q))
    N = model.num_rows
    beta = (float(mu @ fact.a_red) + float(np.maximum(r, 0.0).sum())
            + float(np.maximum(-t, 0.0).sum())
            + N * max(0.0, -float(evals.min(initial=0.0))))
    scale = N * float(np.abs(evals).max(initial=0.0)) + float(np.abs(t).sum())
    return beta, scale


def _polish(model, fact, Z, iterations, eps, checks, solver_stats,
            rho_schedule, face_dim):
    # one exact affine projection of the converged iterate; ties and
    # marginalization then hold to rounding error, the cone to solver
    # tolerance
    gz = model.class_means(Z)
    y_pol = fact.project(gz)
    M = model.moment_matrix(y_pol)
    residuals = dict(solver_stats)
    residuals.update(model.residual_report(M))
    residuals["polish_gap"] = float(np.abs(M - Z).max())
    return GramSolution(M, model.value_of(M), iterations, eps, residuals,
                        checks, model=model, rho_schedule=rho_schedule,
                        face_dim=face_dim)


def sdp_opt(
    instance: VCSPInstance,
    level: int,
    subset_mode: str = "full",
    eps: float = DEFAULT_EPS,
    max_iter: int = DEFAULT_MAX_ITER,
    allow_low_level: bool = False,
    row_cap: int = ROW_CAP,
):
    """Optimum of the level-k Gram relaxation: a float, or INF when
    numerically infeasible."""
    model = build_las(instance, level, subset_mode,
                      row_cap=row_cap, allow_low_level=allow_low_level)
    result = solve_sdp(model, eps=eps, max_iter=max_iter)
    if isinstance(result, NumericallyInfeasible):
        return INF
    return result.objective


class L7Report:
    def __init__(self, ok, max_residual, checks, worst):
        self.ok = ok
        self.max_residual = max_residual
        self.checks = checks
        self.worst = worst

    def __repr__(self):
        return (f"L7Report(ok={self.ok}, max_residual={self.max_residual:.3g}, "
                f"checks={self.checks})")


def verify_L7(solution, model: LasModel, eps: float = 1e-6) -> L7Report:
    """Check the marginalization identities on a Gram matrix.

    For every block whose scope set fits within the level, summing the
    block's entries over all extensions of a narrower block's
    assignment must reproduce that narrower diagonal entry (the unit
    entry for the empty scope).  Accepts a GramSolution or a raw
    matrix.  Blocks wider than the level carry no such guarantee and
    are skipped.
    """
    M = solution.M if hasattr(solution, "M") else np.asarray(solution)
    worst = None
    max_res = 0.0
    checks = 0
    for i, ei in enumerate(model.aug):
        if len(ei.vars) > model.level:
            continue
        rows_i = model.aug_rows[i]
        if not rows_i:
            continue
        idx_i = {v: t for t, v in enumerate(ei.vars)}
        set_i = set(ei.vars)
        targets = [(-1, ())]
        targets.extend(
            (j, ej.vars) for j, ej in enumerate(model.aug)
            if j != i and set(ej.vars) <= set_i)
        for j, vars_j in targets:
            pos = [idx_i[v] for v in vars_j]
            groups = {}
            for tau, ridx in rows_i.items():
                key = tuple(tau[p] for p in pos)
                groups.setdefault(key, []).append(ridx)
            for sigma in itertools.product(range(model.instance.domain_size),
                                           repeat=len(vars_j)):
                members = groups.get(sigma, [])
                total = float(M[np.ix_(members, members)].sum()) if members else 0.0
                if j < 0:
                    target = float(M[0, 0])
                else:
                    ridx = model.aug_rows[j].get(sigma)
                    target = float(M[ridx, ridx]) if ridx is not None else 0.0
                res = abs(total - target)
                checks += 1
                if res > max_res:
                    max_res = res
                    worst = (i, j, sigma)
    return L7Report(max_res <= eps, max_res, checks, worst)


def judge_gap(solution: GramSolution, model: LasModel, opt: float):
    """The one acceptance rule for a Lasserre gap on a converged run.

    opt is the instance's optimum as a float (inf when unsatisfiable).
    The objective must lie below it by more than its tolerance,
    10 eps max(1, sum |c|) over the cost rows, since the acceptance
    rule lets each diagonal entry sit 10 eps from a feasible one.  The
    gap then stands only if the matrix passes a re-verification: fresh
    residuals pass `within_tolerance`, and `verify_L7` passes at
    10 eps.  Returns (verdict, fresh residuals, L7Report), the verdict
    one of "gap", "no-gap" and "inconclusive"; the last two are None
    for "no-gap", which runs no re-verification.
    """
    tol = 10 * solution.eps * max(1.0, float(np.abs(model.obj_costs).sum()))
    if not solution.objective < opt - tol:
        return "no-gap", None, None
    fresh = model.residual_report(solution.M)
    l7 = verify_L7(solution, model, eps=10 * solution.eps)
    ok = solution.within_tolerance(fresh) and l7.ok
    return ("gap" if ok else "inconclusive"), fresh, l7
