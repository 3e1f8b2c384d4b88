"""Seeded generators for the benchmark's inputs, as oracle.Problem objects.

Every generator takes a random.Random and builds tables and scopes with
the benchmark's own code; the program only ever sees the result.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from oracle import Problem, Table, enum_opt

F = Fraction


def parity_table(arity, rhs):
    return Table.from_fn(f"sum{arity}_{rhs}", arity, 2,
                         lambda t: F(0) if sum(t) % 2 == rhs else None)


def soft_parity_table(arity, rhs, weight):
    return Table.from_fn(f"soft{arity}_{rhs}_{weight}", arity, 2,
                         lambda t: F(0) if sum(t) % 2 == rhs else F(weight))


# the submodular language of the acceptance suite: f(min)+f(max) <= f(x)+f(y)
IMP = Table("imp", 2, 2, {(0, 0): F(0), (0, 1): F(0), (1, 0): F(1), (1, 1): F(0)})
PAY0 = Table("pay0", 1, 2, {(0,): F(1), (1,): F(0)})
PAY1 = Table("pay1", 1, 2, {(0,): F(0), (1,): F(1)})


def regular_graph(rng, vertices, degree):
    """Simple degree-regular graph, pairing model with rejection."""
    stubs = [v for v in range(vertices) for _ in range(degree)]
    while True:
        rng.shuffle(stubs)
        edges = [tuple(sorted(stubs[i:i + 2])) for i in range(0, len(stubs), 2)]
        if all(u != v for u, v in edges) and len(set(edges)) == len(edges):
            return sorted(edges)


def tseitin(rng, vertices):
    """Parity of the incident edges at each vertex; one vertex charged 1,
    so the total charge is odd and the system unsatisfiable."""
    edges = regular_graph(rng, vertices, 3)
    charged = rng.randrange(vertices)
    cons = []
    for v in range(vertices):
        inc = tuple(e for e, uv in enumerate(edges) if v in uv)
        cons.append((inc, parity_table(len(inc), int(v == charged))))
    return Problem(len(edges), 2, cons)


def kxor(rng, n, m):
    """m random 3-variable parity equations on n variables."""
    cons = []
    for _ in range(m):
        scope = tuple(rng.sample(range(n), 3))
        cons.append((scope, parity_table(3, rng.randrange(2))))
    return Problem(n, 2, cons)


def soft_kxor(rng, n, m):
    """Max-3-XOR with weights 1 or 2: valued parity, no bounded width."""
    cons = []
    for _ in range(m):
        scope = tuple(rng.sample(range(n), 3))
        cons.append((scope, soft_parity_table(3, rng.randrange(2),
                                              rng.choice((1, 2)))))
    return Problem(n, 2, cons)


def submodular(rng, n):
    """The acceptance suite's submodular generator, redrawn until the
    optimum is nonzero (most of its draws have optimum 0)."""
    while True:
        cons = []
        for _ in range(n + rng.randint(0, 4)):
            if rng.random() < 0.6:
                cons.append((tuple(rng.sample(range(n), 2)), IMP))
            else:
                cons.append(((rng.randrange(n),), rng.choice((PAY0, PAY1))))
        p = Problem(n, 2, cons)
        if enum_opt(p) != 0:
            return p


def small_valued(rng, tag):
    """A random valued Boolean instance on 2..4 variables, unary and
    binary tables with rational costs and some infinite entries."""
    n = rng.randint(2, 4)
    tables = []
    for j in range(rng.randint(1, 3)):
        arity = rng.choice((1, 2))
        costs = {}
        for t in itertools.product(range(2), repeat=arity):
            costs[t] = (None if rng.random() < 0.25 else
                        F(rng.randint(0, 6), rng.choice((1, 2, 3))))
        if all(v is None for v in costs.values()):
            costs[(0,) * arity] = F(1)
        tables.append(Table(f"{tag}r{j}", arity, 2, costs))
    cons = []
    for _ in range(rng.randint(1, 4)):
        t = rng.choice(tables)
        cons.append((tuple(rng.randrange(n) for _ in range(t.arity)), t))
    return Problem(n, 2, cons)


def relabel(rng, problem, tag, swap_labels=True):
    """An isomorphic copy: variables permuted, constraints shuffled and,
    with swap_labels, the labels 0 and 1 swapped on a random subset of
    the variables (tables are rewritten to match and renamed by tag).
    Optima are unchanged, and so is every relaxation value."""
    perm = list(range(problem.n))
    rng.shuffle(perm)
    flip = [swap_labels and rng.random() < 0.5 for _ in range(problem.n)]
    tables = {}
    cons = []
    for scope, t in problem.cons:
        mask = tuple(int(flip[v]) for v in scope)
        key = (t.name, mask)
        if key not in tables:
            name = (f"{tag}{len(tables)}" if swap_labels else t.name)
            tables[key] = Table(name, t.arity, t.d, {
                tuple(x ^ m for x, m in zip(k, mask)): v
                for k, v in t.costs.items()})
        cons.append((tuple(perm[v] for v in scope), tables[key]))
    rng.shuffle(cons)
    return Problem(problem.n, problem.d, cons)


# ------------------------------------------------- planted languages

def _relabel(table, swap, name):
    return Table(name, table.arity, table.d, {
        tuple(1 - x for x in t) if swap else t: v
        for t, v in table.costs.items()})


def planted_language(rng, kind):
    """A language with a known bounded-width verdict up to arity 4.

    "sub" is submodular (satisfied up to 4); "parity" holds the unary
    constants and both ternary parities (odd-arity sums mod 2 are its
    weak near-unanimity polymorphisms, so 4 is the first violated
    arity).  Both verdicts are invariant under swapping the labels,
    renaming and reordering the relations, which the seed decides.
    """
    if kind == "sub":
        base = [IMP, PAY0, PAY1]
        verdict = "satisfied up to 4"
    else:
        base = [parity_table(1, 0), parity_table(1, 1),
                parity_table(3, 0), parity_table(3, 1)]
        verdict = "violated at 4"
    swap = rng.random() < 0.5
    tables = [_relabel(t, swap, f"{kind}{rng.randrange(10**6)}_{k}")
              for k, t in enumerate(base)]
    rng.shuffle(tables)
    lines = ["domain 2"]
    for t in tables:
        lines += t.text()
    return "\n".join(lines) + "\n", verdict


# ---------------------------------------------- reduction inputs

def _t(name, arity, d, entries, default=None):
    costs = {t: default for t in itertools.product(range(d), repeat=arity)}
    costs.update(entries)
    return Table(name, arity, d, costs)


SOFT = _t("soft", 1, 2, {(0,): F(2), (1,): F(1, 3)})
CHAIN = _t("chain", 2, 2, {(1, 0): F(1)}, F(0))
EQ = _t("eq", 2, 2, {(0, 0): F(0), (1, 1): F(0)})
XOR = _t("xor", 2, 2, {(0, 1): F(0), (1, 0): F(0)})
SOFTOPT = _t("softopt", 1, 2, {(1,): F(0)})
PHIF = _t("phif", 1, 2, {(0,): F(3, 2)})
PHIFEAS = _t("phifeas", 1, 2, {(0,): F(0)})
HOST = [_t("u01", 1, 3, {(0,): F(0), (1,): F(0)}),
        _t("eqp", 2, 3, {(0, 0): F(0), (1, 1): F(0)}),
        _t("xorp", 2, 3, {(0, 1): F(0), (1, 0): F(0)}),
        _t("softp", 1, 3, {(0,): F(2), (1,): F(1, 3)})]

# kind -> (language tables, forced table, table pool, cover isolated vars);
# the forced table makes each source use the reduction's own relation
REDUCTIONS = {
    "express": ([IMP, SOFT, EQ, CHAIN], CHAIN, [CHAIN, SOFT, IMP], False),
    "eq": ([IMP, SOFT, EQ, CHAIN], EQ, [EQ, SOFT, IMP], False),
    "interp": ([XOR, SOFT], XOR, [XOR, SOFT], True),
    "opt": ([SOFT, SOFTOPT, PHIF, PHIFEAS, IMP], SOFTOPT, [SOFT, IMP, SOFTOPT], False),
    "feas": ([SOFT, SOFTOPT, PHIF, PHIFEAS, IMP], PHIFEAS, [PHIFEAS, IMP], False),
}

REDUCTION_FILES = {
    "gadget.txt": "gadget chain external 0 2\nvars 3\n"
                  "constraint imp 0 1\nconstraint imp 1 2\n",
    "host.txt": "\n".join(["domain 3"] + [l for t in HOST for l in t.text()]) + "\n",
    "imap.txt": "dim 1\ns 0 : 0\ns 1 : 1\n",
    "g_phis.txt": "gadget u01 external 0\nvars 1\nconstraint u01 0\n",
    "g_eq.txt": "gadget eqp external 0 1\nvars 2\nconstraint eqp 0 1\n",
    "g_xor.txt": "gadget xor external 0 1\nvars 2\nconstraint xorp 0 1\n",
    "g_soft.txt": "gadget soft external 0\nvars 1\nconstraint softp 0\n",
}


def reduction_args(kind, d):
    """CLI flags of one reduction type; d is the directory of the
    shared files above."""
    if kind == "express":
        return ["--type", "express", "--gadget", f"{d}/gadget.txt"]
    if kind == "eq":
        return ["--type", "eq"]
    if kind == "interp":
        return ["--type", "interp", "--host-language", f"{d}/host.txt",
                "--interp-map", f"{d}/imap.txt",
                "--phi-s-gadget", f"{d}/g_phis.txt",
                "--eq-gadget", f"{d}/g_eq.txt",
                "--relation-gadget", f"{d}/g_xor.txt",
                "--relation-gadget", f"{d}/g_soft.txt"]
    return ["--type", kind, "--phi", "soft" if kind == "opt" else "phif"]


def reduction_source(rng, kind):
    """A random source instance for one reduction type, plus the text of
    its language file."""
    lang, forced, pool, cover = REDUCTIONS[kind]
    n = rng.randint(2, 4)
    cons = [(tuple(rng.randrange(n) for _ in range(forced.arity)), forced)]
    for _ in range(rng.randint(1, 3)):
        t = rng.choice(pool)
        cons.append((tuple(rng.randrange(n) for _ in range(t.arity)), t))
    if cover:
        used = {v for s, _ in cons for v in s}
        cons += [((v,), SOFT) for v in range(n) if v not in used]
    text = "\n".join(["domain 2"] + [l for t in lang for l in t.text()]) + "\n"
    return Problem(n, 2, cons), text
