import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize

import vcsprelax.simplex as simplex
from vcsprelax.simplex import Certificate, ExactLP, solve_lp


def test_basic_maximization_via_negation():
    # max x+y s.t. x+y <= 1  ->  min -(x+y) = -1
    lp = ExactLP(2)
    lp.set_objective({0: -1, 1: -1})
    lp.add_le({0: 1, 1: 1}, 1)
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.value == Fraction(-1)
    assert sum(res.x) == 1


def test_equality_system():
    # x + y = 1, x - y = 1/3 -> x = 2/3, y = 1/3; minimize x
    lp = ExactLP(2)
    lp.set_objective({0: 1})
    lp.add_eq({0: 1, 1: 1}, 1)
    lp.add_eq({0: 1, 1: -1}, Fraction(1, 3))
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.x[0] == Fraction(2, 3)
    assert res.x[1] == Fraction(1, 3)


def test_infeasible():
    lp = ExactLP(1)
    lp.add_le({0: 1}, -1)  # x <= -1 contradicts x >= 0
    assert solve_lp(lp).status == "infeasible"


def test_infeasible_equalities():
    lp = ExactLP(2)
    lp.add_eq({0: 1, 1: 1}, 1)
    lp.add_eq({0: 1, 1: 1}, 2)
    assert solve_lp(lp).status == "infeasible"


def test_unbounded():
    lp = ExactLP(1)
    lp.set_objective({0: -1})
    assert solve_lp(lp).status == "unbounded"


def test_redundant_rows_handled():
    lp = ExactLP(2)
    lp.set_objective({0: 1, 1: 2})
    lp.add_eq({0: 1, 1: 1}, 1)
    lp.add_eq({0: 2, 1: 2}, 2)  # same hyperplane
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.value == 1


def test_exact_rational_answer():
    # tiny problem where floats would drift: min x s.t. 3x >= 1 -> 1/3
    lp = ExactLP(1)
    lp.set_objective({0: 1})
    lp.add_ge({0: 3}, 1)
    res = solve_lp(lp)
    assert res.value == Fraction(1, 3)


def test_degenerate_does_not_cycle():
    # classic degenerate vertex at the origin
    lp = ExactLP(4)
    lp.set_objective({0: Fraction(-3, 4), 1: 150, 2: Fraction(-1, 50), 3: 6})
    lp.add_le({0: Fraction(1, 4), 1: -60, 2: Fraction(-1, 25), 3: 9}, 0)
    lp.add_le({0: Fraction(1, 2), 1: -90, 2: Fraction(-1, 50), 3: 3}, 0)
    lp.add_le({2: 1}, 1)
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.value == Fraction(-1, 20)


def _random_lp(rng, n, m):
    lp = ExactLP(n)
    lp.set_objective({j: Fraction(rng.randint(-5, 5)) for j in range(n)})
    rows = []
    for _ in range(m):
        coeffs = {j: Fraction(rng.randint(-4, 4)) for j in range(n)}
        rhs = Fraction(rng.randint(0, 8))
        lp.add_le(coeffs, rhs)
        rows.append((coeffs, rhs))
    # keep it bounded: cap the simplex of variables
    cap = {j: Fraction(1) for j in range(n)}
    lp.add_le(cap, n)
    rows.append((cap, Fraction(n)))
    return lp, rows


def test_against_scipy_on_random_lps():
    # scipy highs is the independent check; agreement within float tolerance
    rng = random.Random(42)
    for trial in range(25):
        n, m = rng.randint(2, 5), rng.randint(1, 5)
        lp, rows = _random_lp(rng, n, m)
        res = solve_lp(lp)
        c = np.array([float(lp.objective.get(j, 0)) for j in range(n)])
        A = np.array([[float(coeffs.get(j, 0)) for j in range(n)] for coeffs, _ in rows])
        b = np.array([float(rhs) for _, rhs in rows])
        ref = scipy.optimize.linprog(c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
        assert res.status == "optimal"
        assert ref.status == 0
        assert abs(float(res.value) - ref.fun) < 1e-7
        # feasibility of the exact solution
        for coeffs, rhs in rows:
            lhs = sum(coeffs.get(j, Fraction(0)) * res.x[j] for j in range(n))
            assert lhs <= rhs
        assert all(x >= 0 for x in res.x)


# ---------------------------------------------------------- certificates

def _certificate_holds(lp, res):
    """The LP certificate conditions, checked exactly against lp.rows as
    written: y_i <= 0 on <= rows; a Farkas ray has A^T y <= 0 and b.y > 0,
    a dual has A^T y <= c and b.y == value."""
    cert = res.certificate
    if cert is None or len(cert.y) != len(lp.rows):
        return False
    aty = [Fraction(0)] * lp.num_vars
    by = Fraction(0)
    for (coeffs, b, kind), yi in zip(lp.rows, cert.y):
        if kind == "le" and yi > 0:
            return False
        by += yi * b
        for c, v in coeffs.items():
            aty[c] += yi * v
    if cert.kind == "farkas":
        return res.status == "infeasible" and by > 0 and all(s <= 0 for s in aty)
    return (res.status == "optimal" and by == res.value
            and all(s <= lp.objective.get(c, 0) for c, s in enumerate(aty)))


def test_small_infeasible_lps_carry_a_two_phase_ray():
    # the ray comes from the phase-1 reduced costs; a row solve_lp
    # sign-flips (negative rhs) gets its multiplier back in its own sign
    lps = []
    lp = ExactLP(1)
    lp.add_le({0: 1}, -1)
    lps.append(lp)
    lp = ExactLP(2)
    lp.add_eq({0: 1, 1: 1}, 1)
    lp.add_eq({0: 1, 1: 1}, 2)
    lps.append(lp)
    lp = ExactLP(3)
    lp.add_ge({0: 1, 1: 2}, 3)
    lp.add_le({0: 1, 2: -1}, 1)
    lp.add_le({1: 1}, 1)
    lp.add_eq({2: 1, 0: -1}, 0)
    lp.add_le({0: 1}, Fraction(1, 2))
    lps.append(lp)
    for lp in lps:
        res = solve_lp(lp)
        assert res.status == "infeasible"
        assert res.path == "two-phase" and res.certificate.kind == "farkas"
        assert _certificate_holds(lp, res)


def _big_lp(rng, n=12, m=160, infeasible=False):
    """A bounded LP of at least `_FLOAT_GUIDE_MIN_ROWS` rows mixing <=,
    >= (sign-flipped) and equality rows; `infeasible` adds a >= row that
    the cap row contradicts."""
    lp = ExactLP(n)
    lp.set_objective({j: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for j in range(n)})
    lp.add_le({j: 1 for j in range(n)}, n)
    lp.add_eq({0: 1, 1: -1}, 0)
    for _ in range(m):
        coeffs = {j: rng.randint(-3, 4) for j in rng.sample(range(n), 4)}
        if rng.random() < 0.2:
            lp.add_ge(coeffs, -rng.randint(1, 6))
        else:
            lp.add_le(coeffs, rng.randint(1, 9))
    if infeasible:
        lp.add_ge({j: 1 for j in range(n)}, n + 1)
    return lp


def _uncertified(monkeypatch):
    # HiGHS still runs, but no rung of the ladder is tried
    monkeypatch.setattr(simplex, "_DENOMINATORS", ())


def _covering_lp(rng, n=12, m=160):
    """min c.x with c > 0 over >= rows with positive rhs: solve_lp negates
    every row, and the optimum's dual is nonzero on the binding ones."""
    lp = ExactLP(n)
    lp.set_objective({j: rng.randint(1, 5) for j in range(n)})
    for _ in range(m):
        lp.add_ge({j: rng.randint(1, 3) for j in rng.sample(range(n), 4)}, rng.randint(1, 6))
    return lp


@pytest.mark.parametrize("kind", ["optimal", "infeasible", "covering"])
def test_large_lp_is_certified_without_pivots(monkeypatch, kind):
    if kind == "covering":
        lp = _covering_lp(random.Random(7))
    else:
        lp = _big_lp(random.Random(5), infeasible=kind == "infeasible")
    assert len(lp.rows) >= simplex._FLOAT_GUIDE_MIN_ROWS
    res = solve_lp(lp)
    assert res.path == "certified" and res.pivots == 0
    assert res.status == ("infeasible" if kind == "infeasible" else "optimal")
    assert any(res.certificate.y)
    assert _certificate_holds(lp, res)
    _uncertified(monkeypatch)
    ref = solve_lp(lp)
    assert ref.path == "two-phase"
    assert (ref.status, ref.value) == (res.status, res.value)
    if kind == "optimal":
        assert all(sum(v * res.x[c] for c, v in coeffs.items()) <= b
                   for coeffs, b, row_kind in lp.rows if row_kind == "le")


def test_certificate_problems_checks_the_point():
    # solve_lp hands the rounded point to the same checker as the dual;
    # each primal condition must be able to reject on its own
    lp = _big_lp(random.Random(5))
    res = solve_lp(lp)
    cert = res.certificate
    check = simplex.certificate_problems
    assert list(check(lp, cert, "dual", res.value, res.x)) == []
    x = list(res.x)
    x[0] += 1   # breaks the equality row x0 - x1 = 0
    assert ("row", 1) in [p[1] for p in check(lp, cert, "dual", res.value, x)]
    x = list(res.x)
    x[2] = Fraction(-1)
    assert ("nonneg", 2) in [p[1] for p in check(lp, cert, "dual", res.value, x)]
    x = [v + 1 for v in res.x]   # breaks the cap row sum(x) <= n
    assert ("row", 0) in [p[1] for p in check(lp, cert, "dual", res.value, x)]
    y = list(cert.y)
    y[1] += 100   # row 1 has rhs 0: b.y is unchanged, column 0 breaks
    problems = check(lp, Certificate("dual", y), "dual", res.value, res.x)
    assert ("column", 0) in [p[1] for p in problems]
    c = next(c for c, v in lp.objective.items() if v)
    x = list(res.x)
    x[c] += Fraction(1, 3)
    assert "c.x" in [p[1] for p in check(lp, cert, "dual", res.value, x)]


@pytest.mark.parametrize("infeasible", [False, True])
def test_perturbed_highs_answer_falls_back(monkeypatch, infeasible):
    # HiGHS's x, duals and ray each shifted by 1e-3.  No rung of the
    # ladder rounds the shift away on this LP (its exact answer has large
    # denominators), the checks fail, and the two-phase simplex answers.
    real = scipy.optimize.linprog

    def shifted(*args, **kwargs):
        res = real(*args, **kwargs)
        if res.x is not None:
            res.x = res.x + 1e-3
        if getattr(res, "eqlin", None) is not None:
            res.eqlin.marginals = res.eqlin.marginals + 1e-3
        return res

    lp = _big_lp(random.Random(5), infeasible=infeasible)
    want = solve_lp(lp)
    monkeypatch.setattr(scipy.optimize, "linprog", shifted)
    got = solve_lp(lp)
    assert got.path == "two-phase"
    assert (got.status, got.value) == (want.status, want.value)
    if infeasible:
        assert _certificate_holds(lp, got)
