"""The numpy L-BFGS driver: its line search against scipy's port of the same
MINPACK-2 routine, and its stopping rules on problems with known answers."""

from math import cos, pi, sin, sqrt

import numpy as np
import pytest

import privsq.lbfgs as lbfgs
from privsq.lbfgs import (
    GRADIENT_CONVERGED,
    ITERATIONS_STOP,
    REDUCTION_CONVERGED,
    minimize,
)


# The six test functions of More & Thuente (ACM TOMS 20, 1994), section 5,
# each as phi(a) -> (value, derivative), with the paper's (ftol, gtol).
def _mt1(a, b=2.0):
    return -a / (a * a + b), (a * a - b) / (a * a + b) ** 2


def _mt2(a, b=0.004):
    return (a + b) ** 5 - 2 * (a + b) ** 4, 5 * (a + b) ** 4 - 8 * (a + b) ** 3


def _mt3(a, b=0.01, ell=39):
    if a <= 1 - b:
        p0, d0 = 1 - a, -1.0
    elif a >= 1 + b:
        p0, d0 = a - 1, 1.0
    else:
        p0, d0 = (a - 1) ** 2 / (2 * b) + b / 2, (a - 1) / b
    return (p0 + 2 * (1 - b) / (ell * pi) * sin(ell * pi * a / 2),
            d0 + (1 - b) * cos(ell * pi * a / 2))


def _yanai(b1, b2):
    def gam(b):
        return sqrt(1 + b * b) - b

    def phi(a):
        r1, r2 = sqrt((1 - a) ** 2 + b2 * b2), sqrt(a * a + b1 * b1)
        return gam(b1) * r1 + gam(b2) * r2, -gam(b1) * (1 - a) / r1 + gam(b2) * a / r2

    return phi


def line_search(phi, f0, g0, alpha0):
    """``lbfgs._dcsrch`` from ``(f0, g0)`` at 0, each step it yields
    answered by ``phi``: the step it returns."""
    search = lbfgs._dcsrch(f0, g0, alpha0)
    try:
        stp = next(search)
        while True:
            stp = search.send(phi(stp))
    except StopIteration as stop:
        return stop.value


MORE_THUENTE = [(_mt1, 1e-3, 0.1), (_mt2, 0.1, 0.1), (_mt3, 0.1, 0.1),
                (_yanai(1e-3, 1e-3), 1e-3, 1e-3), (_yanai(1e-2, 1e-3), 1e-3, 1e-3),
                (_yanai(1e-3, 1e-2), 1e-3, 1e-3)]


# Starts: the paper's 1e-3, 1e-1, 1e1, 1e3, and 1.5e-4, from which the first
# function's extrapolation is clipped at its lower safeguard stp + 1.1 (stp - stx).
@pytest.mark.parametrize("constants", ["lbfgsb", "paper"])
@pytest.mark.parametrize("alpha0", [1.5e-4, 1e-3, 1e-1, 1e1, 1e3])
@pytest.mark.parametrize("case", range(6), ids=[f"mt{i + 1}" for i in range(6)])
def test_line_search_matches_scipy_dcsrch(case, alpha0, constants, monkeypatch):
    # the same steps, in the same order, as scipy's port of MINPACK-2 dcsrch;
    # L-BFGS-B takes the last step tried on convergence and on a warning alike
    dcsrch = pytest.importorskip("scipy.optimize._dcsrch")
    phi, ftol, gtol = MORE_THUENTE[case]
    if constants == "lbfgsb":
        ftol, gtol = lbfgs.LS_FTOL, lbfgs.LS_GTOL
    monkeypatch.setattr(lbfgs, "LS_FTOL", ftol)
    monkeypatch.setattr(lbfgs, "LS_GTOL", gtol)
    theirs, ours = [], []
    search = dcsrch.DCSRCH(lambda a: (theirs.append(a), phi(a)[0])[1], lambda a: phi(a)[1],
                           ftol, gtol, lbfgs.LS_XTOL, 0.0, lbfgs.STPMAX)
    stp, _, _, task = search(alpha0, *phi(0.0), maxiter=lbfgs.MAX_LS + 1)
    assert task[:4] in (b"CONV", b"WARN")
    accepted = line_search(lambda a: (ours.append(a), phi(a))[1], *phi(0.0), alpha0)
    assert ours == [float(a) for a in theirs]
    assert accepted == theirs[-1] and (stp is None or stp == accepted)


def test_line_search_exercises_every_dcstep_case(monkeypatch):
    # the comparison above reaches all four cases of dcstep and both branches
    # of the fourth, so each line of the port is checked against scipy's
    seen = set()
    dcstep = lbfgs._dcstep

    def recorded(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
        if fp > fx:
            seen.add(1)
        elif (dp < 0.0 < dx) or (dx < 0.0 < dp):
            seen.add(2)
        elif abs(dp) < abs(dx):
            seen.add(3)
        else:
            seen.add(4 if brackt else 5)
        return dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax)

    monkeypatch.setattr(lbfgs, "_dcstep", recorded)
    for phi, ftol, gtol in MORE_THUENTE:
        for consts in ((lbfgs.LS_FTOL, lbfgs.LS_GTOL), (ftol, gtol)):
            monkeypatch.setattr(lbfgs, "LS_FTOL", consts[0])
            monkeypatch.setattr(lbfgs, "LS_GTOL", consts[1])
            for alpha0 in (1.5e-4, 1e-3, 1e-1, 1e1, 1e3):
                line_search(phi, *phi(0.0), alpha0)
    assert seen == {1, 2, 3, 4, 5}


def counted(fun):
    """``fun`` with a count of its calls, as ``(wrapped, calls)``."""
    calls = []

    def wrapped(x):
        calls.append(1)
        return fun(x)

    return wrapped, calls


def test_strictly_convex_quadratic_reaches_its_minimizer():
    # 0.5 (x - x*)^T A (x - x*), written about x* = A^-1 b so the value keeps
    # its relative precision near the minimum; ftol = 0 leaves only the
    # gradient test to stop the run
    rng = np.random.default_rng(3)
    m = rng.standard_normal((12, 12))
    a, b = m @ m.T + np.eye(12), rng.standard_normal(12)
    x_star = np.linalg.solve(a, b)
    fun, calls = counted(lambda x: (0.5 * (x - x_star) @ a @ (x - x_star), a @ (x - x_star)))
    res = minimize(fun, np.zeros(12), max_iters=500, ftol=0.0, gtol=1e-10)
    assert res.message == GRADIENT_CONVERGED and res.success and res.nit > 12
    assert np.abs(res.x - x_star).max() <= 1e-8
    assert np.abs(res.jac).max() <= 1e-10
    assert res.nfev == res.njev == len(calls)


def rosenbrock(x):
    r, s = x[1:] - x[:-1] ** 2, 1.0 - x[:-1]
    g = np.zeros_like(x)
    g[:-1] = -400.0 * x[:-1] * r - 2.0 * s
    g[1:] += 200.0 * r
    return float(100.0 * r @ r + s @ s), g


@pytest.mark.parametrize("k", [1, 2, 7, 25])
def test_rosenbrock_stops_after_exactly_max_iters(k):
    fun, calls = counted(rosenbrock)
    res = minimize(fun, np.array([-1.2, 1.0, -0.5, 0.3]), max_iters=k, ftol=1e-7, gtol=1e-8)
    assert (res.nit, res.message, res.success) == (k, ITERATIONS_STOP, False)
    assert res.nfev == res.njev == len(calls) > k
    assert (res.fun, res.jac.tolist()) == (rosenbrock(res.x)[0], rosenbrock(res.x)[1].tolist())


def test_rosenbrock_converges_uncapped():
    fun, calls = counted(rosenbrock)
    res = minimize(fun, np.array([-1.2, 1.0, -0.5, 0.3]), max_iters=10_000, ftol=1e-12, gtol=1e-8)
    assert res.success and res.message in (GRADIENT_CONVERGED, REDUCTION_CONVERGED)
    assert np.abs(res.x - 1.0).max() < 1e-4
    assert res.nfev == res.njev == len(calls)


def test_zero_gradient_start_returns_at_once():
    fun, calls = counted(lambda x: (float(x @ x), 2.0 * x))
    res = minimize(fun, np.zeros(5), max_iters=10, ftol=1e-7, gtol=1e-8)
    assert (res.nit, res.nfev, res.njev, len(calls)) == (0, 1, 1, 1)
    assert res.success and res.message == GRADIENT_CONVERGED and res.fun == 0.0


def test_a_gradient_that_never_descends_stops_abnormally():
    # the gradient claims descent along +x while the value rises: the first
    # line search fails with no memory to drop, after MAX_LS evaluations
    fun, calls = counted(lambda x: (float(x @ x), -x))
    res = minimize(fun, np.ones(3), max_iters=10, ftol=1e-7, gtol=1e-8)
    assert (res.message, res.success, res.nit) == ("ABNORMAL: ", False, 0)
    assert res.nfev == res.njev == len(calls) == 1 + lbfgs.MAX_LS
    assert res.x.tolist() == [1.0, 1.0, 1.0] and res.fun == 3.0


@pytest.mark.parametrize("n", [2, 3, 5, 10])
def test_runs_follow_scipy_lbfgsb_without_bounds(n):
    # the same iterates, evaluations and messages as scipy's L-BFGS-B: exactly
    # over the first iterations, where rounding cannot yet change a decision,
    # and to the same minimizer when run to convergence
    optimize = pytest.importorskip("scipy.optimize")
    x0 = 1.5 * np.random.default_rng(n).standard_normal(n)
    for max_iters in (1, 2, 5, 15, 500):
        ours = minimize(rosenbrock, x0, max_iters=max_iters, ftol=1e-7, gtol=1e-8)
        theirs = optimize.minimize(rosenbrock, x0, jac=True, method="L-BFGS-B",
                                   options={"maxiter": max_iters, "ftol": 1e-7, "gtol": 1e-8})
        assert (ours.message, ours.success) == (theirs.message, theirs.success)
        if max_iters < 500:
            assert (ours.nit, ours.nfev, ours.njev) == (theirs.nit, theirs.nfev, theirs.njev)
            assert np.abs(ours.x - theirs.x).max() <= 1e-10 * max(1.0, np.abs(theirs.x).max())
        else:
            assert np.abs(ours.x - theirs.x).max() <= 1e-4


def test_stopping_tests_run_in_order_cap_gradient_reduction():
    # from a unit x0 the first step min(1/|g|, STPMAX) lands on the minimizer
    # of |x|^2 / 2, where the gradient test and (at ftol = 1) the reduction
    # test both hold: the cap is checked first, then the gradient
    half_square = lambda x: (0.5 * float(x @ x), x.copy())  # noqa: E731
    x0 = np.array([0.6, 0.8])
    capped = minimize(half_square, x0, max_iters=1, ftol=1.0, gtol=1e-8)
    assert (capped.nit, capped.nfev, capped.message) == (1, 2, ITERATIONS_STOP)
    assert capped.x.tolist() == [0.0, 0.0]
    free = minimize(half_square, x0, max_iters=5, ftol=1.0, gtol=1e-8)
    assert (free.nit, free.nfev, free.message, free.success) == (1, 2, GRADIENT_CONVERGED, True)


def test_a_step_without_curvature_skips_the_update():
    # a linear function: each line search grows the step 5-fold up to STPMAX
    # and takes it on dcsrch's STP = STPMAX warning, with s.y = 0, so every
    # update is skipped (storing it would divide by s.y) and each direction
    # is steepest descent
    c = np.array([1.0, -2.0, 0.5])
    fun, calls = counted(lambda x: (float(c @ x), c.copy()))
    res = minimize(fun, np.zeros(3), max_iters=3, ftol=1e-7, gtol=1e-8)
    assert (res.nit, res.message) == (3, ITERATIONS_STOP)
    assert res.nfev == res.njev == len(calls) == 56
    assert res.x.tolist() == (-3 * lbfgs.STPMAX * c).tolist()


def test_a_failed_line_search_drops_the_memory_and_retries_once():
    # |x|^2 with a gradient that flips sign once |x|^2 < 1/2: the first step
    # is honest, then the line search along the lying quasi-Newton direction
    # fails, and so does the steepest-descent retry; the run stops abnormally
    # at the last iterate after 1 + 1 + 2 * MAX_LS evaluations
    def lying(x):
        f = float(x @ x)
        return f, (2.0 * x if f >= 0.5 else -2.0 * x)

    fun, calls = counted(lying)
    res = minimize(fun, np.array([0.3, 1.1, 0.7, -0.2]), max_iters=100, ftol=1e-12, gtol=1e-12)
    assert (res.message, res.success, res.nit) == (lbfgs.ABNORMAL, False, 1)
    assert res.nfev == res.njev == len(calls) == 2 + 2 * lbfgs.MAX_LS
    assert (res.fun, res.jac.tolist()) == (lying(res.x)[0], lying(res.x)[1].tolist())
