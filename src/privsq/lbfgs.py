"""Unbounded L-BFGS with the More-Thuente line search: what L-BFGS-B
(Byrd, Lu, Nocedal & Zhu, SIAM J. Sci. Comput. 16, 1995) does when no
variable has a bound, in numpy.

Without bounds, L-BFGS-B's Cauchy point and subspace minimization give the
L-BFGS direction ``d = -H g``, with ``H`` the inverse of the limited-memory
matrix of the last ``MEMORY`` pairs ``s = x+ - x``, ``y = g+ - g`` and
``H0 = c I``, ``c = s.y / y.y`` of the latest pair.  Here ``H`` is applied
in the compact form of Byrd, Nocedal & Schnabel (Math. Program. 63, 1994)::

    H = c I + [S  cY] [[R^-T (D + c Y^T Y) R^-1, -R^-T], [-R^-1, 0]] [S  cY]^T

(``R`` the upper triangle of ``S^T Y``, ``D`` its diagonal), keeping ``R^-1`` and ``Y^T Y`` up to date in place: a new pair
adds a column to ``R``, and dropping the oldest pair keeps the trailing
block of ``R^-1``, which is the inverse of the trailing block of ``R``.

Every step comes from :func:`_dcsrch`, a straight port of MINPACK-2
``dcsrch``/``dcstep`` (More & Thuente, ACM TOMS 20, 1994) with L-BFGS-B's
constants; the first step along the first direction is ``min(1/|d|,
STPMAX)``, every later one starts at 1.  A line search that fails drops the
memory and retries once along steepest descent; a second failure ends the
run with L-BFGS-B's ``ABNORMAL`` message.  The messages are L-BFGS-B's, as
scipy reports them.  A run is a generator, :func:`iterate`, sent the value
and gradient at each point it yields, so a caller can evaluate the points
of several runs in one call; :func:`minimize` answers one with ``fun``.

A run may start warm: given the value and gradient at its start it does
not yield that point, and given a curvature scale ``c`` it starts with ``H0
= c I`` and a first step of 1, as after its first iteration (the warm start
of Nocedal & Wright, *Numerical Optimization*, 2nd ed., section 7.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import nan, sqrt

import numpy as np

MEMORY = 10  # pairs kept (L-BFGS-B's ``maxcor``)
LS_FTOL, LS_GTOL, LS_XTOL = 1e-3, 0.9, 0.1  # L-BFGS-B's line-search tolerances
STPMAX = 1e10
MAX_LS = 20  # evaluations per line search (L-BFGS-B's ``maxls``)
EPSMCH = float(np.finfo(float).eps)

GRADIENT_CONVERGED = "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL"
REDUCTION_CONVERGED = "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH"
ITERATIONS_STOP = "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"
ABNORMAL = "ABNORMAL: "


@dataclass(frozen=True, eq=False)
class LbfgsResult:
    """The final point, value and gradient, iterations, evaluations of the
    value and of the gradient (always equal: ``fun`` returns both; a start
    passed in is not one), whether a convergence test stopped the run, why
    it stopped, and the scale ``c`` of its ``H0 = c I`` (that of its newest
    pair, else the warm scale it started with, else ``None``)."""

    x: np.ndarray
    fun: float
    jac: np.ndarray
    nit: int
    nfev: int
    njev: int
    success: bool
    message: str
    scale: float | None


def minimize(fun, x0, max_iters: int, ftol: float, gtol: float) -> LbfgsResult:
    """Minimize ``fun``, which returns the value and its gradient at ``x``,
    from ``x0``: :func:`iterate`, answered one point at a time."""
    run = iterate(x0, max_iters, ftol, gtol)
    x = next(run)
    try:
        while True:
            x = run.send(fun(x))
    except StopIteration as stop:
        return stop.value


def iterate(x0, max_iters: int, ftol: float, gtol: float, start=None, scale=None):
    """The run from ``x0``, returning its :class:`LbfgsResult`.  At each new
    iterate it stops after ``max_iters`` iterations, then when ``max |g| <=
    gtol``, then when the relative reduction ``(f_old - f) / max(|f_old|,
    |f|, 1) <= ftol``; the start stops at once if ``max |g| <= gtol`` there.
    ``start = (f0, g0)`` answers ``x0`` without yielding it; ``scale = c``
    starts with ``H0 = c I`` and a first trial step of 1, and counts as
    memory: a line search that fails before any pair is stored drops it
    and retries cold."""
    x = np.array(x0, dtype=float).ravel()
    f, g = (yield x) if start is None else start
    f, nfev, nit, message = float(f), int(start is None), 0, GRADIENT_CONVERGED
    # Pair t sits in slot t % MEMORY, so the slots hold the pairs in a
    # rotated order; R^-1, Y^T Y and D are kept in that order, and an empty
    # slot (all zeros) adds nothing to the direction.
    pairs = np.zeros((MEMORY, 2, x.size))  # slot i: s_i, y_i
    w = pairs.reshape(2 * MEMORY, x.size)
    rinv, yy = np.zeros((MEMORY, MEMORY)), np.zeros((MEMORY, MEMORY))
    sy, coef = np.zeros(MEMORY), np.zeros(2 * MEMORY)
    count, warm = 0, scale is not None
    scale = float(scale) if warm else 1.0
    stationary = np.abs(g).max() <= gtol  # tested here, then once per new iterate
    while not stationary:
        ab = w.dot(g)  # s_i.g, y_i.g
        u = rinv.dot(ab[0::2])
        p = (sy * u + scale * yy.dot(u) - scale * ab[1::2]).dot(rinv)
        coef[0::2], coef[1::2] = -p, scale * u
        d = coef.dot(w) - scale * g
        gd0 = float(g.dot(d))
        stp = None
        if gd0 < 0.0:
            # the line search: each step it tries is evaluated at x + stp d
            search = _dcsrch(f, gd0,
                             1.0 if nit or warm else min(1.0 / sqrt(float(d.dot(d))), STPMAX))
            try:
                stp = next(search)
                while True:
                    ft, gt = yield (xt := x + stp * d)
                    nfev, trial = nfev + 1, (xt, float(ft), gt, float(gt.dot(d)))  # last step tried
                    stp = search.send((trial[1], trial[3]))
            except StopIteration as stop:
                stp = stop.value
        if stp is None:
            if count == 0 and not warm:
                message = ABNORMAL
                break
            # drop the memory and retry along steepest descent
            pairs[:], rinv[:], yy[:], sy[:], count, scale, warm = 0.0, 0.0, 0.0, 0.0, 0, 1.0, False
            continue
        f_old, g_old = f, g
        x, f, g, gd = trial
        nit += 1
        if nit >= max_iters:
            message = ITERATIONS_STOP
            break
        if np.abs(g).max() <= gtol:
            message = GRADIENT_CONVERGED
            break
        if f_old - f <= ftol * max(abs(f_old), abs(f), 1.0):
            message = REDUCTION_CONVERGED
            break
        dr = (gd - gd0) * stp  # s.y for s = stp d
        if dr <= EPSMCH * -gd0 * stp:
            continue  # L-BFGS-B skips the update
        y = g - g_old
        slot = count % MEMORY
        # the oldest pair leaves this slot: what remains of R^-1 is the inverse
        # of the trailing block of R (Y^T Y's row and column are set below)
        rinv[slot], rinv[:, slot] = 0.0, 0.0
        np.multiply(d, stp, out=pairs[slot, 0])
        pairs[slot, 1] = y
        col = w.dot(y)  # s_i.y, y_i.y
        rinv[:, slot] = rinv.dot(col[0::2]) / -dr
        rinv[slot, slot] = 1.0 / dr
        yy[slot] = yy[:, slot] = col[1::2]
        sy[slot], count, scale = dr, count + 1, dr / yy[slot, slot]
    return LbfgsResult(x, f, g, nit, nfev, nfev, message.startswith("CONVERGENCE"), message,
                       scale if count or warm else None)


def _dcsrch(f0: float, g0: float, stp: float):
    """MINPACK-2 ``dcsrch`` with ``stpmin = 0``: a step from ``stp > 0``
    that meets ``f <= f0 + LS_FTOL stp g0`` and ``|g| <= LS_GTOL |g0|``
    (``g0 < 0``); yields each step to try and is sent ``(f, g)`` there.

    Returns the last step tried once it converges or ``dcsrch`` warns
    (L-BFGS-B takes either as the new iterate), or ``None`` when
    ``MAX_LS`` evaluations have not done so.  The test of the first step
    comes before any ``dcstep``, so a step that already meets both
    conditions costs one evaluation and no interval update."""
    gtest = LS_FTOL * g0
    brackt, stage, width, width1 = False, 1, STPMAX, 2.0 * STPMAX
    stx = sty = 0.0
    fx = fy = f0
    gx = gy = g0
    stmin, stmax = 0.0, stp + 4.0 * stp
    for _ in range(MAX_LS):
        f, g = yield stp
        ftest = f0 + stp * gtest
        if stage == 1 and f <= ftest and g >= 0.0:
            stage = 2
        if ((f <= ftest and abs(g) <= LS_GTOL * -g0)  # convergence
                or (brackt and (stp <= stmin or stp >= stmax))  # rounding errors
                or (brackt and stmax - stmin <= LS_XTOL * stmax)  # xtol test
                or (stp == STPMAX and f <= ftest and g <= gtest)
                or (stp == 0.0 and (f > ftest or g >= gtest))):
            return stp
        if stage == 1 and f <= fx and f > ftest:
            # the modified function psi(stp) = f - stp gtest while the decrease is insufficient
            stx, fxm, gxm, sty, fym, gym, stp, brackt = _dcstep(
                stx, fx - stx * gtest, gx - gtest, sty, fy - sty * gtest, gy - gtest,
                stp, f - stp * gtest, g - gtest, brackt, stmin, stmax)
            fx, fy, gx, gy = fxm + stx * gtest, fym + sty * gtest, gxm + gtest, gym + gtest
        else:
            stx, fx, gx, sty, fy, gy, stp, brackt = _dcstep(
                stx, fx, gx, sty, fy, gy, stp, f, g, brackt, stmin, stmax)
        if brackt:
            if abs(sty - stx) >= 0.66 * width1:
                stp = stx + 0.5 * (sty - stx)  # bisect
            width1, width = width, abs(sty - stx)
            stmin, stmax = min(stx, sty), max(stx, sty)
        else:
            stmin, stmax = stp + 1.1 * (stp - stx), stp + 4.0 * (stp - stx)
        stp = min(max(stp, 0.0), STPMAX)
        if brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= LS_XTOL * stmax):
            stp = stx  # no further progress is possible: the best step so far
    return None


def _cubic_gamma(theta: float, s: float, da: float, db: float, clip: bool = False) -> float:
    """``s sqrt((theta/s)^2 - (da/s)(db/s))``, the radical of the cubic
    interpolant, its argument clipped at 0 if asked; NaN where the argument
    is negative or NaN, as ``numpy.sqrt`` gives it to the Fortran port."""
    radicand = (theta / s) ** 2 - (da / s) * (db / s)
    if clip:
        radicand = max(0.0, radicand)
    return s * sqrt(radicand) if radicand >= 0.0 else nan


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """MINPACK-2 ``dcstep``: the safeguarded next trial step, and the
    interval ``[stx, sty]`` updated so it still holds a step meeting both
    conditions.  Returns ``(stx, fx, dx, sty, fy, dy, stp, brackt)``."""
    opposite = (dp < 0.0 < dx) or (dx < 0.0 < dp)
    if fp > fx:
        # a higher value: the minimum is bracketed; the cubic step if it is
        # closer to stx than the quadratic step, else their average
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        gamma = _cubic_gamma(theta, max(abs(theta), abs(dx), abs(dp)), dx, dp)
        if stp < stx:
            gamma = -gamma
        r = ((gamma - dx) + theta) / (((gamma - dx) + gamma) + dp)
        stpc = stx + r * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        stpf = stpc if abs(stpc - stx) <= abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
        brackt = True
    elif opposite:
        # a lower value, derivatives of opposite sign: bracketed; the cubic
        # step if it is farther from stp than the secant step, else the secant
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        gamma = _cubic_gamma(theta, max(abs(theta), abs(dx), abs(dp)), dx, dp)
        if stp > stx:
            gamma = -gamma
        r = ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dx)
        stpc = stp + r * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        brackt = True
    elif abs(dp) < abs(dx):
        # a lower value, same sign, the derivative's magnitude decreases: the
        # cubic step only if the cubic tends to infinity in the direction of
        # the step or its minimum lies beyond stp, else the secant step
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        gamma = _cubic_gamma(theta, max(abs(theta), abs(dx), abs(dp)), dx, dp, clip=True)
        if stp > stx:
            gamma = -gamma
        r = ((gamma - dp) + theta) / ((gamma + (dx - dp)) + gamma)
        if r < 0.0 and gamma != 0.0:
            stpc = stp + r * (stx - stp)
        else:
            stpc = stpmax if stp > stx else stpmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if brackt:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            bound = stp + 0.66 * (sty - stp)
            stpf = min(bound, stpf) if stp > stx else max(bound, stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = min(max(stpf, stpmin), stpmax)
    elif brackt:
        # a lower value, same sign, the magnitude does not decrease: the
        # cubic step between stp and sty
        theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
        gamma = _cubic_gamma(theta, max(abs(theta), abs(dy), abs(dp)), dy, dp)
        if stp > sty:
            gamma = -gamma
        r = ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dy)
        stpf = stp + r * (sty - stp)
    else:
        stpf = stpmax if stp > stx else stpmin
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if opposite:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt
