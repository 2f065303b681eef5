"""Variational upper bounds on squashed entanglement and the key-bound
arithmetic built on them.

Every extension of a state arises by applying a channel to the purifying
system of a purification.  The ansatz here parameterizes that channel as an
isometry ``E' -> E (x) F`` (leading columns of the Cayley transform ``(I -
iH/2)^{-1} (I + iH/2)`` of ``H = [[A, B^dagger], [B, 0]]``, one real
coordinate per degree of freedom), applies it to the canonical
purification, and traces out ``F``.  Half the conditional (multipartite)
information of the result is an upper bound on the corresponding squashed
entanglement *for every ansatz*, so minimizing over the generator with
several seeded restarts yields sound, reproducible upper bounds.

The state search descends over ``V`` (``_descent``, ``G_V = G_t
psi^dagger``); the channel search alternates that with an ascent over pure
channel inputs (``_ascent``, ``G_psi = V^dagger G_t``), purifying each
output with the channel's own sunk outputs restricted to the span they
reach, so no evaluation diagonalizes it.  Both make every L-BFGS-B run
through one adapter (``_lbfgsb``, one option set) over ``iterate``, the
resumable numpy L-BFGS of :mod:`privsq.lbfgs`, and run their seeded
restarts in lockstep (``_search``): each round evaluates the extension
``t = V psi`` of every live restart in one call of the search's one
``_KernelPlan``, so no report differs from running the restarts one at a
time.  Besides that call, an evaluation makes the pullbacks and one
``d_purify x d_purify`` inverse (``_isometry``, the one function that knows the chart).
Both searches descend through ``_descend``, which re-centres the chart at
its point every ``RECHART_ITERS`` iterations (``_rechart``): far from its
origin the Cayley chart shrinks directions by ``1 + lambda^2/4``, and a
descent that followed one chart for 500 iterations crawled.  The reported
point is mapped back to the chart at the state's own purification
(``_chart_coordinates``), and no random draw is added.  A run that starts
at its restart's latest extension reuses that evaluation (``_lbfgsb``).
"""

from __future__ import annotations

import cmath
from dataclasses import asdict, dataclass, fields, replace
from functools import cache
from itertools import islice
from math import inf, log, log2, pi, prod, sqrt
from typing import Iterable, Sequence

import numpy as np

from .entropy import (
    FLAVOR_TOTAL,
    _correlation,
    _disjoint,
    _gram_plan,
    _merged,
    cmi_continuity,
    info_terms,
)
from .layout import LayoutError, SystemLayout, as_labels, fresh_label
from .lbfgs import iterate, minimize  # noqa: F401 (the benchmark's span tracer wraps ``minimize``)
from .tensor import (
    EIG_CLIP,
    DensityOperator,
    Isometry,
    _finite,
    _unchecked,
    purification_matrix,
)


# ---------------------------------------------------------------------------
# ansatz
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SquashingAnsatz:
    """Parameterized isometry from the purifying system into kept (x) sunk.

    ``params`` holds the :func:`ansatz_param_count` real coordinates of ``H =
    [[A, B^dagger], [B, 0]]`` (``n = d_env * d_sink`` rows): the diagonal of
    the Hermitian ``d_purify x d_purify`` ``A``, the real and then imaginary
    parts of its strict upper triangle (row-major), then the float view of
    ``B``.  The first ``d_purify`` columns of the Cayley transform of ``H``
    form the isometry, so every finite parameter vector realizes an exact
    isometry; ``params = 0`` gives the first ``d_purify`` columns of ``I``.
    """

    d_purify: int
    d_env: int
    d_sink: int
    params: np.ndarray

    def __init__(self, d_purify: int, d_env: int, d_sink: int, params: np.ndarray):
        d_purify = int(d_purify)
        d_env, d_sink = _extension_dims(d_purify, int(d_env), int(d_sink))
        count = ansatz_param_count(d_env, d_sink, d_purify)
        params = _finite(params, "ansatz params", float).reshape(-1)
        if params.shape != (count,):
            raise ValueError(f"expected {count} parameters, got {params.shape[0]}")
        _unchecked(self, d_purify, d_env, d_sink, params)

    def isometry_matrix(self) -> np.ndarray:
        return _isometry(self.params, self.d_purify)[0]

    def to_isometry(
        self, input_label: str = "Epur", env_label: str = "E", sink_label: str = "F"
    ) -> Isometry:
        return _unchecked(Isometry, SystemLayout(((input_label, self.d_purify),)),
                          SystemLayout(((env_label, self.d_env), (sink_label, self.d_sink))),
                          self.isometry_matrix())


@cache
def _chart(n: int) -> tuple:
    """``(n, index, sign, folded, half)``: the float view of the ``n x n``
    Hermitian ``A`` (re, im per entry, row-major) is ``params[index] *
    sign``, so the gradient of ``df = Re Tr[gamma^dagger dA]`` is
    ``bincount(index, sign * g)``, ``g`` the float view of ``gamma``; with
    re and im swapped, that of ``-iA/2`` is ``params[folded] * half``."""
    rows, cols = np.triu_indices(n, 1)
    upper, diag = n + np.arange(rows.size), np.arange(n)
    index, sign = np.empty((n, n, 2), dtype=np.intp), np.zeros((n, n, 2))
    index[diag, diag], sign[diag, diag] = diag[:, None], (1.0, 0.0)
    index[rows, cols] = index[cols, rows] = np.stack((upper, upper + rows.size), -1)
    sign[rows, cols], sign[cols, rows] = (1.0, 1.0), (1.0, -1.0)
    index, sign = index.ravel(), sign.ravel()
    swap = np.arange(2 * n * n) ^ 1
    return n, index, sign, index[swap], 0.5 * sign[swap] * np.tile((1.0, -1.0), n * n)


def _isometry(params: np.ndarray, d_purify: int) -> tuple:
    """``V``, the first ``d = d_purify`` columns of the Cayley transform ``(I -
    iH/2)^{-1} (I + iH/2)`` of ``H = [[A, B^dagger], [B, 0]]``, ``A`` (``d x
    d``, :func:`_chart`) and then the float view of ``B`` in ``params``; and
    the pullback that takes ``G_V`` (``df = Re <G_V, dV>``) to the gradient.

    By the Schur complement, ``V = [2C - I; iBC]``, ``C = S^{-1}``, ``S = I -
    iA/2 + B^dagger B/4``, whose Hermitian part ``I + B^dagger B/4`` puts
    every singular value at 1 or above.  As ``dC = -C dS C``, the gradient in
    ``A`` is ``gamma = -i C^dagger (G_top - (i/2) B^dagger G_bot) C^dagger``
    and in ``B`` it is ``-i G_bot C^dagger - (i/2) B (gamma - gamma^dagger)``.
    An empty ``B`` (``n = d``) is skipped: empty numpy calls cost time too.
    """
    d, index, sign, folded, half = _chart(d_purify)
    s = (params.take(folded) * half).view(complex).reshape(d, d)
    s.reshape(-1)[::d + 1] += 1.0
    b = params[d * d:].view(complex).reshape(-1, d)
    if b.size:
        s += 0.25 * (b.conj().T @ b)
    c = np.linalg.inv(s)
    v = np.concatenate((2.0 * c, 1j * (b @ c))) if b.size else 2.0 * c
    v.reshape(-1)[:d * d:d + 1] -= 1.0

    def gathered(gamma: np.ndarray) -> np.ndarray:
        flat = gamma.view(float).ravel()
        return np.bincount(index, np.multiply(flat, sign, out=flat), d * d)

    def pullback(g_v: np.ndarray) -> np.ndarray:
        c_h = c.conj().T
        if not b.size:
            return gathered(-1j * (c_h @ g_v) @ c_h)
        g_bot = g_v[d:]
        gamma = -1j * (c_h @ (g_v[:d] - 0.5j * (b.conj().T @ g_bot))) @ c_h
        g_b = -1j * (g_bot @ c_h) - 0.5j * (b @ (gamma - gamma.conj().T))
        return np.concatenate((gathered(gamma), g_b.view(float).ravel()))

    return v, pullback


# Below this distance of an eigenvalue of V_top from -1, the map back loses
# digits (1e-11 at 1e-3, against 1e-14 above 0.1) and a phase is applied first.
CHART_MARGIN = 0.1


def _chart_coordinates(v: np.ndarray) -> np.ndarray:
    """Coordinates in :func:`_isometry`'s chart of the ``n x d`` isometry ``v``:
    ``S = 2 (V_top + I)^{-1}``, ``B = -i V_bot S`` and ``A = 2i (S - I -
    B^dagger B/4)``, which ``V^dagger V = I`` makes Hermitian (it gives
    ``S + S^dagger = 2 I + B^dagger B/2``).  A top block with an eigenvalue
    within ``CHART_MARGIN`` of -1 is first turned by the global phase that
    centres the widest gap between its eigenvalues' arguments on -1; a
    global phase leaves every extension's state unchanged."""
    d = v.shape[1]
    eye, w = np.eye(d), np.linalg.eigvals(v[:d])
    if np.abs(w + 1.0).min() < CHART_MARGIN:
        angles = sorted(map(cmath.phase, w))
        _, middle = max((b - a, 0.5 * (a + b))
                        for a, b in zip(angles, angles[1:] + [angles[0] + 2.0 * pi]))
        v = v * cmath.exp(1j * (pi - middle))
    s = 2.0 * np.linalg.inv(v[:d] + eye)
    b = -1j * (v[d:] @ s)
    a = 2j * (s - eye - 0.25 * (b.conj().T @ b))
    upper = a[np.triu_indices(d, 1)]
    return np.concatenate((a.diagonal().real, upper.real, upper.imag, b.view(float).ravel()))


def ansatz_param_count(d_env: int, d_sink: int, d_purify: int) -> int:
    """``2 n d_purify - d_purify^2`` (``n = d_env d_sink``): the real dimension
    of the ``n x d_purify`` isometries, one coordinate per degree of freedom."""
    return 2 * d_env * d_sink * d_purify - d_purify * d_purify


# ---------------------------------------------------------------------------
# extensions and objective
# ---------------------------------------------------------------------------

def extend_by_squashing(
    rho: DensityOperator, ansatz: SquashingAnsatz, env_label: str = "E"
) -> DensityOperator:
    """Extension of ``rho`` with system ``env_label`` listed first: purify to
    the ansatz's input dimension, apply the isometry, trace the sunk output.

    Tracing ``env_label`` from the result recovers ``rho`` (up to numerics),
    which is what makes any conditional-information evaluation on it an
    upper bound.  Raises if the state's rank exceeds ``ansatz.d_purify``.
    """
    if env_label in rho.layout.labels:
        raise LayoutError(f"environment label {env_label!r} collides with the state's systems")
    psi = purification_matrix(rho.matrix, d_ref=ansatz.d_purify)
    mat = _extension_matrix(psi, ansatz.isometry_matrix(), ansatz.d_env, ansatz.d_sink)
    layout = SystemLayout(((env_label, ansatz.d_env),)).concat(rho.layout)
    return _unchecked(DensityOperator, layout, mat)


def _extension_matrix(psi: np.ndarray, v: np.ndarray, d_env: int, d_sink: int) -> np.ndarray:
    amp = v @ psi  # rows: (env, sink) composite; cols: original systems
    t = amp.reshape(d_env, d_sink, psi.shape[1])
    d = d_env * psi.shape[1]
    return np.einsum("efs,gft->esgt", t, t.conj()).reshape(d, d)


class _KernelPlan:
    """Everything a squashing evaluation reads that depends on neither the
    ansatz parameters nor the purification, for extensions shaped ``shape``
    = (env, sink, systems...) and the information ``terms``, merged by
    :func:`_merged` and weighted by half their coefficients: the
    :func:`_gram_plan` groups of the marginals as flat gathers, each with
    its plan-order weight column ``-2 * weight``; and the inverse of all
    gathers, whose row ``i`` brings block ``i`` back to the axis order of
    the tensor.  :meth:`stacked` lays these out for ``k`` extensions."""

    def __init__(self, shape: tuple[int, ...], terms: tuple):
        merged = _merged(terms)
        self.size = prod(shape)
        self.weights = 0.5 * np.array(list(merged.values()), dtype=float)
        groups, order, positions = _gram_plan(shape, tuple(merged))
        self.positions = np.array(positions)
        index, columns = np.arange(self.size).reshape(shape), -2.0 * self.weights.take(order)
        gathers = [np.stack([index.transpose(p).ravel() for p in perms]) for _, perms in groups]
        every, stop, self.groups = np.concatenate(gathers), 0, []
        self.inverse = np.argsort(every, axis=1) + every.shape[1] * np.arange(len(every))[:, None]
        for g, (r, _) in zip(gathers, groups):
            span, stop = slice(stop, stop + len(g)), stop + len(g)
            self.groups.append((g.ravel(), (-1, r, self.size // r), columns[span, None], span))

    @cache
    def stacked(self, k: int) -> tuple:
        """The plan for ``k`` stacked extensions: each group extension by extension."""
        j, groups, shift = np.arange(k)[:, None], [], np.empty((k, len(self.weights)), dtype=int)
        for gather, dims, columns, span in self.groups:
            groups.append(((gather + self.size * j).ravel(), dims, np.tile(columns, (k, 1)),
                           slice(k * span.start, k * span.stop)))
            # entropy p of extension j sits at p + shift[j, p]
            shift[:, span] = (k - 1) * span.start + j * (span.stop - span.start)
        return (groups, self.positions + shift.take(self.positions, 1),
                self.inverse + self.size * shift[:, :, None])

    def half_information(self, t: np.ndarray) -> tuple[list[float], np.ndarray]:
        """Half the information of each pure extension in the stack ``t`` (rows:
        env (x) sink) and its gradient ``G_t`` (``df = Re <G_t, dt>``), from the
        Gram matrices ``g = M M^dagger`` of the marginals, eigenvalues at or
        below the clip dropped as in ``entropy_bits``: ``dS = -Tr[(log2 g + 1/ln
        2) dg]`` gives ``G_M = -2 L M``, ``L = log2 g + 1/ln 2`` on the kept
        eigenvalues.  Each row is bit-equal to a stack of that extension alone."""
        groups, positions, inverse = self.stacked(len(t))
        flat, s, parts = t.ravel(), np.empty(positions.size), []
        for gather, dims, columns, span in groups:
            m = flat.take(gather).reshape(dims)
            w, q = np.linalg.eigh(m @ m.conj().swapaxes(-1, -2))
            kept = w > EIG_CLIP
            log_w = np.log2(w, out=np.zeros(w.shape), where=kept)
            np.add.reduce(w * log_w, -1, out=s[span])
            np.add(log_w, 1.0 / log(2.0), out=log_w, where=kept)  # log_w becomes L
            log_w *= columns
            parts.append(((q * log_w[..., None, :]) @ q.conj().swapaxes(-1, -2) @ m).ravel())
        g_t = np.add.reduce(np.concatenate(parts).take(inverse), 1).reshape(t.shape)
        # one 1-D dot per extension: a 2-D product would round differently
        return [-float(s.take(row) @ self.weights) for row in positions], g_t


_kernel_plan = cache(_KernelPlan)  # one plan per (shape, terms)


def _descent(psi: np.ndarray):
    """The objective over ansatz parameters at the purification ``psi`` (rows:
    purifying system): ``t = V psi`` and the map from the kernel's value and
    ``G_t`` to the value and gradient, pulled back from ``G_V = G_t psi^dagger``."""
    psi_h, d_purify = psi.conj().T, psi.shape[0]

    def objective(params: np.ndarray):
        v, pullback = _isometry(params, d_purify)
        return v @ psi, lambda value, g_t: (value, pullback(g_t @ psi_h))

    return objective


def squashing_value(
    rho: DensityOperator,
    groups: Sequence[Iterable[str] | str],
    ansatz: SquashingAnsatz,
    flavor: str = FLAVOR_TOTAL,
) -> float:
    """Half the conditional information of the squashed extension at a fixed
    ansatz: an upper bound on the corresponding squashed entanglement."""
    _check_groups_cover(rho, groups)
    env = fresh_label(rho.layout.labels, "E")
    return 0.5 * _correlation(extend_by_squashing(rho, ansatz, env), groups, env, flavor)


def _check_groups_cover(rho: DensityOperator, groups: Sequence[Iterable[str] | str]) -> None:
    labels = [as_labels(g) for g in groups]
    _disjoint(*labels)
    seen = {lbl for g in labels for lbl in g}
    if seen != set(rho.layout.labels):
        raise LayoutError(
            f"groups {sorted(seen)} must cover all systems {sorted(rho.layout.labels)}"
        )


def _extension_dims(d_purify: int, d_env: int | None, d_sink: int | None) -> tuple[int, int]:
    """``(d_env, d_sink)``, each defaulting to ``d_purify``; refuses dims
    below 1, dims whose product cannot carry the purifying dimension, and
    a chart of more than 2^20 coordinates."""
    if d_purify < 1:
        raise ValueError(f"purifying dimension {d_purify} must be at least 1")
    d_env = int(d_env) if d_env is not None else d_purify
    d_sink = int(d_sink) if d_sink is not None else d_purify
    if min(d_env, d_sink) < 1:
        raise ValueError(f"extension dims d_env={d_env}, d_sink={d_sink} must both be at least 1")
    if d_env * d_sink < d_purify:
        raise ValueError(
            f"extension dims {d_env}x{d_sink} cannot carry the purifying dimension {d_purify}"
        )
    # at most 2^20 coordinates keep each n x d_purify complex matrix within 16 MB
    if (count := ansatz_param_count(d_env, d_sink, d_purify)) > 2 ** 20:
        raise ValueError(
            f"extension dims --d-env {d_env} --d-sink {d_sink} give {count} chart coordinates "
            f"at purifying dimension {d_purify}, more than 2^20; pass smaller --d-env and --d-sink"
        )
    return d_env, d_sink


# ---------------------------------------------------------------------------
# multi-start minimization
# ---------------------------------------------------------------------------

# Fresh starts draw each coordinate from N(0, INIT_SCALE^2), B's scaled by
# sqrt(d_purify / (n - d_purify)) so B's expected squared norm does not grow with n;
# every L-BFGS-B run of both searches stops on ``max_iters``, LBFGSB_FTOL or LBFGSB_GTOL.
INIT_SCALE = 0.25
RECHART_ITERS = 100  # iterations per chart of a descent (``_descend``)
LIVE_AMPLITUDES = 2048  # stacking pays at 16 and 256 amplitudes, not from ~1,000 (README)
LBFGSB_FTOL = 1e-7
LBFGSB_GTOL = 1e-8
ITERATION_LIMIT = "ITERATIONS REACHED LIMIT"  # in the driver's message when max_iters stops a run


def _check_ints(**values) -> None:
    """Refuse a count or seed that is not an integer (``bool`` included)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise TypeError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs shared by the state and channel searches: restart count,
    L-BFGS-B iteration limit (``maxiter``) and the master seed.  All runs
    are deterministic in ``seed``: restart ``j`` draws from PCG64 stream
    ``seed + j``."""

    restarts: int = 8
    max_iters: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        _check_ints(restarts=self.restarts, max_iters=self.max_iters, seed=self.seed)
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be positive")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be non-negative")


@dataclass(frozen=True)
class RestartRecord:
    """One restart: its value, L-BFGS-B iterations, whether it converged,
    kernel evaluations of the objective and of the gradient, the largest
    absolute entry of the gradient at its reported point, and the driver's
    termination message.  A run that starts at its restart's latest
    extension reuses that answer, which is not counted again.  A descent
    re-charted every ``RECHART_ITERS`` iterations counts as one run: its
    iterations and evaluations sum over its charts, and its message,
    convergence and gradient (in the last chart) are the last chart's."""

    index: int
    value: float
    iterations: int
    converged: bool
    nfev: int
    njev: int
    grad_norm: float
    message: str


@dataclass(frozen=True)
class BoundReport:
    """Outcome of a variational bound run: the reported value is the best
    over restarts (ties broken by lowest restart index) and is reproducible
    from the master seed."""

    description: str
    value: float
    flavor: str
    dims: tuple[int, int, int]  # (d_purify, d_env, d_sink)
    seed: int
    restarts: tuple[RestartRecord, ...]
    best_restart: int
    optimizer_ok: bool
    ansatz: SquashingAnsatz | None
    heuristic: bool = False

    def to_dict(self) -> dict:
        """Every field but the ansatz, with ``dims`` by name and one row per
        restart, listed last."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("ansatz", "restarts")}
        out["dims"] = dict(zip(("d_purify", "d_env", "d_sink"), self.dims))
        out["restarts"] = [asdict(r) for r in self.restarts]
        return out


def _fresh_start(rng: np.random.Generator, d_purify: int, d_env: int, d_sink: int) -> np.ndarray:
    x = INIT_SCALE * rng.standard_normal(ansatz_param_count(d_env, d_sink, d_purify))
    x[d_purify * d_purify:] *= sqrt(d_purify / max(1, d_env * d_sink - d_purify))
    return x


def _lbfgsb(objective, x0: np.ndarray, max_iters: int, last: tuple | None = None,
            scale: float | None = None):
    """One L-BFGS-B run of ``objective`` from ``x0`` through ``iterate``: yields
    the extension ``t`` at each point and is sent the kernel's value and ``G_t``.

    ``last`` is the restart's latest evaluation ``(t, value, G_t)``: if the
    extension at ``x0`` equals its ``t`` bit for bit, the run starts from
    that answer, pulled back through its own chart, and does not yield it.
    ``scale`` is the run's warm curvature scale (``iterate``).  Returns the
    result and the latest evaluation, ``last`` if the run made none."""
    t, finish = objective(x0)
    start = finish(*last[1:]) if last is not None and np.array_equal(t, last[0]) else None
    run = iterate(x0, max_iters=max_iters, ftol=LBFGSB_FTOL, gtol=LBFGSB_GTOL, start=start,
                  scale=scale)
    try:
        x = next(run)
        if start is not None:
            t, finish = objective(x)
        while True:
            last = (t, *(yield t))
            x = run.send(finish(*last[1:]))
            del finish  # before the next point's arrays are built
            t, finish = objective(x)
    except StopIteration as stop:
        return stop.value, last


def _rechart(x: np.ndarray, psi: np.ndarray) -> tuple:
    """The chart re-centred at ``x``: ``(x', W0 psi, W0)``, ``W0`` the unitary
    polar factor of ``V``'s top block, so that ``V(x') = V W0^dagger`` keeps
    the extension ``V psi`` and has a Hermitian positive semidefinite top
    block (``A = 0``).  At ``n = d_purify`` the top block is unitary and is
    its own polar factor, and ``x'`` is the chart's origin."""
    d = psi.shape[0]
    v = _isometry(x, d)[0]
    if len(v) == d:
        return np.zeros(d * d), v @ psi, v
    u, _, wh = np.linalg.svd(v[:d])
    w0 = u @ wh
    return _chart_coordinates(v @ w0.conj().T), w0 @ psi, w0


def _descend(psi: np.ndarray, x0: np.ndarray, max_iters: int, last: tuple | None = None,
             scale: float | None = None):
    """The descent over ansaetze at the purification ``psi`` from ``x0``, as
    L-BFGS-B runs (``_lbfgsb``) of at most ``RECHART_ITERS`` iterations each.
    A run stopped on its limit with iterations of ``max_iters`` left
    re-centres the chart at its point (``_rechart``), and the next run goes
    on from there, so no chart is followed far enough to distort it.  The
    latest evaluation ``last`` passes from run to run, so a run that starts
    where the one before ended (always at ``n = d_purify``, where the
    re-charted extension is ``I (V psi)``) reuses its answer; the first run
    starts with the warm ``scale``, the others cold, as the new chart's
    metric is not the old one's.  Returns the last run's result with its
    point mapped back to the chart at ``psi`` and the iterations and
    evaluations of all runs (its value, gradient in the last run's chart,
    message and scale are the last run's, the scale ``None`` after a
    re-chart, which no later run may start warm with), and the latest
    evaluation."""
    runs, w = [], None
    while True:
        res, last = yield from _lbfgsb(_descent(psi), x0, min(max_iters, RECHART_ITERS), last,
                                       scale)
        runs.append(res)
        max_iters -= res.nit
        if ITERATION_LIMIT not in res.message or max_iters == 0:
            break
        x0, psi, w0 = _rechart(res.x, psi)
        w, scale = w0 if w is None else w0 @ w, None
    if w is None:
        return res, last
    return replace(res, x=_chart_coordinates(_isometry(res.x, psi.shape[0])[0] @ w),
                   nit=sum(r.nit for r in runs), nfev=sum(r.nfev for r in runs),
                   njev=sum(r.njev for r in runs), scale=None), last


def _search(restart, plan: _KernelPlan, cfg: OptimizerConfig, sense: int,
            dims: tuple[int, int, int], **report) -> BoundReport:
    """Seeded restarts in lockstep, at most ``LIVE_AMPLITUDES // t.size`` (at
    least one) live: ``restart(rng)`` yields the extensions its L-BFGS-B runs
    evaluate, one ``plan`` call per round for all, and returns its runs and
    the final one, whose value and point it reports.  A run is one ascent
    or one descent (``_descend``, however many charts it took).  A restart
    has converged only if all its runs converged; its message is that of its
    first unconverged run, or the final run's if none; its iterations and
    evaluations sum over all its runs.  The best restart minimizes ``sense *
    value`` (lowest index first) and gives the reported ansatz."""
    def started(j: int) -> list:  # [index, restart, its pending extension]
        run = restart(np.random.Generator(np.random.PCG64(cfg.seed + j)))
        return [j, run, next(run)]

    fresh, records, solutions = map(started, range(cfg.restarts)), [None] * cfg.restarts, {}
    live = list(islice(fresh, max(1, LIVE_AMPLITUDES // plan.size)))
    while live:
        stack = live[0][2][None] if len(live) == 1 else np.array([t for _, _, t in live])
        values, g_t = plan.half_information(stack)
        for i in reversed(range(len(live))):  # a freed place keeps the lower indices
            j, run, _ = live[i]
            try:
                live[i][2] = run.send((values[i], g_t[i]))
            except StopIteration as stop:
                runs, final = stop.value
                live[i:i + 1] = islice(fresh, 1)  # the next restart, if any, takes the place
                stopped = next((r for r in runs if not r.success), final)
                records[j], solutions[j] = RestartRecord(
                    j, float(final.fun), sum(int(r.nit) for r in runs), bool(stopped.success),
                    sum(int(r.nfev) for r in runs), sum(int(r.njev) for r in runs),
                    float(np.abs(final.jac).max()), str(stopped.message)), final.x
    best = min(range(cfg.restarts), key=lambda j: (sense * records[j].value, j))
    return BoundReport(
        value=records[best].value, dims=dims, seed=cfg.seed, restarts=tuple(records),
        best_restart=best, optimizer_ok=all(r.converged for r in records),
        ansatz=_unchecked(SquashingAnsatz, *dims, solutions[best]), **report,
    )


def squashed_multi_upper(
    rho: DensityOperator,
    groups: Sequence[Iterable[str] | str],
    flavor: str = FLAVOR_TOTAL,
    d_env: int | None = None,
    d_sink: int | None = None,
    cfg: OptimizerConfig | None = None,
) -> BoundReport:
    """Variational upper bound on the multipartite squashed entanglement of
    the chosen flavor over the given groups; with two groups both flavors
    give the bipartite bound, ``min (1/2) I(A;B|E)`` on the extension.

    The default extension dimensions are ``d_env = d_sink = rank(rho)``; any
    finite choice still yields a sound upper bound, so the dimensions used
    are recorded in the report.
    """
    _check_groups_cover(rho, groups)
    # axes of the pure amplitude tensor: 0 = env, 1 = sink, 2 + j = system j
    groups_axes = [tuple(p + 2 for p in rho.layout.positions(g)) for g in groups]
    cfg = cfg or OptimizerConfig()
    psi = purification_matrix(rho.matrix)  # one row per nonzero eigenvalue
    d_purify = psi.shape[0]
    dims = (d_purify, *_extension_dims(d_purify, d_env, d_sink))
    plan = _kernel_plan(dims[1:] + rho.layout.dims,
                        tuple(info_terms(groups_axes, (0,), flavor)))

    def restart(rng):
        res, _ = yield from _descend(psi, _fresh_start(rng, *dims), cfg.max_iters)
        return [res], res

    return _search(
        restart, plan, cfg, 1, dims,
        description=f"squashed upper bound ({flavor}) over {len(groups)} groups",
        flavor=flavor,
    )


# ---------------------------------------------------------------------------
# key bounds
# ---------------------------------------------------------------------------

def _check_esq(esq_value: float) -> None:
    if not 0.0 <= esq_value < inf:
        raise ValueError(f"esq {esq_value} must be finite and >= 0")


def key_length_bound(
    esq_value: float,
    eps: float,
    key_dim: int,
    parties: int | None = None,
) -> float:
    """Right-hand side of the key-length bound for an ``eps``-approximate
    private state, arranged so the comparison is against ``log2 K``.

    Bipartite (no ``parties``): ``esq + f(sqrt(eps), K)`` with ``f`` the
    CMI continuity term :func:`cmi_continuity` at ``log_dim = log2 K``.
    Multipartite (``m = parties``, at least 2): ``(2/m) (esq + 2m
    f(sqrt(eps), K))``, one bound for both flavors of multipartite squashed
    entanglement.  That is the form the former default constants ``(4, 4)``
    gave; no derivation in this package backs it yet (ROADMAP item 17).
    """
    _check_esq(esq_value)
    _check_ints(key_dim=key_dim, **({} if parties is None else {"parties": parties}))
    if key_dim < 2:
        raise ValueError(f"key dimension {key_dim} < 2")
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps {eps} outside [0, 1]")
    f = cmi_continuity(sqrt(eps), log2(key_dim))
    if parties is None:
        return esq_value + f
    if parties < 2:
        raise ValueError(f"the multipartite bound needs a party count of at least 2, got {parties}")
    return (2.0 / parties) * (esq_value + 2 * parties * f)


def key_rate_bound(esq_value: float, eps: float, rounds: int) -> float:
    """Finite-round key-rate bound
    ``esq/(1-2 sqrt(eps)) + 2(1+sqrt(eps)) h2(sqrt(eps)/(1+sqrt(eps))) / (n (1-2 sqrt(eps)))``.

    For an LOCC protocol on ``rho^(x n)`` whose output ``omega_n`` is
    ``eps``-close to a private state with ``log2 K_n = n R``, the bipartite
    bound gives ``n R <= E_sq(omega_n) + 2 sqrt(eps) n R + 2 g(sqrt(eps))``
    (``g(x) = (1+x) h2(x/(1+x))``), and ``E_sq(omega_n) <= n E_sq(rho)`` by
    LOCC monotonicity and additivity (Christandl & Winter, quant-ph/0308088);
    solving for ``R`` gives this bound.  It grows with ``esq``, so any sound
    upper bound on ``E_sq(rho)`` may be passed.  Only valid when ``1 - 2
    sqrt(eps) > 0``; larger ``eps`` raises.
    """
    _check_esq(esq_value)
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps {eps} outside [0, 1]")
    _check_ints(rounds=rounds)
    if rounds < 1:
        raise ValueError(f"rounds {rounds} < 1")
    denom = 1.0 - 2.0 * sqrt(eps)
    if denom <= 0.0:
        raise ValueError(
            f"key rate bound requires 1 - 2*sqrt(eps) > 0; eps = {eps} gives {denom:.6g}"
        )
    return esq_value / denom + cmi_continuity(sqrt(eps), 0.0) / (rounds * denom)


# ---------------------------------------------------------------------------
# channel quantity (heuristic)
# ---------------------------------------------------------------------------

def _sunk_coupling(
    v_chan: np.ndarray, out_dims: tuple[int, ...], keep_pos: list[int]
) -> np.ndarray:
    """The channel dilation ``D``, regrouped to ``(sunk | kept, input)``,
    restricted to the span of sunk outputs it can reach: ``C = W^dagger D``
    with ``W`` the left singular vectors of ``D`` whose ``s^2`` exceed the
    clip, shaped ``(d_purify, d_keep, d_in)``.

    For an input ``u`` on reference (x) input, the channel output regrouped
    to ``(reference (x) kept | sunk)`` is a purification of the state on
    reference (x) kept outputs, with the sunk outputs as purifier; within
    the reachable span its amplitudes are ``psi[p, r, k] = sum_a C[p, k, a]
    u[r, a]``, linear in ``u``, and ``d_purify <= d_in * d_keep``.
    """
    d_in = v_chan.shape[1]
    sunk_pos = [i for i in range(len(out_dims)) if i not in keep_pos]
    d_keep = prod(out_dims[i] for i in keep_pos)
    dil = v_chan.reshape(out_dims + (d_in,)).transpose(sunk_pos + keep_pos + [len(out_dims)])
    dil = dil.reshape(-1, d_keep * d_in)
    w, s, _ = np.linalg.svd(dil, full_matrices=False)
    support = w[:, s ** 2 > EIG_CLIP]
    return (support.conj().T @ dil).reshape(-1, d_keep, d_in)


def _channel_purification(params: np.ndarray, coupling: np.ndarray):
    """Purification ``psi`` (rows: reachable sunk span, columns: reference
    (x) kept) of the channel output at the unit input ``u = x/|x|``, with
    ``params`` the real, then imaginary, parts of the ``d_ref x d_in``
    matrix ``x``; and the pullback taking ``G_psi`` through the coupling
    and the normalization (which removes the radial part) to ``params``."""
    half = params.size // 2
    x = (params[:half] + 1j * params[half:]).reshape(-1, coupling.shape[2])
    norm = float(np.linalg.norm(x))
    u = x / norm
    psi = np.einsum("pka,ra->prk", coupling, u)

    def pullback(g_psi: np.ndarray) -> np.ndarray:
        g_u = np.einsum("prk,pka->ra", g_psi.reshape(psi.shape), coupling.conj())
        g_x = (g_u - np.vdot(u, g_u).real * u) / norm
        return np.concatenate((g_x.real.ravel(), g_x.imag.ravel()))

    return psi.reshape(coupling.shape[0], -1), pullback


def _ascent(coupling: np.ndarray, ansatz_params: np.ndarray):
    """The objective over channel inputs at a fixed ansatz, negated for the
    minimizer: ``t = V psi`` and the map from the kernel's value and ``G_t``
    to the negated value and gradient, pulled back from ``G_psi = V^dagger
    G_t`` through :func:`_channel_purification`."""
    v = _isometry(ansatz_params, coupling.shape[0])[0]
    vh = v.conj().T

    def negated(x: np.ndarray):
        psi, pullback = _channel_purification(x, coupling)
        return v @ psi, lambda value, g_t: (-value, -pullback(vh @ g_t))

    return negated


def channel_squashed_upper(
    channel: Isometry,
    keep: Iterable[str] | str | None = None,
    d_env: int | None = None,
    d_sink: int | None = None,
    cfg: OptimizerConfig | None = None,
    rounds: int = 3,
) -> BoundReport:
    """Alternating search for the channel's squashed-entanglement quantity:
    exact-gradient ascent over pure inputs (reference dimension equal to
    the input dimension) alternating with exact-gradient descent over
    squashing ansaetze on the output state.

    The output state on reference (x) kept outputs is purified by the
    channel's own sunk outputs, restricted once per call to the span they
    can reach (one SVD of the dilation), so no evaluation diagonalizes the
    state; the reported ``d_purify`` is the dimension of that span, at
    most ``d_in * d_keep``.

    Every run but the first and the two fresh final descents starts where
    the run before ended and reuses that answer, unless that run was a
    re-charted descent, whose point is mapped back with rounding.  The later
    rounds' descent and the first final descent also start warm, with the
    curvature scale of the descent before them; the first round, every
    ascent, the fresh final descents and every run after a re-chart start
    cold.

    The outer problem is a maximum, so the returned value is HEURISTIC:
    neither a certified upper nor lower bound.  The input dimension is
    capped at 4.
    """
    _check_ints(rounds=rounds)
    if rounds < 1:
        raise ValueError(f"rounds {rounds} must be at least 1")
    cfg = cfg or OptimizerConfig()
    d_in = channel.input_layout.total_dim
    if d_in > 4:
        raise ValueError(f"input dimension {d_in} exceeds the desk-scale guard of 4")
    keep = as_labels(keep) if keep is not None else channel.output_layout.labels[:1]
    if not keep:
        raise LayoutError("keep must name at least one channel output")
    keep_pos = list(channel.output_layout.positions(keep))  # refuses an unknown label
    coupling = _sunk_coupling(channel.matrix, channel.output_layout.dims, keep_pos)
    d_purify, d_keep, _ = coupling.shape
    d_ref = d_in  # reference system of the pure input, same dimension as the channel input
    dims = (d_purify, *_extension_dims(d_purify, d_env, d_sink))
    plan = _kernel_plan(dims[1:] + (d_ref, d_keep),
                        tuple(info_terms([(2,), (3,)], (0,), FLAVOR_TOTAL)))

    def descend(psi_params: np.ndarray, x0: np.ndarray, last: tuple | None, scale: float | None):
        """Exact-gradient descent over ansaetze at a fixed input."""
        return _descend(_channel_purification(psi_params, coupling)[0], x0, cfg.max_iters, last,
                        scale)

    def restart(rng):
        psi_params = rng.standard_normal(2 * d_ref * d_in)
        ansatz_params = _fresh_start(rng, *dims)
        # the restart's latest evaluation, and the curvature scale of its
        # latest descent, passed to the next descent
        runs, last, down = [], None, None
        for _ in range(rounds):
            res, last = yield from descend(psi_params, ansatz_params, last, down)
            runs.append(res)
            ansatz_params, down = res.x, res.scale
            res, last = yield from _lbfgsb(_ascent(coupling, ansatz_params), psi_params,
                                           cfg.max_iters, last)
            runs.append(res)
            psi_params = res.x
        # final descents (current ansatz, warm, plus two cold fresh starts) so
        # the reported value is a well-minimized squashed bound at this input
        for x0, scale in ((ansatz_params, down), (_fresh_start(rng, *dims), None),
                          (_fresh_start(rng, *dims), None)):
            res, last = yield from descend(psi_params, x0, last, scale)
            runs.append(res)
        return runs, min(runs[-3:], key=lambda r: float(r.fun))

    return _search(
        restart, plan, cfg, -1, dims,
        description="channel squashed-entanglement search (heuristic)",
        flavor=FLAVOR_TOTAL,
        heuristic=True,
    )


__all__ = [
    "SquashingAnsatz",
    "OptimizerConfig",
    "RestartRecord",
    "BoundReport",
    "extend_by_squashing",
    "squashing_value",
    "squashed_multi_upper",
    "key_length_bound",
    "key_rate_bound",
    "channel_squashed_upper",
    "ansatz_param_count",
]
