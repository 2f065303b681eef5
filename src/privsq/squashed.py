"""Variational upper bounds on squashed entanglement and the key-bound
arithmetic built on them.

Every extension of a state arises by applying a channel to the purifying
system of a purification.  The ansatz here parameterizes that channel as an
isometry ``E' -> E (x) F`` (leading columns of the Cayley transform ``(I -
iH/2)^{-1} (I + iH/2)`` of a Hermitian generator ``H`` given by its ``n^2``
real coordinates), applies it to the canonical purification, and traces
out ``F``.  Half the conditional (multipartite) information of the result
is an upper bound on the corresponding squashed entanglement *for every
ansatz*, so minimizing over the generator with several seeded restarts
yields sound, reproducible upper bounds.  The kernel weights the merged
information terms by half their coefficients at ``t = V psi``.  Each search
builds one ``_KernelPlan``, all that an evaluation reads without the
parameters or ``psi``, so an evaluation makes only the calls that depend on
them: one inverse of ``I - iH/2`` (``_isometry``), one ``eigh`` per Gram
size of ``t`` and the pullbacks.  The state search descends over ``V``
(``_descent``, ``G_V = G_t psi^dagger``); the channel search alternates
that with an ascent over pure channel inputs (``_ascent``, ``G_psi =
V^dagger G_t``), purifying each output with the channel's own sunk outputs
restricted to the span they reach, so no evaluation diagonalizes it.

Both searches make every L-BFGS-B run through one driver (``_lbfgsb``, one
option set), seed and start their restarts the same way and assemble their
reports in one place (``_search``).  That driver calls the module-level
``minimize``, the numpy L-BFGS of :mod:`privsq.lbfgs`, which is what
L-BFGS-B does on a problem without bounds; the tests and the benchmark's
span tracer patch that one name.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from functools import cache
from math import inf, log, log2, prod, sqrt
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
from .lbfgs import minimize
from .tensor import (
    EIG_CLIP,
    DensityOperator,
    Isometry,
    _unchecked,
    purification_matrix,
)


# ---------------------------------------------------------------------------
# ansatz
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SquashingAnsatz:
    """Parameterized isometry from the purifying system into kept (x) sunk.

    ``params`` holds the ``n^2`` real coordinates (``n = d_env * d_sink``)
    of a Hermitian generator ``H``: its diagonal, then the real parts and
    then the imaginary parts of its strict upper triangle (row-major).  The
    first ``d_purify`` columns of the Cayley transform ``(I - iH/2)^{-1} (I +
    iH/2)`` form the isometry, so every parameter vector realizes an exact
    isometry; ``params = 0`` gives the first ``d_purify`` columns of ``I``.
    """

    d_purify: int
    d_env: int
    d_sink: int
    params: np.ndarray

    def __init__(self, d_purify: int, d_env: int, d_sink: int, params: np.ndarray):
        d_purify = int(d_purify)
        d_env, d_sink = _extension_dims(d_purify, int(d_env), int(d_sink))
        count = ansatz_param_count(d_env, d_sink)
        params = np.array(params, dtype=float).reshape(-1)
        if params.shape != (count,):
            raise ValueError(f"expected {count} parameters, got {params.shape[0]}")
        _unchecked(self, d_purify, d_env, d_sink, params)

    def isometry_matrix(self) -> np.ndarray:
        return _isometry(self.params, _chart(self.d_env * self.d_sink), self.d_purify)[1]

    def to_isometry(
        self, input_label: str = "Epur", env_label: str = "E", sink_label: str = "F"
    ) -> Isometry:
        return _unchecked(Isometry, SystemLayout(((input_label, self.d_purify),)),
                          SystemLayout(((env_label, self.d_env), (sink_label, self.d_sink))),
                          self.isometry_matrix())


@cache
def _chart(n: int) -> tuple:
    """``(n, index, sign, folded, half)``: the float view of the ``n x n``
    generator ``H`` (re, im per entry, row-major) is ``params[index] *
    sign``, so the gradient of ``df = Re Tr[gamma^dagger dH]`` is
    ``bincount(index, sign * g)``, ``g`` the float view of ``gamma``; with
    re and im swapped, that of ``-iH/2`` is ``params[folded] * half``."""
    rows, cols = np.triu_indices(n, 1)
    upper, diag = n + np.arange(rows.size), np.arange(n)
    index, sign = np.empty((n, n, 2), dtype=np.intp), np.zeros((n, n, 2))
    index[diag, diag], sign[diag, diag] = diag[:, None], (1.0, 0.0)
    index[rows, cols] = index[cols, rows] = np.stack((upper, upper + rows.size), -1)
    sign[rows, cols], sign[cols, rows] = (1.0, 1.0), (1.0, -1.0)
    index, sign = index.ravel(), sign.ravel()
    swap = np.arange(2 * n * n) ^ 1
    return n, index, sign, index[swap], 0.5 * sign[swap] * np.tile((1.0, -1.0), n * n)


def _isometry(params: np.ndarray, chart: tuple, d_purify: int) -> tuple[np.ndarray, np.ndarray]:
    """``C = (I - iH/2)^{-1}``, ``H`` the generator with coordinates ``params``
    in the ``chart`` (:func:`_chart`), and ``V``, the first ``d_purify``
    columns of the Cayley transform ``U = (I - iH/2)^{-1} (I + iH/2)``.

    ``I - iH/2`` has every singular value at least 1, so its inverse ``C``
    always exists.  As ``I + iH/2 = 2I - (I - iH/2)``, ``U = 2C - I``.
    """
    n, _, _, folded, half = chart
    a = (params.take(folded) * half).view(complex).reshape(n, n)
    a.reshape(-1)[::n + 1] += 1.0
    c = np.linalg.inv(a)
    v = 2.0 * c[:, :d_purify]
    v.reshape(-1)[:d_purify * d_purify:d_purify + 1] -= 1.0
    return c, v


def _isometry_pullback(c: np.ndarray, g_v: np.ndarray, chart: tuple) -> np.ndarray:
    """The gradient in ``params`` of ``df = Re <G_V, dV>`` at ``C`` from
    :func:`_isometry`: as ``dU = i C dH C``, the gradient in ``H`` is
    ``gamma = -i C^dagger G_V C[:, :d_purify]^dagger``."""
    n, index, sign = chart[:3]
    gamma = -1j * (c.conj().T @ g_v) @ c[:, :g_v.shape[1]].conj().T
    return np.bincount(index, sign * gamma.view(float).ravel(), n * n)


def ansatz_param_count(d_env: int, d_sink: int) -> int:
    return (d_env * d_sink) ** 2


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
    :func:`_merged` and weighted by half their coefficients: the chart of
    the ``n x n`` generator (:func:`_chart`); the :func:`_gram_plan` groups
    of the marginals as flat gathers, each with its plan-order weight
    column ``-2 * weight``; and the inverse of all gathers, whose row ``i``
    brings block ``i`` back to the axis order of the tensor."""

    def __init__(self, shape: tuple[int, ...], terms: tuple):
        merged = _merged(terms)
        self.weights = 0.5 * np.array(list(merged.values()), dtype=float)
        groups, order, positions = _gram_plan(shape, tuple(merged))
        self.chart, self.positions = _chart(shape[0] * shape[1]), np.array(positions)
        index, columns = np.arange(prod(shape)).reshape(shape), -2.0 * self.weights.take(order)
        gathers = [np.stack([index.transpose(p).ravel() for p in perms]) for _, perms in groups]
        every, stop, self.groups = np.concatenate(gathers), 0, []
        self.inverse = np.argsort(every, axis=1) + every.shape[1] * np.arange(len(every))[:, None]
        for g, (r, _) in zip(gathers, groups):
            span, stop = slice(stop, stop + len(g)), stop + len(g)
            self.groups.append((g.ravel(), (len(g), r, -1), columns[span, None], span))

    def half_information(self, t: np.ndarray) -> tuple[float, np.ndarray]:
        """Half the information of the pure extension ``t`` (rows: env (x)
        sink) and its gradient ``G_t`` (``df = Re <G_t, dt>``), from the Gram
        matrices ``g = M M^dagger`` of the marginals, eigenvalues at or below
        the clip dropped as in ``entropy_bits``: ``dS = -Tr[(log2 g + 1/ln 2)
        dg]`` gives ``G_M = -2 L M``, ``L = log2 g + 1/ln 2`` on the kept
        eigenvalues."""
        flat, s, parts = t.ravel(), np.empty(len(self.weights)), []
        for gather, dims, columns, span in self.groups:
            m = flat.take(gather).reshape(dims)
            w, q = np.linalg.eigh(m @ m.conj().swapaxes(-1, -2))
            kept = w > EIG_CLIP
            log_w = np.log2(w, out=np.zeros(w.shape), where=kept)
            np.add.reduce(w * log_w, -1, out=s[span])
            np.add(log_w, 1.0 / log(2.0), out=log_w, where=kept)  # log_w becomes L
            log_w *= columns
            parts.append(((q * log_w[..., None, :]) @ q.conj().swapaxes(-1, -2) @ m).ravel())
        g_t = np.add.reduce(np.concatenate(parts).take(self.inverse), 0).reshape(t.shape)
        return -float(s.take(self.positions) @ self.weights), g_t


@cache
def _kernel_plan(shape: tuple[int, ...], terms: tuple) -> _KernelPlan:
    return _KernelPlan(shape, terms)


def _descent(plan: _KernelPlan, psi: np.ndarray):
    """The objective over ansatz parameters at the purification ``psi``
    (rows: purifying system): half the information of ``t = V psi`` and its
    gradient, pulled back from ``G_V = G_t psi^dagger``."""
    psi_h, d_purify = psi.conj().T, psi.shape[0]

    def value_and_grad(params: np.ndarray) -> tuple[float, np.ndarray]:
        c, v = _isometry(params, plan.chart, d_purify)
        value, g_t = plan.half_information(v @ psi)
        return value, _isometry_pullback(c, g_t @ psi_h, plan.chart)

    return value_and_grad


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
    a generator of more than 2^20 coordinates."""
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
    # n = d_env d_sink <= 1024 keeps each n x n complex matrix of the chart within 16 MB
    if ansatz_param_count(d_env, d_sink) > 2 ** 20:
        raise ValueError(
            f"extension dims --d-env {d_env} --d-sink {d_sink} give "
            f"{ansatz_param_count(d_env, d_sink)} generator coordinates, more than 2^20; "
            f"pass --d-env and --d-sink whose product is at most 1024"
        )
    return d_env, d_sink


# ---------------------------------------------------------------------------
# multi-start minimization
# ---------------------------------------------------------------------------

# Fresh starts draw each coordinate from N(0, INIT_SCALE^2); every L-BFGS-B
# run of both searches stops on ``max_iters``, LBFGSB_FTOL or LBFGSB_GTOL.
INIT_SCALE = 0.25
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
    objective and gradient evaluations, the largest absolute entry of the
    gradient at its reported point, and the driver's termination message."""

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


def _fresh_start(rng: np.random.Generator, n_params: int) -> np.ndarray:
    return INIT_SCALE * rng.standard_normal(n_params)


def _lbfgsb(fn, x0: np.ndarray, cfg: OptimizerConfig):
    """One L-BFGS-B run of ``fn``, which returns the value and its exact
    gradient.  Every run of both searches is made here, through the
    module-level name ``minimize``."""
    return minimize(fn, x0, max_iters=cfg.max_iters, ftol=LBFGSB_FTOL, gtol=LBFGSB_GTOL)


def _search(restart, cfg: OptimizerConfig, sense: int, dims: tuple[int, int, int],
            **report) -> BoundReport:
    """Seeded restarts: ``restart(rng)`` returns its L-BFGS-B runs and the
    final one, whose value and point it reports.  A restart has converged
    only if all its runs converged; its message is that of its first
    unconverged run, or the final run's if none; its iterations and
    evaluations sum over all its runs.  The best restart minimizes
    ``sense * value`` (lowest index first) and gives the reported ansatz."""
    records, solutions = [], []
    for j in range(cfg.restarts):
        runs, final = restart(np.random.Generator(np.random.PCG64(cfg.seed + j)))
        stopped = next((r for r in runs if not r.success), final)
        records.append(RestartRecord(
            j, float(final.fun), sum(int(r.nit) for r in runs), bool(stopped.success),
            sum(int(r.nfev) for r in runs), sum(int(r.njev) for r in runs),
            float(np.abs(final.jac).max()), str(stopped.message),
        ))
        solutions.append(final.x)
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
    d_env, d_sink = _extension_dims(d_purify, d_env, d_sink)
    plan = _kernel_plan((d_env, d_sink) + rho.layout.dims,
                        tuple(info_terms(groups_axes, (0,), flavor)))
    n_params = ansatz_param_count(d_env, d_sink)

    def restart(rng):
        res = _lbfgsb(_descent(plan, psi), _fresh_start(rng, n_params), cfg)
        return [res], res

    return _search(
        restart, cfg, 1, (d_purify, d_env, d_sink),
        description=f"squashed upper bound ({flavor}) over {len(groups)} groups",
        flavor=flavor,
    )


# ---------------------------------------------------------------------------
# key bounds
# ---------------------------------------------------------------------------

MODE_BIPARTITE = "bipartite"
MODE_MULTI_TOTAL = "multi_total"
MODE_MULTI_DUAL = "multi_dual"
_MODES = (MODE_BIPARTITE, MODE_MULTI_TOTAL, MODE_MULTI_DUAL)


def _check_esq(esq_value: float) -> None:
    if not 0.0 <= esq_value < inf:
        raise ValueError(f"esq {esq_value} must be finite and >= 0")


def key_length_bound(
    esq_value: float,
    eps: float,
    key_dim: int,
    mode: str = MODE_BIPARTITE,
    parties: int | None = None,
) -> float:
    """Right-hand side of the key-length bound for an ``eps``-approximate
    private state, arranged so the comparison is against ``log2 K``.

    Bipartite (no ``parties``): ``esq + f(sqrt(eps), K)`` with ``f`` the
    CMI continuity term :func:`cmi_continuity` at ``log_dim = log2 K``.
    Multipartite, either flavor, ``m = parties``: ``(2/m) (esq + 2m
    f(sqrt(eps), K))``.  That is the form the former default constants
    ``(4, 4)`` gave; no derivation in this package backs it yet (ROADMAP
    item 17).
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}; have {_MODES}")
    if mode == MODE_BIPARTITE and parties is not None:
        raise ValueError(f"parties {parties!r} is for the multipartite modes; "
                         f"the {MODE_BIPARTITE!r} mode takes none")
    _check_esq(esq_value)
    _check_ints(key_dim=key_dim, **({} if parties is None else {"parties": parties}))
    if key_dim < 2:
        raise ValueError(f"key dimension {key_dim} < 2")
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps {eps} outside [0, 1]")
    f = cmi_continuity(sqrt(eps), log2(key_dim))
    if mode == MODE_BIPARTITE:
        return esq_value + f
    if parties is None or parties < 2:
        raise ValueError(f"mode {mode!r} needs a party count of at least 2, got {parties}")
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


def _ascent(plan: _KernelPlan, coupling: np.ndarray, ansatz_params: np.ndarray):
    """The objective over channel inputs at a fixed ansatz, negated for the
    minimizer: half the information of ``t = V psi`` and its gradient,
    pulled back from ``G_psi = V^dagger G_t`` through
    :func:`_channel_purification`."""
    v = _isometry(ansatz_params, plan.chart, coupling.shape[0])[1]
    vh = v.conj().T

    def negated(x: np.ndarray) -> tuple[float, np.ndarray]:
        psi, pullback = _channel_purification(x, coupling)
        value, g_t = plan.half_information(v @ psi)
        return -value, -pullback(vh @ g_t)

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
    d_env, d_sink = _extension_dims(d_purify, d_env, d_sink)
    n_ansatz = ansatz_param_count(d_env, d_sink)
    plan = _kernel_plan((d_env, d_sink, d_ref, d_keep),
                        tuple(info_terms([(2,), (3,)], (0,), FLAVOR_TOTAL)))

    def descend(psi_params: np.ndarray, x0: np.ndarray):
        """Exact-gradient descent over ansaetze at a fixed input."""
        return _lbfgsb(_descent(plan, _channel_purification(psi_params, coupling)[0]), x0, cfg)

    def restart(rng):
        psi_params = rng.standard_normal(2 * d_ref * d_in)
        ansatz_params = _fresh_start(rng, n_ansatz)
        runs = []
        for _ in range(rounds):
            runs.append(descend(psi_params, ansatz_params))
            ansatz_params = runs[-1].x
            runs.append(_lbfgsb(_ascent(plan, coupling, ansatz_params), psi_params, cfg))
            psi_params = runs[-1].x
        # final descents (current ansatz plus fresh starts) so the reported
        # value is a well-minimized squashed bound at this input
        finals = [descend(psi_params, x0) for x0 in (
            ansatz_params, _fresh_start(rng, n_ansatz), _fresh_start(rng, n_ansatz),
        )]
        return runs + finals, min(finals, key=lambda r: float(r.fun))

    return _search(
        restart, cfg, -1, (d_purify, d_env, d_sink),
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
    "MODE_BIPARTITE",
    "MODE_MULTI_TOTAL",
    "MODE_MULTI_DUAL",
]
