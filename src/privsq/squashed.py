"""Variational upper bounds on squashed entanglement, private-state identity
residuals, and the key-bound arithmetic built on them.

Every extension of a state arises by applying a channel to the purifying
system of a purification.  The ansatz here parameterizes that channel as an
isometry ``E' -> E (x) F`` (leading columns of ``exp(iH)`` for a Hermitian
generator ``H`` given by its ``n^2`` real coordinates), applies it to the
canonical purification, and traces out ``F``.  Half the conditional
(multipartite) information of the result is an upper bound on the
corresponding squashed entanglement *for every ansatz*, so minimizing over
the generator with several seeded restarts yields sound, reproducible upper
bounds.  One kernel, ``_extension_value_and_grad``, gives half the
information of the pure extension ``t = V psi`` and its gradient ``G_t``.
Each parameterization is one forward map that returns its pullback:
``_isometry`` (through ``exp(iH)`` by the Daleckii-Krein formula) and
``_channel_purification``.  What depends only on the shape and the terms
(the gathers that matricize every term, the index maps of ``H``) is
cached, so one value and gradient makes one gather and one ``eigh`` for
``H`` and one ``exp(iw/2)`` for both ``V`` and the Daleckii-Krein matrix;
one gather of every marginal from ``t``; per Gram size one stacked Gram
product, one batched ``eigh`` and one stacked ``(q s) q^dagger M``; one
clip over all eigenvalues; and one gather-and-sum back.  The state
search descends over ``V``, with ``G_V = G_t psi^dagger``; the channel
search alternates that with an ascent over pure channel inputs, with
``G_psi = V^dagger G_t``, purifying each output with the channel's own
sunk outputs restricted to the span they reach, so the purification
is linear in the input and no evaluation diagonalizes it.

Both searches make every L-BFGS-B run through one driver (``_lbfgsb``, one
option set), seed and start their restarts the same way and assemble their
reports in one place (``_search``).  That driver calls the module-level
``minimize``, which imports ``scipy.optimize`` on its first call, so
importing privsq and the commands that run no search never load it.
``minimize`` is the one deferred binding; the tests and the benchmark's
span tracer patch it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from functools import cache, partial
from itertools import accumulate
from math import inf, log, log2, prod, sqrt
from typing import Iterable, Sequence

import numpy as np

from .entropy import (
    FLAVOR_DUAL,
    FLAVOR_TOTAL,
    Terms,
    _disjoint,
    _group_entropy,
    _h2_term,
    _information,
    _merged,
    cmi_continuity,
)
from .entropy import info_terms as _info_terms
from .layout import LayoutError, SystemLayout, as_labels, fresh_label
from .tensor import (
    EIG_CLIP,
    DensityOperator,
    Isometry,
    PureStateVector,
    _unchecked,
    purification_matrix,
    purify,
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
    first ``d_purify`` columns of ``exp(iH)`` form the isometry, so every
    parameter vector realizes an exact isometry.
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
        return _isometry(self.params, self.d_env * self.d_sink, self.d_purify)[0]

    def to_isometry(
        self, input_label: str = "Epur", env_label: str = "E", sink_label: str = "F"
    ) -> Isometry:
        return _unchecked(Isometry, SystemLayout(((input_label, self.d_purify),)),
                          SystemLayout(((env_label, self.d_env), (sink_label, self.d_sink))),
                          self.isometry_matrix())


@cache
def _generator_map(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``H`` as a gather from its ``n^2`` coordinates: the float view of the
    ``n x n`` generator (re, im per entry, row-major) is ``params[index] *
    sign``.  The gradient of ``df = Re Tr[gamma^dagger dH]`` is the adjoint
    scatter, ``bincount(index, sign * g)`` with ``g`` the float view of
    ``gamma``."""
    rows, cols = np.triu_indices(n, 1)
    upper, diag = n + np.arange(rows.size), np.arange(n)
    index, sign = np.empty((n, n, 2), dtype=np.intp), np.zeros((n, n, 2))
    index[diag, diag], sign[diag, diag] = diag[:, None], (1.0, 0.0)
    index[rows, cols] = index[cols, rows] = np.stack((upper, upper + rows.size), -1)
    sign[rows, cols], sign[cols, rows] = (1.0, 1.0), (1.0, -1.0)
    return index.ravel(), sign.ravel()


def _expi_divided_differences(w: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Daleckii-Krein matrix of ``x -> exp(ix)`` at the eigenvalues ``w``,
    given ``e = exp(iw/2)``: ``F[j, k] = (e^{i w_j} - e^{i w_k}) / (w_j - w_k)``,
    and ``i e^{i w_j}`` on the diagonal, so that ``d exp(iH)[E] = Q (F * (Q^dagger
    E Q)) Q^dagger``.  Written as ``i e_j e_k sinc((w_j - w_k)/2)``, which tends
    to ``i e^{i w_j}`` on (near-)degenerate pairs without cancellation."""
    x = w / (2 * np.pi)
    return 1j * np.outer(e, e) * np.sinc(x[:, None] - x[None, :])


def _isometry(params: np.ndarray, n: int, d_purify: int):
    """The first ``d_purify`` columns ``V`` of ``exp(iH)``, ``H`` the ``n x n``
    generator with coordinates ``params``, and the pullback taking ``G_V``
    (``df = Re <G_V, dV>``) to the gradient in ``params``.

    The pullback is the Daleckii-Krein formula in the eigenbasis of ``H``.
    The gradient on ``U = exp(iH)`` is ``G_V`` padded with zero columns, so
    ``Q^dagger G_U Q`` only needs the first ``d_purify`` rows of ``Q``.
    """
    index, sign = _generator_map(n)
    w, q = np.linalg.eigh((params[index] * sign).view(complex).reshape(n, n))
    qh = q.conj().T
    e = np.exp(0.5j * w)

    def pullback(g_v: np.ndarray) -> np.ndarray:
        rotated = qh @ g_v @ q[:d_purify]
        gamma = q @ (_expi_divided_differences(w, e).conj() * rotated) @ qh
        return np.bincount(index, sign * gamma.view(float).ravel(), n * n)

    return (q * (e * e)) @ qh[:, :d_purify], pullback


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


def _smaller_side_first(shape: tuple[int, ...], axes: tuple[int, ...]) -> tuple[int, tuple]:
    """``(r, perm)`` for the marginal on ``axes`` of a pure tensor shaped
    ``shape``.  ``S(X) = S(X^c)``, so its spectrum comes from the Gram
    matrix of the smaller side of the matricization: ``r`` is that side's
    dimension and ``perm`` the axis order that puts it first."""
    rest = tuple(a for a in range(len(shape)) if a not in axes)
    rows, size = prod(shape[a] for a in axes), prod(shape)
    return (rows, axes + rest) if rows * rows <= size else (size // rows, rest + axes)


@cache
def _marginal_plan(shape: tuple[int, ...], terms: tuple) -> tuple:
    """The index work of the kernel for ``terms`` (axis sets of a tensor
    shaped ``shape``).  A pure tensor has ``S(X) = S(X^c)``, so each term is
    matricized with its smaller side ``r`` first, and the terms are grouped
    by ``r``, smallest first, as ``(k, r, size // r)`` (term count, Gram
    side, other side).  Also holds one flat gather from ``t`` that lays out
    every matricization, group after group; each eigenvalue's coefficient;
    and the inverse gather, shaped ``(terms, size)``, whose row ``j`` brings
    term ``j``'s block back to the axis order of ``t``."""
    size, index, plan = prod(shape), np.arange(prod(shape)).reshape(shape), []
    for c, axes in terms:
        r, perm = _smaller_side_first(shape, axes)
        plan.append((r, c, index.transpose(perm).ravel()))
    plan.sort(key=lambda p: p[0])
    sides, gathers = [r for r, _, _ in plan], np.stack([g for _, _, g in plan])
    groups = tuple((sides.count(r), r, size // r) for r in sorted(set(sides)))
    inverse = np.argsort(gathers, axis=1) + size * np.arange(len(plan))[:, None]
    return groups, gathers.ravel(), np.repeat([float(c) for _, c, _ in plan], sides), inverse


def _extension_value_and_grad(t: np.ndarray, shape: tuple[int, ...],
                              terms: Terms) -> tuple[float, np.ndarray]:
    """Half the information ``terms`` (axis sets) of the pure extension with
    amplitudes ``t``, laid out as a C-order tensor shaped ``shape`` = (env,
    sink, systems...), and its gradient ``G_t`` in the layout of ``t``, with
    ``df = Re <G_t, dt>``.  For ``t = v @ psi`` the chain rule gives
    ``G_v = G_t psi^dagger`` and ``G_psi = v^dagger G_t``.

    Each term's entropy comes from the Gram matrix ``g = M M^dagger`` of its
    matricization ``M``, smaller side first, and the terms with one Gram
    size are diagonalized as one stack.  ``dS = -Tr[(log2 g + 1/ln 2) dg]``
    gives ``G_M = -2 L M``, ``L`` being ``log2 g + 1/ln 2`` on the
    eigenvalues above the clip; clipped eigenvalues are dropped from the
    value, as in ``entropy_bits``, and from the gradient.
    """
    groups, gather, coef, inverse = _marginal_plan(shape, tuple(terms))
    flat, ends = t.ravel()[gather], [0, *accumulate(k * r * cols for k, r, cols in groups)]
    ms = [flat[a:b].reshape(group) for a, b, group in zip(ends, ends[1:], groups)]
    eighs = [np.linalg.eigh(m @ m.conj().swapaxes(1, 2)) for m in ms]
    w = np.concatenate([lam.ravel() for lam, _ in eighs])
    kept = w > EIG_CLIP
    log_w = np.log2(np.where(kept, w, 1.0))
    s = np.where(kept, -coef * (log_w + 1.0 / log(2.0)), 0.0)
    ends = [0, *accumulate(lam.size for lam, _ in eighs)]
    g_t = np.concatenate([((q * s[a:b].reshape(lam.shape)[:, None]) @ q.conj().swapaxes(1, 2)
                           @ m).ravel() for a, b, m, (lam, q) in zip(ends, ends[1:], ms, eighs)])
    return -0.5 * float((coef * w) @ log_w), g_t[inverse].sum(0).reshape(t.shape)


def _squashing_value_and_grad(params: np.ndarray, psi: np.ndarray, shape: tuple[int, ...],
                              terms: Terms) -> tuple[float, np.ndarray]:
    """Half the information ``terms`` of the squashed extension of the
    purification ``psi`` (rows: purifying system) at the ansatz ``params``,
    and its exact gradient in ``params``."""
    v, pullback = _isometry(params, shape[0] * shape[1], psi.shape[0])
    value, g_t = _extension_value_and_grad(v @ psi, shape, terms)
    return value, pullback(g_t @ psi.conj().T)


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
    terms = _info_terms([as_labels(g) for g in groups], (env,), flavor)
    ext = extend_by_squashing(rho, ansatz, env)
    return 0.5 * _information(partial(_group_entropy, ext), terms)


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
    below 1 and dims whose product cannot carry the purifying dimension."""
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
    return d_env, d_sink


# ---------------------------------------------------------------------------
# multi-start minimization
# ---------------------------------------------------------------------------

# Fresh starts draw each coordinate from N(0, INIT_SCALE^2); every L-BFGS-B
# run of both searches stops on ``max_iters``, ``tol`` (ftol) or LBFGSB_GTOL.
INIT_SCALE = 0.5
LBFGSB_GTOL = 1e-8
ITERATION_LIMIT = "ITERATIONS REACHED LIMIT"  # in scipy's message when max_iters stops a run


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs shared by the state and channel searches: restart count,
    L-BFGS-B iteration limit (``maxiter``) and relative reduction tolerance
    (``ftol``), and the master seed.  All runs are deterministic in
    ``seed``: restart ``j`` draws from PCG64 stream ``seed + j``."""

    restarts: int = 8
    max_iters: int = 500
    tol: float = 1e-7
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be positive")
        if not 0 < self.tol < inf:
            raise ValueError(f"tol {self.tol} must be positive and finite")


@dataclass(frozen=True)
class RestartRecord:
    """One restart: its value, L-BFGS-B iterations, whether it converged,
    objective and gradient evaluations, the largest absolute entry of the
    gradient at its reported point, and scipy's termination message."""

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


def minimize(fun, x0, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call: loading
    scipy.optimize takes most of a cold start that runs no search."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


def _lbfgsb(fn, x0: np.ndarray, cfg: OptimizerConfig):
    """One L-BFGS-B run of ``fn``, which returns the value and its exact
    gradient.  Every run of both searches is made here, through the
    module-level name ``minimize``."""
    options = {"maxiter": cfg.max_iters, "ftol": cfg.tol, "gtol": LBFGSB_GTOL}
    return minimize(fn, x0, jac=True, method="L-BFGS-B", options=options)


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
    terms = _info_terms(groups_axes, (0,), flavor)
    cfg = cfg or OptimizerConfig()
    psi = purification_matrix(rho.matrix)  # one row per nonzero eigenvalue
    d_purify = psi.shape[0]
    d_env, d_sink = _extension_dims(d_purify, d_env, d_sink)
    shape = (d_env, d_sink) + rho.layout.dims
    n_params = ansatz_param_count(d_env, d_sink)

    def restart(rng):
        res = _lbfgsb(lambda x: _squashing_value_and_grad(x, psi, shape, terms),
                      _fresh_start(rng, n_params), cfg)
        return [res], res

    return _search(
        restart, cfg, 1, (d_purify, d_env, d_sink),
        description=f"squashed upper bound ({flavor}) over {len(groups)} groups",
        flavor=flavor,
    )


# ---------------------------------------------------------------------------
# private-state identity residuals
# ---------------------------------------------------------------------------

IDENTITY_BIPARTITE = "bipartite"
IDENTITY_BIPARTITE_JOINT = "bipartite_joint"
IDENTITY_MULTI_TOTAL = "multi_total"
IDENTITY_MULTI_DUAL = "multi_dual"


@cache
def _identity_terms(keys: tuple, shields: tuple, env: tuple) -> tuple:
    """The right sides of the private-state identities for ``m`` parties as
    ``(kinds, marginals, coef)``: the right side of ``kinds[k]`` is ``coef[k]
    @ S(marginals)`` over the distinct marginals (sorted label tuples) that
    the identities share, and each one's left side is ``m log2 K``."""

    def cmi(a, b, e):  # I(a;b|e)
        return _info_terms([a, b], e, FLAVOR_TOTAL)

    def ce(a, e):  # H(a|e)
        return [(1, a + e), (-1, e)]

    def minus(terms):
        return [(-c, members) for c, members in terms]

    m, first = len(keys), keys[0]
    total: Terms = []
    for i in range(1, m):
        total += ce((keys[i],), (shields[i], first) + env)
        total += cmi((first,), (keys[i], shields[i]), env)
    total += minus(ce(keys[1:], (first,) + shields + env))
    dual = ce(keys[1:], (first,) + shields[1:] + env)
    dual += cmi((first,), keys[1:] + shields[1:], env)
    for i in range(1, m):
        other_keys = tuple(keys[j] for j in range(1, m) if j != i)
        other_shields = tuple(shields[j] for j in range(m) if j != i)
        dual += minus(ce((keys[i],), (first,) + shields + env))
        dual += cmi((keys[i], shields[i]), other_keys, (first,) + other_shields + env)
    terms = {IDENTITY_MULTI_TOTAL: total, IDENTITY_MULTI_DUAL: dual}
    if m == 2:
        (a, b), (ap, bp) = keys, shields
        terms[IDENTITY_BIPARTITE] = cmi((a,), (b, bp), env) + cmi((ap,), (b,), (a, bp) + env)
        terms[IDENTITY_BIPARTITE_JOINT] = (cmi((a, ap), (b, bp), env)
                                           + minus(cmi((ap,), (bp,), (a,) + env)))
    merged = [_merged(t) for t in terms.values()]
    marginals = sorted(set().union(*merged))
    coef = np.array([[c.get(x, 0) for x in marginals] for c in merged], dtype=float)
    coef.setflags(write=False)
    return tuple(terms), tuple(marginals), coef


@cache
def _gram_groups(layout: SystemLayout, marginals: tuple[tuple[str, ...], ...]) -> tuple:
    """The marginals (label sets) of a pure state on ``layout`` grouped by
    the side ``r`` of their smaller Gram matrix, smallest first, as ``((r,
    perms, slots), ...)``: marginal ``slots[i]`` is a stack of amplitude
    tensors (batch axis first) transposed to ``perms[i]`` and read as ``r``
    rows per instance.  Only index tuples, so an entry per layout stays
    small."""
    sides = [(*_smaller_side_first(layout.dims, layout.positions(x)), j)
             for j, x in enumerate(marginals)]
    return tuple((r, tuple((0,) + tuple(i + 1 for i in p) for s, p, _ in sides if s == r),
                  [j for s, _, j in sides if s == r])
                 for r in sorted({s for s, _, _ in sides}))


def _pure_entropies(amplitudes: np.ndarray, layout: SystemLayout,
                    marginals: tuple[tuple[str, ...], ...]) -> np.ndarray:
    """Entropies in bits of the marginals (label sets) of a batch of pure
    states, ``amplitudes`` holding one state on ``layout`` per row, as a
    ``(batch, marginals)`` array.  Each marginal comes from the Gram matrix
    of its smaller side, with one stacked ``eigvalsh`` per Gram size over
    every instance; eigenvalues are clipped as in ``entropy_bits``."""
    t = amplitudes.reshape((-1,) + layout.dims)
    n = t.shape[0]
    out = np.empty((n, len(marginals)))
    for r, perms, slots in _gram_groups(layout, marginals):
        m = np.stack([t.transpose(perm).reshape(n, r, -1) for perm in perms], axis=1)
        w = np.linalg.eigvalsh(m @ m.conj().swapaxes(-1, -2))
        kept = w > EIG_CLIP
        out[:, slots] = -np.where(kept, w * np.log2(np.where(kept, w, 1.0)), 0.0).sum(-1)
    return out


def _identity_residuals(amplitudes: np.ndarray, layout: SystemLayout, keys: tuple,
                        shields: tuple, env: tuple) -> tuple[tuple[str, ...], np.ndarray]:
    """``(kinds, residuals)`` for a batch of pure states on ``layout`` (one
    per row of ``amplitudes``) whose labels :func:`private_identity_residual`
    has checked: ``residuals[i, k]`` is ``|m log2 K - RHS|`` of identity
    ``kinds[k]`` on state ``i``."""
    lhs = len(keys) * log2(layout.dim_of(keys[0]))
    kinds, marginals, coef = _identity_terms(keys, shields, env)
    return kinds, np.abs(lhs - _pure_entropies(amplitudes, layout, marginals) @ coef.T)


def private_identity_residual(
    state: PureStateVector | DensityOperator,
    keys: Sequence[str],
    shields: Sequence[str],
    env: Iterable[str] | str = "E",
) -> dict[str, float]:
    """``{kind: |LHS - RHS|}`` over the entropic identities that hold
    exactly for every extension of an ``m``-party private state.

    ``state`` carries the extension: a pure state on it and a purifying
    system (as :func:`~privsq.private_states.purify_private_state` builds
    from a spec), or the extension itself as a density operator, which is
    purified once (one ``eigh`` of its full dimension).  ``keys`` and
    ``shields`` list the key and shield labels in party order, ``env`` the
    extension system(s); the key systems must share one dimension ``K``,
    and every other system of ``state`` is traced out.  Every ``m >= 2``
    gets

    * ``multi_total``: the ``m log2 K`` identity whose right side uses
      conditional entropies and pairwise informations against party 1
    * ``multi_dual``:  the ``m log2 K`` identity dual to it

    and two parties also get

    * ``bipartite``:        ``2 log2 K  vs  I(A;BB'|E) + I(A';B|AB'E)``
    * ``bipartite_joint``:  ``I(AA';BB'|E)  vs  2 log2 K + I(A';B'|AE)``

    On the pure state ``S(X) = S(X^c)``, so each distinct marginal the
    identities share is diagonalized once, from the Gram matrix of the
    smaller side of its matricization, and never as a partial trace of the
    full extension.  The state is evaluated as a batch of one of
    ``_identity_residuals``.
    """
    keys, shields = tuple(keys), tuple(shields)
    env = as_labels(env)
    m = len(keys)
    if len(shields) != m or m < 2:
        raise ValueError("need matching key/shield labels for at least two parties")
    _disjoint(keys, shields, env)
    key_dims = {lbl: state.layout.dim_of(lbl) for lbl in keys}
    if len(set(key_dims.values())) > 1:
        raise ValueError(f"key systems of unequal dimension {key_dims}")
    if isinstance(state, DensityOperator):
        state = purify(state, fresh_label(state.layout.labels, "R"))
    kinds, residuals = _identity_residuals(state.amplitudes[None], state.layout,
                                           keys, shields, env)
    return dict(zip(kinds, residuals[0].tolist()))


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

    Bipartite: ``esq + f(sqrt(eps), K)`` with ``f`` the CMI continuity term
    :func:`cmi_continuity` at ``log_dim = log2 K``.  Multipartite, either
    flavor: ``(2/m) (esq + 2m f(sqrt(eps), K))``.  That is the form the
    former default constants ``(4, 4)`` gave; no derivation in this package
    backs it yet (ROADMAP item 2).
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}; have {_MODES}")
    _check_esq(esq_value)
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

    Only valid when ``1 - 2 sqrt(eps) > 0``; larger ``eps`` raises.
    """
    _check_esq(esq_value)
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps {eps} outside [0, 1]")
    if rounds < 1:
        raise ValueError(f"rounds {rounds} < 1")
    root = sqrt(eps)
    denom = 1.0 - 2.0 * root
    if denom <= 0.0:
        raise ValueError(
            f"key rate bound requires 1 - 2*sqrt(eps) > 0; eps = {eps} gives {denom:.6g}"
        )
    correction = 2.0 * _h2_term(root) / (rounds * denom)
    return esq_value / denom + correction


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
    cfg = cfg or OptimizerConfig()
    d_in = channel.input_layout.total_dim
    if d_in > 4:
        raise ValueError(f"input dimension {d_in} exceeds the desk-scale guard of 4")
    out_labels = channel.output_layout.labels
    keep = as_labels(keep) if keep is not None else (out_labels[0],)
    if not keep:
        raise LayoutError("keep must name at least one channel output")
    for lbl in keep:
        if lbl not in out_labels:
            raise LayoutError(f"kept label {lbl!r} not among channel outputs {out_labels}")

    keep_pos = [i for i, lbl in enumerate(out_labels) if lbl in keep]
    coupling = _sunk_coupling(channel.matrix, channel.output_layout.dims, keep_pos)
    d_purify, d_keep, _ = coupling.shape
    d_ref = d_in  # reference system of the pure input, same dimension as the channel input
    d_env, d_sink = _extension_dims(d_purify, d_env, d_sink)
    n_ansatz = ansatz_param_count(d_env, d_sink)

    shape = (d_env, d_sink, d_ref, d_keep)
    terms = _info_terms([(2,), (3,)], (0,), FLAVOR_TOTAL)

    def descend(psi_params: np.ndarray, x0: np.ndarray):
        """Exact-gradient descent over ansaetze at a fixed input."""
        psi = _channel_purification(psi_params, coupling)[0]
        return _lbfgsb(lambda x: _squashing_value_and_grad(x, psi, shape, terms), x0, cfg)

    def ascend(psi_params: np.ndarray, ansatz_params: np.ndarray):
        """Exact-gradient ascent over inputs at a fixed ansatz."""
        v = _isometry(ansatz_params, d_env * d_sink, d_purify)[0]
        vh = v.conj().T

        def negated(x):
            psi, pullback = _channel_purification(x, coupling)
            value, g_t = _extension_value_and_grad(v @ psi, shape, terms)
            return -value, -pullback(vh @ g_t)

        return _lbfgsb(negated, psi_params, cfg)

    def restart(rng):
        psi_params = rng.standard_normal(2 * d_ref * d_in)
        ansatz_params = _fresh_start(rng, n_ansatz)
        runs = []
        for _ in range(rounds):
            runs.append(descend(psi_params, ansatz_params))
            ansatz_params = runs[-1].x
            runs.append(ascend(psi_params, ansatz_params))
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
    "private_identity_residual",
    "key_length_bound",
    "key_rate_bound",
    "channel_squashed_upper",
    "ansatz_param_count",
    "FLAVOR_TOTAL",
    "FLAVOR_DUAL",
    "IDENTITY_BIPARTITE",
    "IDENTITY_BIPARTITE_JOINT",
    "IDENTITY_MULTI_TOTAL",
    "IDENTITY_MULTI_DUAL",
    "MODE_BIPARTITE",
    "MODE_MULTI_TOTAL",
    "MODE_MULTI_DUAL",
]
