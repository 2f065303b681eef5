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
bounds.  The descent uses L-BFGS-B with the objective's exact gradient:
entropy derivatives of the pure-state marginals, chained through the
amplitudes and through ``exp(iH)`` with the Daleckii-Krein formula.

The channel search alternates that descent with an exact-gradient ascent
over pure channel inputs.  It purifies each output state with the
channel's own sunk outputs, restricted to the span they can reach, so the
purification is linear in the input and no evaluation diagonalizes it.

Both searches make every L-BFGS-B run through one driver (``_lbfgsb``, one
option set), seed and start their restarts the same way and assemble their
reports in one place (``_search``).  That driver calls the module-level
``minimize``, which imports ``scipy.optimize`` on its first call, so
importing privsq and the commands that run no search never load it.
``minimize`` is the one deferred binding; the tests and the benchmark's
span tracer patch it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from functools import cache, lru_cache, partial
from math import log, log2, prod, sqrt
from typing import Iterable, Sequence

import numpy as np

from .entropy import (
    ContinuityParams,
    DEFAULT_MULTI_CONSTANTS,
    FLAVOR_DUAL,
    FLAVOR_TOTAL,
    KIND_KEY_BIPARTITE,
    KIND_KEY_MULTI_DUAL,
    KIND_KEY_MULTI_TOTAL,
    Terms,
    _disjoint,
    _group_entropy,
    _h2_term,
    _information,
    continuity_bound,
)
from .entropy import info_terms as _info_terms
from .layout import LayoutError, SystemLayout, as_labels, fresh_label
from .tensor import EIG_CLIP, DensityOperator, Isometry, _unchecked, purification_matrix


# ---------------------------------------------------------------------------
# ansatz
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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

    @property
    def n_params(self) -> int:
        return self.params.shape[0]

    def isometry_matrix(self) -> np.ndarray:
        return _isometry_from_params(self.params, self.d_env, self.d_sink, self.d_purify)

    def to_isometry(
        self, input_label: str = "Epur", env_label: str = "E", sink_label: str = "F"
    ) -> Isometry:
        return _unchecked(Isometry, SystemLayout(((input_label, self.d_purify),)),
                          SystemLayout(((env_label, self.d_env), (sink_label, self.d_sink))),
                          self.isometry_matrix())


@lru_cache(maxsize=None)
def _upper(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Strict upper-triangle indices of an ``n x n`` matrix, shared read-only."""
    iu = np.triu_indices(n, 1)
    for a in iu:
        a.setflags(write=False)
    return iu


def _hermitian_from_params(params: np.ndarray, n: int) -> np.ndarray:
    iu = _upper(n)
    k = iu[0].size
    h = np.zeros((n, n), dtype=complex)
    h[iu] = params[n:n + k] + 1j * params[n + k:]
    h += h.conj().T
    h[np.diag_indices(n)] = params[:n]
    return h


def _params_grad(gamma: np.ndarray) -> np.ndarray:
    """Gradient in the ``n^2`` coordinates of ``H`` of a function with
    ``df = Re Tr[gamma^dagger dH]``."""
    iu = _upper(gamma.shape[0])
    up, low = gamma[iu], gamma.T[iu]
    return np.concatenate((gamma.diagonal().real, (up + low).real, (up - low).imag))


def _leading_columns(w: np.ndarray, q: np.ndarray, d_purify: int) -> np.ndarray:
    """First ``d_purify`` columns of ``exp(iH)`` from the eigenpairs of ``H``."""
    return (q * np.exp(1j * w)) @ q[:d_purify].conj().T


def _isometry_from_params(params: np.ndarray, d_env: int, d_sink: int, d_purify: int) -> np.ndarray:
    w, q = np.linalg.eigh(_hermitian_from_params(params, d_env * d_sink))
    return _leading_columns(w, q, d_purify)


def _expi_divided_differences(w: np.ndarray) -> np.ndarray:
    """Daleckii-Krein matrix of ``x -> exp(ix)`` at the eigenvalues ``w``:
    ``F[j, k] = (e^{i w_j} - e^{i w_k}) / (w_j - w_k)``, and ``i e^{i w_j}``
    on the diagonal, so that ``d exp(iH)[E] = Q (F * (Q^dagger E Q)) Q^dagger``.
    Written as ``i e^{i(w_j + w_k)/2} sinc((w_j - w_k)/2)``, which tends to
    ``i e^{i w_j}`` on (near-)degenerate pairs without cancellation."""
    half_sum = (w[:, None] + w[None, :]) / 2
    half_gap = (w[:, None] - w[None, :]) / 2
    return 1j * np.exp(1j * half_sum) * np.sinc(half_gap / np.pi)


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


def _matricize(t: np.ndarray, axes_keep: tuple[int, ...]) -> tuple[np.ndarray, tuple[int, ...]]:
    rest = tuple(a for a in range(t.ndim) if a not in axes_keep)
    perm = axes_keep + rest
    return t.transpose(perm).reshape(prod(t.shape[a] for a in axes_keep), -1), perm


def _pure_marginal_entropy_grad(
    t: np.ndarray, axes_keep: tuple[int, ...]
) -> tuple[float, np.ndarray]:
    """Entropy of a marginal of the pure state with amplitude tensor ``t``,
    computed from the Gram matrix of the smaller matricization side, and
    its gradient ``G`` in the amplitudes, ``dS = Re <G, dt>``.

    With the Gram matrix ``g = M M^dagger``, ``dS = -Tr[(log2 g + 1/ln 2) dg]``
    gives ``G = -2 L M`` (``-2 M L`` for ``g = M^dagger M``), ``L`` being
    ``log2 g + 1/ln 2`` on the eigenvalues above the clip; clipped
    eigenvalues are dropped from the value, as in ``entropy_bits``, and
    from the gradient.
    """
    m, perm = _matricize(t, axes_keep)
    left = m.shape[0] <= m.shape[1]
    w, q = np.linalg.eigh(m @ m.conj().T if left else m.conj().T @ m)
    kept = w > EIG_CLIP
    w, q = w[kept], q[:, kept]
    log_w = np.log2(w)
    el = (q * (log_w + 1.0 / log(2.0))) @ q.conj().T
    grad = -2.0 * (el @ m if left else m @ el)
    shape = tuple(t.shape[a] for a in perm)
    return float(-(w @ log_w)), grad.reshape(shape).transpose(np.argsort(perm))


def _information_and_grad(
    t: np.ndarray, terms: Sequence[tuple[int, tuple[int, ...]]]
) -> tuple[float, np.ndarray]:
    """The information ``terms`` (axis sets of ``t``) of the pure state with
    amplitude tensor ``t``, and its gradient in the amplitudes."""
    value, grad_t = 0.0, np.zeros_like(t)
    for c, axes in terms:
        s, g = _pure_marginal_entropy_grad(t, axes)
        value += c * s
        grad_t += c * g
    return value, grad_t


def _squashing_value_and_grad(
    params: np.ndarray,
    psi: np.ndarray,
    shape: tuple[int, ...],
    terms: Sequence[tuple[int, tuple[int, ...]]],
) -> tuple[float, np.ndarray]:
    """Half the information ``terms`` of the squashed extension of the
    purification ``psi`` (rows: purifying system) at ``params``, and its
    exact gradient in ``params``.

    ``shape`` is the amplitude tensor's shape, (env, sink, systems...).  The
    gradient runs back from the marginal entropies to the amplitudes
    ``t = V psi``, to the isometry ``V`` (leading columns of ``U = exp(iH)``)
    and, with the Daleckii-Krein formula in the eigenbasis of ``H``, to the
    coordinates of ``H``.
    """
    n = shape[0] * shape[1]
    d_purify = psi.shape[0]
    w, q = np.linalg.eigh(_hermitian_from_params(params, n))
    t = (_leading_columns(w, q, d_purify) @ psi).reshape(shape)
    value, grad_t = _information_and_grad(t, terms)
    grad_v = grad_t.reshape(n, -1) @ psi.conj().T
    # gradient on U is grad_v padded with zero columns, so Q^dagger G_U Q
    # only needs the first d_purify rows of Q
    rotated = q.conj().T @ grad_v @ q[:d_purify]
    gamma = q @ (_expi_divided_differences(w).conj() * rotated) @ q.conj().T
    return 0.5 * value, 0.5 * _params_grad(gamma)


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
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class RestartRecord:
    """One restart: its value, L-BFGS-B iterations, whether it converged,
    objective and gradient evaluations, and scipy's termination message."""

    index: int
    value: float
    iterations: int
    converged: bool
    nfev: int
    njev: int
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
            sum(int(r.nfev) for r in runs), sum(int(r.njev) for r in runs), str(stopped.message),
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
    the chosen flavor over the given groups.

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


def squashed_upper(
    rho: DensityOperator,
    group_a: Iterable[str] | str,
    group_b: Iterable[str] | str,
    d_env: int | None = None,
    d_sink: int | None = None,
    cfg: OptimizerConfig | None = None,
) -> BoundReport:
    """Variational upper bound on the bipartite squashed entanglement,
    ``min over restarts of (1/2) I(A;B|E)`` on the squashed extension."""
    rep = squashed_multi_upper(
        rho,
        [as_labels(group_a), as_labels(group_b)],
        flavor=FLAVOR_TOTAL,
        d_env=d_env,
        d_sink=d_sink,
        cfg=cfg,
    )
    return replace(rep, description="bipartite squashed upper bound")


# ---------------------------------------------------------------------------
# private-state identity residuals
# ---------------------------------------------------------------------------

IDENTITY_BIPARTITE = "bipartite"
IDENTITY_BIPARTITE_JOINT = "bipartite_joint"
IDENTITY_MULTI_TOTAL = "multi_total"
IDENTITY_MULTI_DUAL = "multi_dual"


def _identity_terms(keys: tuple, shields: tuple, env: tuple) -> dict[str, Terms]:
    """The right sides of the private-state identities for ``m`` parties;
    each one's left side is ``m log2 K``."""

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
    return terms


def private_identity_residual(
    gamma_ext: DensityOperator,
    keys: Sequence[str],
    shields: Sequence[str],
    env: Iterable[str] | str = "E",
) -> dict[str, float]:
    """``{kind: |LHS - RHS|}`` over the entropic identities that hold
    exactly for every extension of an ``m``-party private state.

    ``keys`` and ``shields`` list the key and shield labels in party order,
    ``env`` the extension system(s).  Every ``m >= 2`` gets

    * ``multi_total``: the ``m log2 K`` identity whose right side uses
      conditional entropies and pairwise informations against party 1
    * ``multi_dual``:  the ``m log2 K`` identity dual to it

    and two parties also get

    * ``bipartite``:        ``2 log2 K  vs  I(A;BB'|E) + I(A';B|AB'E)``
    * ``bipartite_joint``:  ``I(AA';BB'|E)  vs  2 log2 K + I(A';B'|AE)``

    Each distinct marginal is diagonalized once, however many identities
    share it.
    """
    keys, shields = tuple(keys), tuple(shields)
    env = as_labels(env)
    m = len(keys)
    if len(shields) != m or m < 2:
        raise ValueError("need matching key/shield labels for at least two parties")
    _disjoint(keys, shields, env)
    lhs = m * log2(gamma_ext.layout.dim_of(keys[0]))
    entropy_of = cache(partial(_group_entropy, gamma_ext))
    return {kind: abs(lhs - _information(entropy_of, terms))
            for kind, terms in _identity_terms(keys, shields, env).items()}


# ---------------------------------------------------------------------------
# key bounds
# ---------------------------------------------------------------------------

MODE_BIPARTITE = "bipartite"
MODE_MULTI_TOTAL = "multi_total"
MODE_MULTI_DUAL = "multi_dual"
_MODES = (MODE_BIPARTITE, MODE_MULTI_TOTAL, MODE_MULTI_DUAL)


def key_length_bound(
    esq_value: float,
    eps: float,
    key_dim: int,
    mode: str = MODE_BIPARTITE,
    parties: int | None = None,
    constants: tuple[int, int] = DEFAULT_MULTI_CONSTANTS,
) -> float:
    """Right-hand side of the key-length bound for an ``eps``-approximate
    private state, arranged so the comparison is against ``log2 K``.

    Bipartite: ``esq + f(sqrt(eps), K)`` with the key-bipartite continuity
    term.  Multipartite: ``(2/m) (esq + f(sqrt(eps), K, m))`` with the
    total or dual continuity term and the supplied constants.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}; have {_MODES}")
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps {eps} outside [0, 1]")
    root = sqrt(eps)
    if mode == MODE_BIPARTITE:
        f = continuity_bound(ContinuityParams(KIND_KEY_BIPARTITE, root, log2(key_dim)))
        return esq_value + f
    if parties is None:
        raise ValueError(f"mode {mode!r} needs the party count")
    kind = KIND_KEY_MULTI_TOTAL if mode == MODE_MULTI_TOTAL else KIND_KEY_MULTI_DUAL
    f = continuity_bound(ContinuityParams(kind, root, log2(key_dim), parties, constants))
    return (2.0 / parties) * (esq_value + f)


def key_rate_bound(esq_value: float, eps: float, rounds: int) -> float:
    """Finite-round key-rate bound
    ``esq/(1-2 sqrt(eps)) + 2(1+sqrt(eps)) h2(sqrt(eps)/(1+sqrt(eps))) / (n (1-2 sqrt(eps)))``.

    Only valid when ``1 - 2 sqrt(eps) > 0``; larger ``eps`` raises.
    """
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


def _channel_purification(
    params: np.ndarray, coupling: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Purification ``psi`` (rows: reachable sunk span, columns: reference
    (x) kept) of the channel output at the input with real coordinates
    ``params`` (real parts, then imaginary parts, of a ``d_ref x d_in``
    matrix), together with the unit input ``u`` and the norm it was
    divided by."""
    half = params.size // 2
    x = (params[:half] + 1j * params[half:]).reshape(-1, coupling.shape[2])
    norm = float(np.linalg.norm(x))
    u = x / norm
    psi = np.einsum("pka,ra->prk", coupling, u).reshape(coupling.shape[0], -1)
    return psi, u, norm


def _channel_input_value_and_grad(
    params: np.ndarray,
    v: np.ndarray,
    coupling: np.ndarray,
    shape: tuple[int, ...],
    terms: Sequence[tuple[int, tuple[int, ...]]],
) -> tuple[float, np.ndarray]:
    """Half the information ``terms`` of the squashed extension, by the fixed
    isometry ``v``, of the channel output at input ``params``, and its exact
    gradient in ``params``.

    The gradient runs back from the amplitudes ``t = v psi`` to ``psi``,
    through the coupling to the unit input ``u`` and through ``u = x/|x|``
    (which removes the radial component) to the real coordinates of ``x``.
    """
    psi, u, norm = _channel_purification(params, coupling)
    value, grad_t = _information_and_grad((v @ psi).reshape(shape), terms)
    grad_psi = v.conj().T @ grad_t.reshape(v.shape[0], -1)
    grad_psi = grad_psi.reshape(coupling.shape[0], u.shape[0], -1)
    grad_u = np.einsum("prk,pka->ra", grad_psi, coupling.conj())
    grad_x = (grad_u - np.vdot(u, grad_u).real * u) / norm
    return 0.5 * value, 0.5 * np.concatenate((grad_x.real.ravel(), grad_x.imag.ravel()))


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
        v = _isometry_from_params(ansatz_params, d_env, d_sink, d_purify)

        def negated(x):
            value, grad = _channel_input_value_and_grad(x, v, coupling, shape, terms)
            return -value, -grad

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
    "squashed_upper",
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
