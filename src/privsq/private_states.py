"""Private states: twisted maximally entangled states with shield systems.

A private state on ``m`` key systems of dimension ``K`` (plus one shield
system per party) is ``U (Phi (x) sigma) U^dag``, where ``Phi`` is the
``m``-party maximally correlated entangled state, ``sigma`` is an arbitrary
shield state and ``U`` twists the shields controlled by the keys.  ``Phi``
lives on the all-equal key indices, so the state is ``(1/K) sum_ij
|i..i><j..j| (x) U_i sigma U_j^dag`` and a :class:`PrivateStateSpec` holds
just the ``K`` controls ``U_i``.  Measuring the keys yields a uniform,
perfectly correlated distribution that is product with any purifying
system.  A spec's shield state may carry extension systems past the
shields, on which the twist acts as the identity; then the state is an
extension of the private state of the shield marginal.
:func:`private_state` builds the density operator of every spec, and
:func:`purify_private_state` its purification straight from the spec,
without any matrix of the full dimension, on which
:func:`private_identity_residual` checks the entropic identities that hold
on every extension of a private state.  :func:`privacy_deviation`
quantifies how far a given state is from satisfying the defining
condition, and :func:`approx_private_state` mixes a private state with
seeded noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import log2, prod
from typing import Iterable, Sequence

import numpy as np

from .entropy import FLAVOR_TOTAL, Terms, _cond_terms, _disjoint, _merged, _pure_entropies, info_terms
from .layout import LayoutError, SystemLayout, as_labels, fresh_label
from .metric import fidelity
from .tensor import (
    DensityOperator,
    PureStateVector,
    _finite,
    _ginibre_density,
    _haar_from_normals,
    _seeded_rng,
    _unchecked,
    partial_trace,
    purification_matrix,
    purify,
    random_density,
)


def default_key_labels(parties: int) -> tuple[str, ...]:
    return tuple(f"A{i + 1}" for i in range(parties))


def default_shield_labels(parties: int) -> tuple[str, ...]:
    return tuple(f"A{i + 1}p" for i in range(parties))


def _check_counts(key_dim: int, parties: int) -> None:
    if key_dim < 2:
        raise ValueError(f"key dimension {key_dim} < 2")
    if parties < 2:
        raise ValueError(f"party count {parties} < 2")


def _all_equal_step(key_dim: int, systems: int) -> int:
    """Flat-index step from ``|i i ... i>`` to ``|i+1 i+1 ... i+1>``."""
    return sum(key_dim**j for j in range(systems))


def ghz_state(key_dim: int, parties: int, labels: Sequence[str] | None = None) -> DensityOperator:
    """Rank-one maximally correlated entangled state of ``parties`` qudits,
    with matrix entries ``1/K`` on the all-equal index block."""
    _check_counts(key_dim, parties)
    labels = tuple(labels) if labels is not None else default_key_labels(parties)
    if len(labels) != parties:
        raise ValueError(f"{len(labels)} labels for {parties} parties")
    layout = SystemLayout((lbl, key_dim) for lbl in labels)
    amp = np.zeros(layout.total_dim, dtype=complex)
    amp[::_all_equal_step(key_dim, parties)] = 1.0 / np.sqrt(key_dim)
    return _unchecked(DensityOperator, layout, np.outer(amp, amp.conj()))


def max_entangled(key_dim: int, labels: Sequence[str] = ("A", "B")) -> DensityOperator:
    """Two-party maximally entangled state of Schmidt rank ``key_dim``."""
    return ghz_state(key_dim, 2, labels)


def uniform_classical(key_dim: int, layout: SystemLayout) -> DensityOperator:
    """``(1/K) sum_i |i...i><i...i|`` on systems that all have dimension ``K``."""
    for lbl in layout.labels:
        if layout.dim_of(lbl) != key_dim:
            raise ValueError(f"system {lbl!r} has dimension {layout.dim_of(lbl)}, expected {key_dim}")
    if not len(layout):
        raise LayoutError("uniform_classical needs at least one system")
    mat = np.zeros((layout.total_dim,) * 2, dtype=complex)
    step = _all_equal_step(key_dim, len(layout))
    for i in range(key_dim):
        mat[i * step, i * step] = 1.0 / key_dim
    return _unchecked(DensityOperator, layout, mat)


@dataclass(frozen=True, eq=False)
class PrivateStateSpec:
    """Recipe for a private state: key dimension, shield systems, shield
    state, and the ``K`` twisting controls as a tuple of read-only arrays.

    ``controls[i]`` is the unitary on the joint shield space applied when
    every key reads ``i``.  ``shield_state`` lives on the shield systems
    ``A1p, A2p, ...``, optionally followed by extension systems.
    """

    key_dim: int
    shield_dims: tuple[int, ...]
    shield_state: DensityOperator
    controls: tuple[np.ndarray, ...]

    def __init__(self, key_dim: int, shield_dims: Sequence[int],
                 shield_state: DensityOperator, controls: Sequence[np.ndarray]):
        key_dim = int(key_dim)
        shield_dims = tuple(int(d) for d in shield_dims)
        parties = len(shield_dims)
        _check_counts(key_dim, parties)
        shield_labels = default_shield_labels(parties)
        got = shield_state.layout.labels[:parties]
        if got != shield_labels:
            raise ValueError(
                f"shield state must start with the shield systems {shield_labels}, got {got}"
            )
        if shield_state.layout.dims[:parties] != shield_dims:
            raise ValueError(
                f"shield state dims {shield_state.layout.dims[:parties]} != {shield_dims}"
            )

        d_sh = prod(shield_dims)
        # NaN passes the unitarity test
        controls = tuple(_finite(u, f"control {i}") for i, u in enumerate(controls))
        if len(controls) != key_dim:
            raise ValueError(f"{len(controls)} twisting controls for key dimension {key_dim}")
        for i, u in enumerate(controls):
            if u.shape != (d_sh, d_sh):
                raise ValueError(f"control {i} has shape {u.shape}, expected {(d_sh, d_sh)}")
            if np.abs(u.conj().T @ u - np.eye(d_sh)).max() > 1e-10:
                raise ValueError(f"control {i} is not unitary within 1e-10")
        _unchecked(self, key_dim, shield_dims, shield_state, controls)

    @property
    def parties(self) -> int:
        return len(self.shield_dims)

    @property
    def key_labels(self) -> tuple[str, ...]:
        return default_key_labels(self.parties)

    @property
    def shield_labels(self) -> tuple[str, ...]:
        return default_shield_labels(self.parties)

    @property
    def extension_labels(self) -> tuple[str, ...]:
        return self.shield_state.layout.labels[self.parties:]

    def shield_marginal(self) -> DensityOperator:
        """The shield-only part of ``shield_state``."""
        if not self.extension_labels:
            return self.shield_state
        return partial_trace(self.shield_state, self.shield_labels)


def _twist_parts(specs: Sequence[PrivateStateSpec]) -> tuple[np.ndarray, float, int]:
    """The twist ``U = sum_idx |idx><idx| (x) U_idx`` on ``Phi (x) .`` for
    :func:`private_state` and :func:`_purified_groups`, for specs that share
    the key dimension and the shield state's layout: the ``(n, K, d, d)`` stack
    of ``W_i = controls[i] (x) I_ext`` (the identity on the systems of
    ``sigma`` past the shields), Phi's amplitude ``a = 1/sqrt(K)`` and the
    flat step between the all-equal key indices, the only ones on which
    ``Phi`` is nonzero."""
    first = specs[0]
    d = first.shield_state.dim
    eye_ext = np.eye(d // prod(first.shield_dims))
    u = np.array([spec.controls for spec in specs])
    # the products np.kron(u, eye_ext) forms, without its per-call overhead
    w = (u[..., :, None, :, None] * eye_ext[None, :, None, :]).reshape(u.shape[:2] + (d, d))
    return w, 1.0 / np.sqrt(first.key_dim), _all_equal_step(first.key_dim, first.parties)


def private_state(spec: PrivateStateSpec) -> DensityOperator:
    """``U (Phi (x) sigma) U^dag`` with systems ordered keys, shields, then
    the extension systems of the spec's ``shield_state``, on which the twist
    acts as the identity: the private state, or its extension when
    ``shield_state`` carries extension systems (tracing them out gives the
    private state of the spec's :meth:`~PrivateStateSpec.shield_marginal`).
    The only nonzero blocks are ``a^2 W_i sigma W_j^dag`` between
    ``|i..i>`` and ``|j..j>``."""
    k, m, sigma = spec.key_dim, spec.parties, spec.shield_state.matrix
    d = sigma.shape[0]
    (w,), a, step = _twist_parts([spec])
    # a*a, not 1/K: Phi's entry exactly as ghz_state builds it (the two differ
    # in the last bit at K = 2), so at K = 2 every block is bit for bit the
    # one the full product U (Phi (x) sigma) U^dag gives
    left = [wi @ ((a * a) * sigma) for wi in w]
    out = np.zeros((k**m, d, k**m, d), dtype=complex)
    for i in range(k):
        for j in range(k):
            out[i * step, :, j * step, :] = left[i] @ w[j].conj().T
    keys = SystemLayout((lbl, k) for lbl in spec.key_labels)
    return _unchecked(DensityOperator, keys.concat(spec.shield_state.layout),
                      out.reshape(k**m * d, k**m * d))


def _purified_groups(specs: Sequence[PrivateStateSpec],
                     ref_label: str = "R") -> list[tuple[np.ndarray, np.ndarray, SystemLayout]]:
    """Purifications ``U (|Phi> (x) |psi_sigma>)`` of specs that share the
    key dimension and the shield state's layout, grouped by the rank of the
    shield state, which fixes the reference dimension and so the layout:
    ``[(indices, amplitudes, layout), ...]`` in ascending rank, row ``j`` of
    ``amplitudes`` being the purification of ``specs[indices[j]]`` on
    ``ref_label``, the keys, the shields and the extension systems.  All
    shield states are purified by one stacked ``eigh``
    (:func:`~privsq.tensor.purification_matrix`) and each group is twisted
    by one stacked product: key value ``i`` contributes the block ``a W_i
    psi_sigma^T`` at the all-equal index, so no matrix of the full
    dimension is formed."""
    first = specs[0]
    k, m, sh_layout = first.key_dim, first.parties, first.shield_state.layout
    systems = SystemLayout((lbl, k) for lbl in first.key_labels).concat(sh_layout)
    psi = purification_matrix(np.stack([spec.shield_state.matrix for spec in specs]))
    ranks = psi.any(-1).sum(-1)  # the rows past an instance's rank are zeros
    groups = []
    for r in sorted(set(ranks.tolist())):  # np.unique would import numpy.ma (2 MB)
        idx = np.flatnonzero(ranks == r)
        w, a, step = _twist_parts([specs[j] for j in idx])
        out = np.zeros((len(idx), k**m, sh_layout.total_dim, r), dtype=complex)
        out[:, ::step] = w @ (a * psi[idx, None, :r].swapaxes(-1, -2))
        layout = SystemLayout(((ref_label, r),)).concat(systems)
        groups.append((idx, out.reshape(len(idx), -1, r).swapaxes(1, 2).reshape(len(idx), -1),
                       layout))
    return groups


def purify_private_state(spec: PrivateStateSpec, ref_label: str = "R") -> PureStateVector:
    """``U (|Phi> (x) |psi_sigma>)`` on ``ref_label``, the keys, the shields
    and the spec's extension systems, in that order; ``psi_sigma`` is the
    canonical purification of the spec's ``shield_state`` (the reference
    dimension being its rank).  Tracing out ``ref_label`` gives
    :func:`private_state` of the spec; it is the batch of one of
    ``_purified_groups``.  A ``ref_label`` that
    names one of the spec's systems raises :class:`LayoutError`."""
    ((_, amplitudes, layout),) = _purified_groups([spec], ref_label)
    return _unchecked(PureStateVector, layout, amplitudes[0])


def _key_dim(layout: SystemLayout, key_labels: tuple[str, ...]) -> int:
    """``K``, the dimension the key systems share (else ``ValueError``)."""
    key_dims = {lbl: layout.dim_of(lbl) for lbl in key_labels}
    if len(set(key_dims.values())) > 1:
        raise ValueError(f"key systems of unequal dimension {key_dims}")
    return key_dims[key_labels[0]]


def _deviation(psi: np.ndarray, layout: SystemLayout, key_labels: tuple[str, ...]) -> float:
    """Privacy deviation from a purification matrix ``psi`` (rows: the
    purifying system, columns: the flat index of ``layout``).  With ``M_x``
    the columns of key string ``x``, dephasing the keys and tracing the rest
    leaves ``sum_x |x><x| (x) M_x M_x^dag``, so the deviation is ``(1/2)
    sum_x ||M_x M_x^dag - [x = i..i] omega / K||_1``, ``omega = sum_x M_x
    M_x^dag``: one stacked ``eigvalsh`` of ``K^m`` blocks of size ``rank``."""
    pos = layout.positions(key_labels)
    k, m, r = _key_dim(layout, key_labels), len(pos), psi.shape[0]
    t = np.moveaxis(psi.reshape((r,) + layout.dims), [p + 1 for p in pos], range(1, m + 1))
    mx = t.reshape(r, k**m, -1).swapaxes(0, 1)
    blocks = mx @ mx.conj().swapaxes(1, 2)
    blocks[::_all_equal_step(k, m)] -= blocks.sum(0) / k
    return float(np.abs(np.linalg.eigvalsh(blocks)).sum() / 2)


def privacy_deviation(rho: DensityOperator, key_labels: Sequence[str]) -> float:
    """Trace distance of the keys ``key_labels`` of ``rho``'s purification,
    measured in the computational basis, from the uniform perfectly
    correlated key distribution in product with the purifying system; every
    other system of ``rho`` is a shield.  Zero exactly when the defining
    privacy condition holds, and the same for every purification (they
    differ by an isometry on the purifying system).  The keys must share one
    dimension ``K`` (else ``ValueError``); an empty list, a repeated or an
    unknown label raises :class:`LayoutError`.  The purification's density
    matrix is never formed (see ``_deviation``)."""
    key_labels = tuple(key_labels)
    if not key_labels:
        raise LayoutError("privacy_deviation needs at least one key system")
    if len(set(key_labels)) != len(key_labels):
        raise LayoutError(f"key labels {key_labels} repeat a system")
    _key_dim(rho.layout, key_labels)
    return _deviation(purification_matrix(rho.matrix), rho.layout, key_labels)


def approx_private_state(gamma: DensityOperator, noise: float,
                         seed: int) -> tuple[DensityOperator, float]:
    """Noisy private state ``(1-p) gamma + p tau`` with a seeded random
    full-rank ``tau``, and the fidelity deficit ``eps = 1 - F(gamma, omega)``
    reported exactly as computed."""
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"noise {noise} outside [0, 1]")
    tau = random_density(gamma.layout, gamma.dim, seed)
    mixed = (1.0 - noise) * gamma.matrix + noise * tau.matrix
    omega = _unchecked(DensityOperator, gamma.layout, mixed)
    # clip floating-point overshoot of F past 1 so eps stays in [0, 1]
    return omega, min(max(1.0 - fidelity(gamma, omega), 0.0), 1.0)


# ---------------------------------------------------------------------------
# private-state identity residuals
# ---------------------------------------------------------------------------

@cache
def _identity_terms(layout: SystemLayout, keys: tuple, shields: tuple, env: tuple) -> tuple:
    """The right sides of the private-state identities for ``m`` parties as
    ``(kinds, marginals, coef)``: the right side of ``kinds[k]`` is ``coef[k]
    @ S(marginals)`` over the distinct marginals (sorted label tuples, each
    given as its axes on ``layout``) that the identities share, and each
    one's left side is ``m log2 K``."""

    def cmi(a, b, e):  # I(a;b|e)
        return info_terms([a, b], e, FLAVOR_TOTAL)

    def minus(terms):
        return [(-c, members) for c, members in terms]

    m, first = len(keys), keys[0]
    total: Terms = []
    for i in range(1, m):
        total += _cond_terms((keys[i],), (shields[i], first) + env)
        total += cmi((first,), (keys[i], shields[i]), env)
    total += minus(_cond_terms(keys[1:], (first,) + shields + env))
    dual = _cond_terms(keys[1:], (first,) + shields[1:] + env)
    dual += cmi((first,), keys[1:] + shields[1:], env)
    for i in range(1, m):
        other_keys = tuple(keys[j] for j in range(1, m) if j != i)
        other_shields = tuple(shields[j] for j in range(m) if j != i)
        dual += minus(_cond_terms((keys[i],), (first,) + shields + env))
        dual += cmi((keys[i], shields[i]), other_keys, (first,) + other_shields + env)
    terms = {"multi_total": total, "multi_dual": dual}
    if m == 2:
        (a, b), (ap, bp) = keys, shields
        terms["bipartite"] = cmi((a,), (b, bp), env) + cmi((ap,), (b,), (a, bp) + env)
        terms["bipartite_joint"] = (cmi((a, ap), (b, bp), env)
                                    + minus(cmi((ap,), (bp,), (a,) + env)))
    merged = [_merged(t) for t in terms.values()]
    marginals = sorted(set().union(*merged))
    coef = np.array([[c.get(x, 0) for x in marginals] for c in merged], dtype=float)
    coef.setflags(write=False)
    return tuple(terms), tuple(layout.positions(x) for x in marginals), coef


def _identity_residuals(amplitudes: np.ndarray, layout: SystemLayout, keys: tuple,
                        shields: tuple, env: tuple) -> tuple[tuple[str, ...], np.ndarray]:
    """``(kinds, residuals)`` for a batch of pure states on ``layout`` (one
    per row of ``amplitudes``) whose labels :func:`private_identity_residual`
    has checked: ``residuals[i, k]`` is ``|m log2 K - RHS|`` of identity
    ``kinds[k]`` on state ``i``."""
    lhs = len(keys) * log2(_key_dim(layout, keys))
    kinds, marginals, coef = _identity_terms(layout, keys, shields, env)
    return kinds, np.abs(lhs - _pure_entropies(amplitudes, layout.dims, marginals) @ coef.T)


def private_identity_residual(
    state: PureStateVector | DensityOperator,
    keys: Sequence[str],
    shields: Sequence[str],
    env: Iterable[str] | str = "E",
) -> dict[str, float]:
    """``{kind: |LHS - RHS|}`` over the entropic identities that hold
    exactly for every extension of an ``m``-party private state.

    ``state`` carries the extension: a pure state on it and a purifying
    system (as :func:`purify_private_state` builds
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

    Each distinct marginal the identities share is read once from the pure
    state (``_pure_entropies``), never as a partial trace of the extension.
    """
    keys, shields = tuple(keys), tuple(shields)
    env = as_labels(env)
    m = len(keys)
    if len(shields) != m or m < 2:
        raise ValueError("need matching key/shield labels for at least two parties")
    _disjoint(keys, shields, env)
    _key_dim(state.layout, keys)
    if isinstance(state, DensityOperator):
        state = purify(state, fresh_label(state.layout.labels, "R"))
    kinds, residuals = _identity_residuals(state.amplitudes[None], state.layout,
                                           keys, shields, env)
    return dict(zip(kinds, residuals[0].tolist()))


# ---------------------------------------------------------------------------
# seeded generators for specs and extensions
# ---------------------------------------------------------------------------

def random_private_spec(
    key_dim: int,
    shield_dims: Sequence[int],
    seed: int | np.random.Generator,
    sigma_rank: int | None = None,
    ext_dim: int | None = None,
) -> PrivateStateSpec:
    """Seeded random spec: Haar twisting controls and a Ginibre shield state.

    ``seed`` is an integer or a ``numpy.random.Generator`` (drawn from in
    place); anything else raises ``TypeError``, as in the samplers.  One
    Haar unitary is drawn for each of the ``K^m`` key-index tuples, in
    key-index order, and the ``K`` all-equal ones are kept as the controls;
    the shield state is drawn after them.  Only the kept draws are
    factored.  This is the batch of one of ``_random_private_specs``, which
    factors the controls of a whole batch in one stacked QR (the lemmas
    suite's 125 specs take two ``qr`` calls, one per party count).

    With ``ext_dim`` set, the shield state is sampled on shields plus an
    extension system ``E`` of that dimension (its shield marginal then
    defines the underlying private state), and ``private_state(spec)``
    builds the extension.
    """
    return _random_private_specs(key_dim, shield_dims, [seed], [sigma_rank], ext_dim)[0]


def _random_private_specs(key_dim: int, shield_dims: Sequence[int],
                          seeds: Sequence[int | np.random.Generator], ranks: Sequence[int | None],
                          ext_dim: int | None = None) -> list[PrivateStateSpec]:
    """:func:`random_private_spec` of each seed and rank, bit for bit, with one stacked QR
    for every control and one stacked Ginibre product per rank; refusals come first."""
    shield_dims = tuple(int(d) for d in shield_dims)
    parties = len(shield_dims)
    _check_counts(key_dim, parties)
    # the layout refuses a dimension below 1, naming its system, before any draw
    layout = SystemLayout(zip(default_shield_labels(parties), shield_dims))
    if ext_dim is not None:
        layout = layout.concat(SystemLayout((("E", int(ext_dim)),)))
    d, d_sh, step = layout.total_dim, prod(shield_dims), _all_equal_step(key_dim, parties)
    ranks = [d if rank is None else rank for rank in ranks]
    for rank in ranks:
        if not 1 <= rank <= d:
            raise ValueError(f"rank {rank} out of range 1..{d}")
    rngs = [_seeded_rng(seed) for seed in seeds]
    # per instance, in stream order: the normals of all K^m Haar draws (as K^m
    # calls of haar_unitary), then those of the shield state
    draws = [(rng.standard_normal((key_dim**parties, 2, d_sh, d_sh)),
              rng.standard_normal((2, d, rank))) for rng, rank in zip(rngs, ranks, strict=True)]
    controls = _haar_from_normals(np.stack([haar[::step] for haar, _ in draws]))
    # each rank's shield states from one stacked product, taken in instance order
    sigmas = {r: iter(_ginibre_density(np.stack([z for _, z in draws if z.shape[-1] == r])))
              for r in set(ranks)}
    return [_unchecked(PrivateStateSpec, int(key_dim), shield_dims,
                       _unchecked(DensityOperator, layout, next(sigmas[r])), tuple(u))
            for r, u in zip(ranks, controls)]


__all__ = [
    "PrivateStateSpec",
    "ghz_state",
    "max_entangled",
    "uniform_classical",
    "private_state",
    "purify_private_state",
    "privacy_deviation",
    "private_identity_residual",
    "approx_private_state",
    "random_private_spec",
    "default_key_labels",
    "default_shield_labels",
]
