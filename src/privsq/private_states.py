"""Private states: twisted maximally entangled states with shield systems.

A private state on ``m`` key systems of dimension ``K`` (plus one shield
system per party) is a controlled-unitary "twist" of ``Phi (x) sigma``,
where ``Phi`` is the ``m``-party maximally correlated entangled state and
``sigma`` is an arbitrary shield state.  Measuring the keys of such a state
yields a uniform, perfectly correlated distribution that is product with
any purifying system; :func:`privacy_deviation` quantifies how far a given
state is from satisfying that defining condition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod
from typing import Mapping, Sequence

import numpy as np

from .layout import LayoutError, SystemLayout, fresh_label
from .metric import fidelity, trace_distance
from .tensor import (
    DensityOperator,
    _seeded_rng,
    _unchecked,
    dephase,
    haar_unitary,
    kron,
    partial_trace,
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


def ghz_state(
    key_dim: int, parties: int, labels: Sequence[str] | None = None
) -> DensityOperator:
    """Rank-one maximally correlated entangled state of ``parties`` qudits,
    with matrix entries ``1/K`` on the all-equal index block."""
    _check_counts(key_dim, parties)
    labels = tuple(labels) if labels is not None else default_key_labels(parties)
    if len(labels) != parties:
        raise ValueError(f"{len(labels)} labels for {parties} parties")
    layout = SystemLayout((lbl, key_dim) for lbl in labels)
    amp = np.zeros(layout.total_dim, dtype=complex)
    step = (key_dim**parties - 1) // (key_dim - 1)  # flat index of |i i ... i>
    amp[::step] = 1.0 / np.sqrt(key_dim)
    return _unchecked(DensityOperator, layout, np.outer(amp, amp.conj()))


def max_entangled(key_dim: int, labels: Sequence[str] = ("A", "B")) -> DensityOperator:
    """Two-party maximally entangled state of Schmidt rank ``key_dim``."""
    return ghz_state(key_dim, 2, labels)


def uniform_classical(key_dim: int, layout: SystemLayout) -> DensityOperator:
    """``(1/K) sum_i |i...i><i...i|`` on systems that all have dimension ``K``."""
    for lbl in layout.labels:
        if layout.dim_of(lbl) != key_dim:
            raise ValueError(f"system {lbl!r} has dimension {layout.dim_of(lbl)}, expected {key_dim}")
    mat = np.zeros((layout.total_dim,) * 2, dtype=complex)
    step = (key_dim ** len(layout) - 1) // (key_dim - 1) if len(layout) > 1 else 1
    for i in range(key_dim):
        mat[i * step, i * step] = 1.0 / key_dim
    return _unchecked(DensityOperator, layout, mat)


@dataclass(frozen=True)
class PrivateStateSpec:
    """Recipe for a private state: key dimension, shield systems, shield
    state, and the controlled shield unitaries of the twist.

    ``controls`` maps every key-index tuple ``(i_1, ..., i_m)`` to a unitary
    on the joint shield space.  For two parties that is one unitary per pair
    ``(i, j)``; the constructed state consumes only the diagonal blocks, but
    the full family defines the twisting unitary.  ``shield_state`` lives on
    the shield systems, optionally followed by extension systems.
    """

    key_dim: int
    shield_dims: tuple[int, ...]
    shield_state: DensityOperator
    controls: Mapping[tuple[int, ...], np.ndarray]
    key_labels: tuple[str, ...]
    shield_labels: tuple[str, ...]

    def __init__(
        self,
        key_dim: int,
        shield_dims: Sequence[int],
        shield_state: DensityOperator,
        controls: Mapping[tuple[int, ...], np.ndarray],
        key_labels: Sequence[str] | None = None,
        shield_labels: Sequence[str] | None = None,
    ):
        key_dim = int(key_dim)
        shield_dims = tuple(int(d) for d in shield_dims)
        parties = len(shield_dims)
        _check_counts(key_dim, parties)
        key_labels = (
            tuple(key_labels) if key_labels is not None else default_key_labels(parties)
        )
        shield_labels = (
            tuple(shield_labels) if shield_labels is not None else default_shield_labels(parties)
        )
        if len(key_labels) != parties or len(shield_labels) != parties:
            raise ValueError("label counts must match the party count")

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
        controls = dict(controls)
        for idx in itertools.product(range(key_dim), repeat=parties):
            if idx not in controls:
                raise ValueError(f"missing twisting control for key indices {idx}")
            u = np.asarray(controls[idx], dtype=complex)
            if u.shape != (d_sh, d_sh):
                raise ValueError(f"control {idx} has shape {u.shape}, expected {(d_sh, d_sh)}")
            if np.abs(u.conj().T @ u - np.eye(d_sh)).max() > 1e-10:
                raise ValueError(f"control {idx} is not unitary within 1e-10")
            controls[idx] = u

        _unchecked(self, key_dim, shield_dims, shield_state, controls, key_labels, shield_labels)

    @property
    def parties(self) -> int:
        return len(self.shield_dims)

    @property
    def extension_labels(self) -> tuple[str, ...]:
        return self.shield_state.layout.labels[self.parties:]

    def shield_marginal(self) -> DensityOperator:
        """The shield-only part of ``shield_state``."""
        if not self.extension_labels:
            return self.shield_state
        return partial_trace(self.shield_state, self.shield_labels)


def twisting_unitary(spec: PrivateStateSpec) -> np.ndarray:
    """The controlled unitary ``sum_idx |idx><idx| (x) U^idx`` on
    keys-then-shields, block diagonal in the key basis."""
    k, m = spec.key_dim, spec.parties
    d_sh = prod(spec.shield_dims)
    dim = k**m * d_sh
    u = np.zeros((dim, dim), dtype=complex)
    for idx in itertools.product(range(k), repeat=m):
        flat = 0
        for i in idx:
            flat = flat * k + i
        lo, hi = flat * d_sh, (flat + 1) * d_sh
        u[lo:hi, lo:hi] = spec.controls[idx]
    return u


def private_state(spec: PrivateStateSpec) -> DensityOperator:
    """``U (Phi (x) sigma) U^dag`` with systems ordered keys-then-shields."""
    if spec.extension_labels:
        raise ValueError(
            "spec's shield state carries extension systems "
            f"{spec.extension_labels}; use private_state_extension"
        )
    return _twisted(spec, spec.shield_state)


def _twisted(spec: PrivateStateSpec, sigma: DensityOperator) -> DensityOperator:
    """``U (Phi (x) sigma) U^dag``, ``U`` acting as identity on the systems
    of ``sigma`` past the shields, built unchecked from checked inputs."""
    phi = ghz_state(spec.key_dim, spec.parties, spec.key_labels)
    d_ext = prod(sigma.layout.dims[spec.parties:])
    u = np.kron(twisting_unitary(spec), np.eye(d_ext))
    mat = u @ np.kron(phi.matrix, sigma.matrix) @ u.conj().T
    return _unchecked(DensityOperator, phi.layout.concat(sigma.layout), mat)


def private_state_extension(
    spec: PrivateStateSpec, sigma_ext: DensityOperator | None = None
) -> DensityOperator:
    """Extension of the private state, twisting ``Phi (x) sigma_ext`` with
    the same unitary acting as identity on the extension systems.

    ``sigma_ext`` extends the spec's shield state; if omitted, the spec's
    own ``shield_state`` must already carry extension systems.  Tracing the
    extension systems of the output recovers :func:`private_state`.
    """
    m = spec.parties
    if sigma_ext is None:
        if not spec.extension_labels:
            raise ValueError("spec has no extension systems and none were supplied")
        sigma_ext = spec.shield_state
    else:
        got = sigma_ext.layout.labels[:m]
        if got != spec.shield_labels or sigma_ext.layout.dims[:m] != spec.shield_dims:
            raise ValueError(
                f"extension must start with the shield systems {spec.shield_labels}"
            )
        if len(sigma_ext.layout) == m:
            raise ValueError("supplied state carries no extension systems")
        marg = partial_trace(sigma_ext, spec.shield_labels)
        dev = np.abs(marg.matrix - spec.shield_marginal().matrix).max()
        if dev > 1e-8:
            raise ValueError(
                f"marginal mismatch: extension's shield marginal deviates by {dev:.3e}"
            )
    return _twisted(spec, sigma_ext)


def _deviation_of_purification(
    phi_density: DensityOperator,
    ref_label: str,
    key_labels: tuple[str, ...],
    key_dim: int,
) -> float:
    measured = dephase(phi_density, key_labels)
    reduced = partial_trace(measured, (ref_label,) + key_labels)
    omega_e = partial_trace(reduced, ref_label)
    target = kron(omega_e, uniform_classical(key_dim, reduced.layout.sublayout(key_labels)))
    return trace_distance(reduced, target)


def privacy_deviation(
    rho: DensityOperator,
    key_dim: int,
    key_labels: Sequence[str],
    shield_labels: Sequence[str],
) -> float:
    """Distance of ``rho`` from satisfying the defining privacy condition.

    The canonical purification of ``rho`` is built, the computational
    measurement channel is applied to every key system, the shields are
    traced out, and the result is compared (in trace distance) to the
    uniform perfectly correlated key distribution in product with the
    purifying system's own marginal.  The value is zero exactly when the
    condition holds; purifications other than the canonical one differ by
    an isometry on the purifying system, which cannot change the outcome.
    """
    key_labels, shield_labels = tuple(key_labels), tuple(shield_labels)
    if set(key_labels) & set(shield_labels):
        raise LayoutError("key and shield labels overlap")
    if set(key_labels) | set(shield_labels) != set(rho.layout.labels):
        raise LayoutError("key and shield labels must cover all systems")
    for lbl in key_labels:
        if rho.layout.dim_of(lbl) != key_dim:
            raise ValueError(
                f"key system {lbl!r} has dimension {rho.layout.dim_of(lbl)}, expected {key_dim}"
            )
    ref = fresh_label(rho.layout.labels, "Epur")
    phi = purify(rho, ref)
    return _deviation_of_purification(phi.density(), ref, key_labels, key_dim)


def approx_private_state(
    spec: PrivateStateSpec, noise: float, seed: int, gamma: DensityOperator | None = None
) -> tuple[DensityOperator, float]:
    """Noisy private state ``(1-p) gamma + p tau`` with a seeded random
    full-rank ``tau``, and the fidelity deficit ``eps = 1 - F(gamma, omega)``
    reported exactly as computed.  ``gamma`` is ``private_state(spec)``,
    built here unless the caller already holds it."""
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"noise {noise} outside [0, 1]")
    if gamma is None:
        gamma = private_state(spec)
    tau = random_density(gamma.layout, gamma.dim, seed)
    mixed = (1.0 - noise) * gamma.matrix + noise * tau.matrix
    omega = _unchecked(DensityOperator, gamma.layout, mixed)
    # clip floating-point overshoot of F past 1 so eps stays in [0, 1]
    return omega, min(max(1.0 - fidelity(gamma, omega), 0.0), 1.0)


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
    place); anything else raises ``TypeError``, as in the samplers.

    With ``ext_dim`` set, the shield state is sampled on shields plus an
    extension system ``E`` of that dimension (its shield marginal then
    defines the underlying private state), so
    ``private_state_extension(spec)`` works directly.
    """
    shield_dims = tuple(int(d) for d in shield_dims)
    parties = len(shield_dims)
    _check_counts(key_dim, parties)
    d_sh = prod(shield_dims)
    rng = _seeded_rng(seed)
    controls = {
        idx: haar_unitary(d_sh, rng)
        for idx in itertools.product(range(key_dim), repeat=parties)
    }
    layout = SystemLayout(zip(default_shield_labels(parties), shield_dims))
    if ext_dim is not None:
        layout = layout.concat(SystemLayout((("E", int(ext_dim)),)))
    rank = sigma_rank if sigma_rank is not None else layout.total_dim
    sigma = random_density(layout, rank, rng)
    return _unchecked(PrivateStateSpec, int(key_dim), shield_dims, sigma, controls,
                      default_key_labels(parties), default_shield_labels(parties))


__all__ = [
    "PrivateStateSpec",
    "ghz_state",
    "max_entangled",
    "uniform_classical",
    "twisting_unitary",
    "private_state",
    "private_state_extension",
    "privacy_deviation",
    "approx_private_state",
    "random_private_spec",
    "default_key_labels",
    "default_shield_labels",
]
