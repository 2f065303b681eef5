"""Distinguishability measures and purification alignment.

Trace distance is the halved quantity ``(1/2)||rho - sigma||_1``; fidelity
uses the squared convention ``F = ||sqrt(rho) sqrt(sigma)||_1^2``, so
``F(phi, sigma) = <phi|sigma|phi>`` for a pure argument.  The alignment
machinery realizes the optimal-overlap purifications behind both the
fidelity characterization and marginal-matched extensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layout import LayoutError, SystemLayout, fresh_label
from .tensor import (
    DensityOperator,
    PureStateVector,
    _unchecked,
    permute_systems,
    psd_sqrt,
    purification_matrix,
)


def _check_same_layout(rho: DensityOperator, sigma: DensityOperator) -> None:
    if rho.layout != sigma.layout:
        raise LayoutError(
            f"layout mismatch: {rho.layout.systems} vs {sigma.layout.systems}"
        )


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """``(1/2) ||rho - sigma||_1`` via the spectrum of the difference."""
    _check_same_layout(rho, sigma)
    diff = rho.matrix - sigma.matrix
    w = np.linalg.eigvalsh((diff + diff.conj().T) / 2)
    return float(np.abs(w).sum() / 2)


def fidelity(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Squared-convention fidelity ``||sqrt(rho) sqrt(sigma)||_1^2``."""
    _check_same_layout(rho, sigma)
    s = np.linalg.svd(psd_sqrt(rho.matrix) @ psd_sqrt(sigma.matrix), compute_uv=False)
    return float(s.sum() ** 2)


@dataclass(frozen=True, eq=False)
class FidelityPair:
    """Optimally aligned purifications of two states on a common reference.

    ``|<phi_sigma|phi_rho>|^2`` equals the ``fidelity`` field by
    construction; ``u_ref`` is the reference-system unitary that achieved
    the alignment.
    """

    fidelity: float
    phi_rho: PureStateVector
    phi_sigma: PureStateVector
    u_ref: np.ndarray


def _align_unitary(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Unitary ``U`` maximizing ``|Tr[U x y^dag]|`` and the achieved value.

    For purification matrices ``x`` and ``y`` (rows = purifying index,
    columns = system index), ``<y|(U (x) I)|x> = Tr[U x y^dag]``, so this is
    the alignment rotation to apply to ``x``.  It comes from the singular
    value decomposition of the cross-Gram matrix; rank-deficient cases are
    resolved by whatever completion the SVD returns, which is irrelevant to
    the achieved overlap.
    """
    w, s, vh = np.linalg.svd(x @ y.conj().T)
    return (w @ vh).conj().T, float(s.sum())


def uhlmann_align(rho: DensityOperator, sigma: DensityOperator) -> FidelityPair:
    """Purify both states on a common reference and rotate the reference of
    ``rho``'s purification to achieve the maximal overlap.

    The squared overlap of the returned vectors equals :func:`fidelity` of
    the two states.
    """
    _check_same_layout(rho, sigma)
    d = rho.dim
    ref = fresh_label(rho.layout.labels, "R")
    layout = SystemLayout(((ref, d),)).concat(rho.layout)
    m_rho = purification_matrix(rho.matrix, d_ref=d)
    m_sigma = purification_matrix(sigma.matrix, d_ref=d)
    u, overlap = _align_unitary(m_rho, m_sigma)
    return FidelityPair(
        fidelity=overlap**2,
        phi_rho=_unchecked(PureStateVector, layout, (u @ m_rho).reshape(-1)),
        phi_sigma=_unchecked(PureStateVector, layout, m_sigma.reshape(-1)),
        u_ref=u,
    )


def matched_extension(rho_ext: DensityOperator, sigma_marginal: DensityOperator) -> DensityOperator:
    """Extension of ``sigma_marginal`` matching ``rho_ext`` in fidelity.

    ``sigma_marginal`` lives on a sublayout ``A`` of ``rho_ext``'s systems
    (its labels select the marginal); the remaining systems form ``B``.  The
    result satisfies ``Tr_B sigma_ext = sigma_marginal`` and
    ``F(rho_ext, sigma_ext) = F(rho_A, sigma_marginal)``: both states are
    purified on a common reference, the purification of ``sigma_marginal``
    is rotated on its purifying part (reference plus ``B``) to align with
    the purification of ``rho_ext``, and the reference is traced out.
    """
    a_labels = sigma_marginal.layout.labels
    missing = set(a_labels) - set(rho_ext.layout.labels)
    if missing:
        raise LayoutError(f"marginal systems {sorted(missing)} absent from the extension")
    if rho_ext.layout.sublayout(a_labels) != sigma_marginal.layout:
        raise ValueError("inconsistent marginal: sigma's layout does not match the A sublayout")
    b_labels = tuple(lbl for lbl in rho_ext.layout.labels if lbl not in a_labels)
    if not b_labels:
        raise ValueError("rho_ext has no systems beyond the marginal to extend over")

    ref = fresh_label(rho_ext.layout.labels, "R")
    d_ab = rho_ext.dim
    d_a = sigma_marginal.dim
    d_b = d_ab // d_a

    # |phi_rho> on [ref, AB...]; regroup its amplitudes to the (ref+B | A) split.
    phi_layout = SystemLayout(((ref, d_ab),)).concat(rho_ext.layout)
    amp = purification_matrix(rho_ext.matrix, d_ref=d_ab).reshape(phi_layout.dims)
    perm = [phi_layout.position(lbl) for lbl in (ref,) + b_labels + a_labels]
    x_rho = amp.transpose(perm).reshape(d_ab * d_b, d_a)

    # |phi_sigma> on the same split, rotated on the purifying part.
    m_sig = purification_matrix(sigma_marginal.matrix, d_ref=d_ab * d_b)
    u, _ = _align_unitary(m_sig, x_rho)
    aligned = (u @ m_sig).reshape(d_ab, d_b, d_a)

    mat = np.einsum("rba,rcd->bacd", aligned, aligned.conj()).reshape(d_b * d_a, d_b * d_a)
    ba_layout = rho_ext.layout.sublayout(b_labels).concat(sigma_marginal.layout)
    sigma_ext = _unchecked(DensityOperator, ba_layout, mat)
    return permute_systems(sigma_ext, rho_ext.layout.labels)


__all__ = [
    "trace_distance",
    "fidelity",
    "FidelityPair",
    "uhlmann_align",
    "matched_extension",
]
