"""Entropic functionals over labeled groups of systems.

All quantities are in bits (base-2 logarithms).  Group arguments are label
collections; an empty conditioning group means the unconditional quantity.
Outputs are raw reals: tiny negative residuals from floating point are
*not* clamped here, so property tests see the true numbers.

Both sides of the key bound are sums of marginal entropies of pure tensors,
and one plan reads them: ``_gram_plan`` groups the marginals (axis sets) by
the side of their smaller Gram matrix, as ``S(X) = S(X^c)``.
``_pure_entropies`` diagonalizes each group as one stack over a batch of
tensors and returns the entropies (one ``eigvalsh`` per Gram size), which
``private_states._identity_residuals`` reads as ``|m log2 K - S @ coef|``.
The squashing kernel of :mod:`privsq.squashed` reads the same plan once
per search into gathers and evaluates one tensor with its gradient.
"""

from __future__ import annotations

from functools import cache
from math import log2, prod
from typing import Iterable, Sequence

import numpy as np

from .layout import LayoutError, as_labels
from .tensor import EIG_CLIP, DensityOperator, entropy_bits, reduce_matrix

FLAVOR_TOTAL = "total"
FLAVOR_DUAL = "dual"
_FLAVORS = (FLAVOR_TOTAL, FLAVOR_DUAL)


def _disjoint(*groups: tuple[str, ...]) -> None:
    seen: set[str] = set()
    for g in groups:
        for lbl in g:
            if lbl in seen:
                raise LayoutError(f"groups overlap on label {lbl!r}")
            seen.add(lbl)


Terms = list[tuple[int, tuple]]


def info_terms(groups: Sequence[tuple], cond: tuple, flavor: str) -> Terms:
    """Conditional total or dual total correlation of ``m >= 2`` groups
    given ``cond`` as ``(coefficient, members)`` pairs: the information is
    the sum of ``coefficient * H(members)``.  Members are labels (for
    :func:`_information`) or tensor axes (for the pure-state engine).

    * total: ``sum_i H(A_i|E) - H(A_1...A_m|E)``
    * dual:  ``H(A_1...A_m|E) - sum_i H(A_i | A_{[m] minus i} E)``
    """
    if flavor not in _FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}; have {_FLAVORS}")
    k = len(groups)
    if k < 2:
        raise ValueError("need at least two groups")
    every = cond + tuple(p for g in groups for p in g)
    if flavor == FLAVOR_TOTAL:
        return [(1 - k, cond), (-1, every)] + [(1, cond + g) for g in groups]
    rests = [tuple(p for j, g in enumerate(groups) if j != i for p in g) for i in range(k)]
    return [(1 - k, every), (-1, cond)] + [(1, cond + r) for r in rests]


def _cond_terms(group: tuple, cond: tuple) -> Terms:
    """``H(A|B) = H(AB) - H(B)`` as ``(coefficient, members)`` pairs, like
    :func:`info_terms`."""
    return [(1, group + cond), (-1, cond)]


def _merged(terms: Terms) -> dict[tuple, int]:
    """``terms`` as ``{members: coefficient}`` with equal member sets merged
    (members sorted), and without the sets whose coefficients cancel and
    the empty set."""
    merged: dict[tuple, int] = {}
    for c, members in terms:
        key = tuple(sorted(members))
        merged[key] = merged.get(key, 0) + c
    return {key: c for key, c in merged.items() if c and key}


def _information(rho: DensityOperator, terms: Terms) -> float:
    """``sum c * H(members)`` over ``terms`` (members: labels of ``rho``),
    each entropy that of a partial trace of ``rho``, with equal member sets
    merged first (:func:`_merged`): sets whose coefficients cancel, and the
    empty set, are never evaluated."""
    layout = rho.layout
    return sum((c * entropy_bits(reduce_matrix(rho.matrix, layout.dims, layout.positions(key)))
                for key, c in _merged(terms).items()), 0.0)


def vn_entropy(rho: DensityOperator) -> float:
    """Von Neumann entropy in bits, ``-sum(lam * log2(lam))`` over the
    clipped eigenvalues."""
    return entropy_bits(rho.matrix)


def cond_entropy(
    rho: DensityOperator,
    group: str | Iterable[str],
    cond: str | Iterable[str] = (),
) -> float:
    """Conditional entropy ``H(A|B) = H(AB) - H(B)``; may be negative."""
    a, b = as_labels(group), as_labels(cond)
    _disjoint(a, b)
    return _information(rho, _cond_terms(a, b))


def cond_mutual_info(
    rho: DensityOperator,
    group_a: str | Iterable[str],
    group_b: str | Iterable[str],
    cond: str | Iterable[str] = (),
) -> float:
    """Conditional mutual information
    ``I(A;B|E) = H(AE) + H(BE) - H(E) - H(ABE)``, non-negative up to
    numerical slack.  An empty ``cond`` gives the plain mutual information.
    """
    return total_correlation(rho, [group_a, group_b], cond)


def _correlation(
    rho: DensityOperator,
    groups: Sequence[Iterable[str] | str],
    cond: str | Iterable[str],
    flavor: str,
) -> float:
    gs, e = [as_labels(g) for g in groups], as_labels(cond)
    terms = info_terms(gs, e, flavor)
    _disjoint(*gs, e)
    return _information(rho, terms)


def total_correlation(
    rho: DensityOperator,
    groups: Sequence[Iterable[str] | str],
    cond: str | Iterable[str] = (),
) -> float:
    """Conditional total correlation
    ``sum_i H(A_i|E) - H(A_1...A_m|E)`` over ``m >= 2`` disjoint groups.

    For two groups this coincides with :func:`cond_mutual_info`.
    """
    return _correlation(rho, groups, cond, FLAVOR_TOTAL)


def dual_total_correlation(
    rho: DensityOperator,
    groups: Sequence[Iterable[str] | str],
    cond: str | Iterable[str] = (),
) -> float:
    """Conditional dual total correlation
    ``H(A_1...A_m|E) - sum_i H(A_i | A_{[m] minus i} E)``.

    For two groups this also reduces to :func:`cond_mutual_info`.
    """
    return _correlation(rho, groups, cond, FLAVOR_DUAL)


def binary_entropy(x: float) -> float:
    """``h2(x) = -x log2 x - (1-x) log2(1-x)`` on [0, 1], 0 at the endpoints."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy argument {x} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * log2(x) - (1.0 - x) * log2(1.0 - x))


def _h2_term(eps: float) -> float:
    """``g(eps) = (1+eps) h2(eps/(1+eps))``, in the continuity and key-rate bounds."""
    return (1.0 + eps) * binary_entropy(eps / (1.0 + eps))


def _continuity(eps: float, log_dim: float, g_weight: float) -> float:
    """``2 eps log_dim + g_weight g(eps)``, the uniform continuity form at
    trace distance ``eps`` (Winter, arXiv:1507.07775)."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps {eps} outside [0, 1]")
    if not log_dim >= 0.0:
        raise ValueError(f"log_dim {log_dim} must be >= 0")
    return 2.0 * eps * log_dim + g_weight * _h2_term(eps)


def cond_entropy_continuity(eps: float, log_dim: float) -> float:
    """Largest change of ``H(A|B)`` between states at trace distance ``eps``:
    ``2 eps log_dim + g(eps)`` with ``log_dim = log2 d_A``."""
    return _continuity(eps, log_dim, 1.0)


def cmi_continuity(eps: float, log_dim: float) -> float:
    """Largest change of ``I(A;B|E)`` between states at trace distance
    ``eps``: ``2 eps log_dim + 2 g(eps)`` with ``log_dim`` the base-2 log of
    the smaller of ``d_A`` and ``d_B``."""
    return _continuity(eps, log_dim, 2.0)


# ---------------------------------------------------------------------------
# pure-state marginal entropies
# ---------------------------------------------------------------------------

@cache
def _gram_plan(shape: tuple[int, ...], marginals: tuple[tuple[int, ...], ...]) -> tuple:
    """The marginals (axis sets) of a pure tensor shaped ``shape`` grouped by
    the side ``r`` of their smaller Gram matrix, as ``(groups, order,
    positions)``: ``groups`` holds ``(r, perms)`` per side, smallest first,
    each perm the axis order that puts its marginal's smaller side first;
    ``order`` the marginal each perm reads, group after group; ``positions``
    the inverse of ``order``.  Only index tuples, so an entry stays small."""
    size, sides = prod(shape), []
    for j, axes in enumerate(marginals):
        rest = tuple(a for a in range(len(shape)) if a not in axes)
        rows = prod(shape[a] for a in axes)
        sides.append((rows, axes + rest, j) if rows * rows <= size else (size // rows, rest + axes, j))
    sides.sort(key=lambda side: side[0])
    order = tuple(j for _, _, j in sides)
    groups = tuple((r, tuple(p for s, p, _ in sides if s == r)) for r in sorted({s for s, _, _ in sides}))
    return groups, order, tuple(sorted(range(len(order)), key=order.__getitem__))


def _pure_entropies(t: np.ndarray, shape: tuple[int, ...],
                    marginals: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Entropies in bits of the ``marginals`` of a batch of pure tensors
    shaped ``shape``, one per row of ``t``, as a ``(batch, marginals)`` array
    ``S``.  Each comes from the Gram matrix ``g = M M^dagger`` of its
    matricization ``M`` (:func:`_gram_plan`), one stacked ``eigvalsh`` per
    Gram size on stacks read through transposes; eigenvalues at or below
    the clip are dropped, as in ``entropy_bits``."""
    (groups, order, positions), n = _gram_plan(shape, marginals), t.shape[0]
    s, stop = np.empty((n, len(order))), 0
    # Transposes, not the kernel's gathers (ROADMAP item 14): gathers cached for every
    # layout of the lemmas suite would cost RSS.
    tensors = t.reshape((n,) + shape)
    for r, perms in groups:
        start, stop = stop, stop + len(perms)
        m = np.stack([tensors.transpose((0, *(a + 1 for a in p))).reshape(n, r, -1)
                      for p in perms], axis=1)
        w = np.linalg.eigvalsh(m @ m.conj().swapaxes(-1, -2))
        log_w = np.log2(w, out=np.zeros(w.shape), where=w > EIG_CLIP)
        np.add.reduce(w * log_w, -1, out=s[:, start:stop])
    return -s.take(positions, 1)


__all__ = [
    "vn_entropy",
    "cond_entropy",
    "cond_mutual_info",
    "total_correlation",
    "dual_total_correlation",
    "info_terms",
    "binary_entropy",
    "cond_entropy_continuity",
    "cmi_continuity",
    "FLAVOR_TOTAL",
    "FLAVOR_DUAL",
]
