"""Entropic functionals over labeled groups of systems.

All quantities are in bits (base-2 logarithms).  Group arguments are label
collections; an empty conditioning group means the unconditional quantity.
Outputs are raw reals: tiny negative residuals from floating point are
*not* clamped here, so property tests see the true numbers.

Both sides of the key bound are sums of marginal entropies of pure tensors,
and one engine computes them: ``_gram_plan`` groups the marginals (axis
sets) by the side of their smaller Gram matrix, as ``S(X) = S(X^c)``, and
``_pure_entropies`` diagonalizes each group as one stack over a batch.
Without weights it returns the entropies (one ``eigvalsh`` per Gram size),
which ``private_states._identity_residuals`` reads as ``|m log2 K - S @
coef|``; with weights, as the squashing kernel of :mod:`privsq.squashed`,
it also returns ``G_t``, the gradient of ``S @ weights`` (one ``eigh`` per
Gram size).
"""

from __future__ import annotations

from functools import cache, partial
from math import log, log2, prod
from typing import Callable, Iterable, Sequence

import numpy as np

from .layout import LayoutError, as_labels
from .tensor import EIG_CLIP, DensityOperator, entropy_bits, reduce_matrix

FLAVOR_TOTAL = "total"
FLAVOR_DUAL = "dual"
_FLAVORS = (FLAVOR_TOTAL, FLAVOR_DUAL)


def _group_entropy(rho: DensityOperator, labels: tuple[str, ...]) -> float:
    """Entropy of the reduction onto a non-empty group ``labels``."""
    pos = rho.layout.positions(labels)
    return entropy_bits(reduce_matrix(rho.matrix, rho.layout.dims, pos))


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
    the sum of ``coefficient * H(members)``.  Members are whatever names
    the entropy oracle takes (labels, or tensor axes).

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


def _merged(terms: Terms) -> dict[tuple, int]:
    """``terms`` as ``{members: coefficient}`` with equal member sets merged
    (members sorted), and without the sets whose coefficients cancel and
    the empty set."""
    merged: dict[tuple, int] = {}
    for c, members in terms:
        key = tuple(sorted(members))
        merged[key] = merged.get(key, 0) + c
    return {key: c for key, c in merged.items() if c and key}


def _information(entropy_of: Callable[[tuple], float], terms: Terms) -> float:
    """``sum c * entropy_of(members)`` over ``terms``, with equal member
    sets merged first (:func:`_merged`): sets whose coefficients cancel, and
    the empty set, are never evaluated.  ``entropy_of`` receives the
    members sorted."""
    return sum((c * entropy_of(key) for key, c in _merged(terms).items()), 0.0)


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
    return _information(partial(_group_entropy, rho), [(1, a + b), (-1, b)])


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
    return _information(partial(_group_entropy, rho), terms)


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


@cache
def _gram_gathers(shape: tuple[int, ...], marginals: tuple[tuple[int, ...], ...]) -> tuple:
    """The gradient mode's reads of :func:`_gram_plan`: a flat gather per
    group that lays out its matricizations, and the inverse of them all,
    whose row ``i`` brings block ``i`` back to the axis order of the tensor."""
    index = np.arange(prod(shape)).reshape(shape)
    gathers = [np.stack([index.transpose(p).ravel() for p in perms])
               for _, perms in _gram_plan(shape, marginals)[0]]
    every = np.concatenate(gathers)
    offsets = every.shape[1] * np.arange(len(every))[:, None]
    return [g.ravel() for g in gathers], np.argsort(every, axis=1) + offsets


def _pure_entropies(t: np.ndarray, shape: tuple[int, ...],
                    marginals: tuple[tuple[int, ...], ...], weights: np.ndarray | None = None):
    """Entropies in bits of the ``marginals`` of a batch of pure tensors
    shaped ``shape``, one per row of ``t``, as a ``(batch, marginals)`` array
    ``S``.  Each comes from the Gram matrix ``g = M M^dagger`` of its
    matricization ``M`` (:func:`_gram_plan`), one stacked diagonalization
    per Gram size; eigenvalues at or below the clip are dropped, as in
    ``entropy_bits``.  Without ``weights``: ``eigvalsh``, on stacks read
    through transposes.  With ``weights``: ``eigh``, on stacks read through
    the cached gathers, and also ``G_t``, the gradient of each row of ``S @
    weights`` (``df = Re <G_t, dt>``).  ``dS = -Tr[(log2 g + 1/ln 2) dg]``
    gives ``G_M = -2 L M``, ``L`` being ``log2 g + 1/ln 2`` on the kept
    eigenvalues."""
    (groups, order, positions), n = _gram_plan(shape, marginals), t.shape[0]
    s, stop = np.empty((n, len(order))), 0
    # Two read paths (ROADMAP item 14): gathers cached for every layout of the lemmas
    # suite would cost RSS, and transposes make the gradient kernel 12-28% slower.
    if weights is None:
        tensors = t.reshape((n,) + shape)
    else:
        (gathers, inverse), flat, parts = _gram_gathers(shape, marginals), t.reshape(n, -1), []
        weights = -2.0 * weights.take(order)  # the factor of G_M, in plan order
    for i, (r, perms) in enumerate(groups):
        start, stop = stop, stop + len(perms)
        if weights is None:
            m = np.stack([tensors.transpose((0, *(a + 1 for a in p))).reshape(n, r, -1)
                          for p in perms], axis=1)
            w = np.linalg.eigvalsh(m @ m.conj().swapaxes(-1, -2))
        else:
            m = flat.take(gathers[i], 1).reshape(n, len(perms), r, -1)
            w, q = np.linalg.eigh(m @ m.conj().swapaxes(-1, -2))
        kept = w > EIG_CLIP
        log_w = np.log2(w, out=np.zeros(w.shape), where=kept)
        np.add.reduce(w * log_w, -1, out=s[:, start:stop])
        if weights is not None:  # log_w becomes the multiplier of q q^dagger M
            np.add(log_w, 1.0 / log(2.0), out=log_w, where=kept)
            log_w *= weights[start:stop, None]
            parts.append(((q * log_w[..., None, :]) @ q.conj().swapaxes(-1, -2) @ m).reshape(n, -1))
    s = -s.take(positions, 1)
    if weights is None:
        return s
    return s, np.add.reduce(np.concatenate(parts, axis=1).take(inverse, 1), 1).reshape(t.shape)


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
