"""Entropic functionals over labeled groups of systems.

All quantities are in bits (base-2 logarithms).  Group arguments are label
collections; an empty conditioning group means the unconditional quantity.
Outputs are raw reals: tiny negative residuals from floating point are
*not* clamped here, so property tests see the true numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import log2
from typing import Callable, Iterable, Sequence

from .layout import LayoutError, SystemLayout, as_labels
from .tensor import DensityOperator, entropy_bits, reduce_matrix

FLAVOR_TOTAL = "total"
FLAVOR_DUAL = "dual"
_FLAVORS = (FLAVOR_TOTAL, FLAVOR_DUAL)


@dataclass(frozen=True)
class Partition:
    """Named, disjoint groups of system labels, e.g. ``A -> (A1, A1p)``."""

    groups: tuple[tuple[str, tuple[str, ...]], ...]

    def __init__(self, groups: Iterable[tuple[str, Iterable[str]]]):
        norm = tuple((str(name), as_labels(labels)) for name, labels in groups)
        names = [name for name, _ in norm]
        if len(set(names)) != len(names):
            raise LayoutError(f"duplicate group names in {names}")
        _disjoint(*(labels for _, labels in norm))
        object.__setattr__(self, "groups", norm)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.groups)

    def group(self, name: str) -> tuple[str, ...]:
        for n, labels in self.groups:
            if n == name:
                return labels
        raise KeyError(f"no group named {name!r}; have {self.names}")

    def validate_against(self, layout: SystemLayout) -> None:
        for _, labels in self.groups:
            layout.positions(labels)  # raises LayoutError on unknown labels


def _group_entropy(rho: DensityOperator, labels: tuple[str, ...]) -> float:
    """Entropy of the reduction onto ``labels``; the empty group gives 0."""
    if not labels:
        return 0.0
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


def _information(entropy_of: Callable[[tuple], float], terms: Terms) -> float:
    """``sum c * entropy_of(members)`` over ``terms``, with equal member
    sets merged first: sets whose coefficients cancel, and the empty set,
    are never evaluated.  ``entropy_of`` receives the members sorted."""
    merged: dict[tuple, int] = {}
    for c, members in terms:
        key = tuple(sorted(members))
        merged[key] = merged.get(key, 0) + c
    return sum((c * entropy_of(key) for key, c in merged.items() if c and key), 0.0)


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
    gs = [as_labels(g) for g in groups]
    e = as_labels(cond)
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
    """``(1+eps) h2(eps/(1+eps))``, in the continuity and key-rate bounds."""
    return (1.0 + eps) * binary_entropy(eps / (1.0 + eps))


# Continuity-bound kinds.  The linear term's coefficient and the doubling of
# the binary-entropy term depend on which quantity is being bounded.
KIND_COND_ENTROPY = "cond_entropy"
KIND_COND_MUTUAL_INFO = "cond_mutual_info"
KIND_KEY_BIPARTITE = "key_bipartite"
KIND_KEY_MULTI_TOTAL = "key_multi_total"
KIND_KEY_MULTI_DUAL = "key_multi_dual"

_KINDS = (
    KIND_COND_ENTROPY,
    KIND_COND_MUTUAL_INFO,
    KIND_KEY_BIPARTITE,
    KIND_KEY_MULTI_TOTAL,
    KIND_KEY_MULTI_DUAL,
)

# Default multipliers for the multipartite key bounds.  Only the existence of
# positive integer constants is asserted by the theory; these defaults are
# configuration, not claims, and every report records the values used.
DEFAULT_MULTI_CONSTANTS = (4, 4)


@dataclass(frozen=True)
class ContinuityParams:
    """Inputs to :func:`continuity_bound`.

    ``log_dim`` is the base-2 logarithm of the dimension entering the linear
    term (the conditioned system, the smaller of the two systems, or the key
    dimension, depending on ``kind``).  ``parties`` and ``constants`` apply
    to the multipartite key kinds only.
    """

    kind: str
    eps: float
    log_dim: float
    parties: int | None = None
    constants: tuple[int, int] = DEFAULT_MULTI_CONSTANTS

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown continuity kind {self.kind!r}; have {_KINDS}")
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError(f"eps {self.eps} outside [0, 1]")
        if self.log_dim < 0:
            raise ValueError(f"log_dim {self.log_dim} < 0")
        if self.kind in (KIND_KEY_MULTI_TOTAL, KIND_KEY_MULTI_DUAL):
            if self.parties is None or self.parties < 2:
                raise ValueError(f"kind {self.kind!r} needs parties >= 2")
            c1, c2 = self.constants
            if c1 < 1 or c2 < 1:
                raise ValueError(f"constants {self.constants} must be positive integers")


def continuity_bound(p: ContinuityParams) -> float:
    """Uniform continuity bound of the requested kind at perturbation ``eps``.

    * ``cond_entropy``:      ``2 eps log_dim + (1+eps) h2(eps/(1+eps))``
    * ``cond_mutual_info``:  ``2 eps log_dim + 2 (1+eps) h2(eps/(1+eps))``
    * ``key_bipartite``:     same form as ``cond_mutual_info`` with
      ``log_dim = log2 K``
    * ``key_multi_total`` / ``key_multi_dual``:
      ``m [c1 eps log_dim + c2 (1+eps) h2(eps/(1+eps))]``
    """
    eps = p.eps
    h_term = _h2_term(eps)
    if p.kind == KIND_COND_ENTROPY:
        return 2.0 * eps * p.log_dim + h_term
    if p.kind in (KIND_COND_MUTUAL_INFO, KIND_KEY_BIPARTITE):
        return 2.0 * eps * p.log_dim + 2.0 * h_term
    c1, c2 = p.constants
    return p.parties * (c1 * eps * p.log_dim + c2 * h_term)


__all__ = [
    "Partition",
    "vn_entropy",
    "cond_entropy",
    "cond_mutual_info",
    "total_correlation",
    "dual_total_correlation",
    "info_terms",
    "binary_entropy",
    "ContinuityParams",
    "continuity_bound",
    "DEFAULT_MULTI_CONSTANTS",
    "FLAVOR_TOTAL",
    "FLAVOR_DUAL",
    "KIND_COND_ENTROPY",
    "KIND_COND_MUTUAL_INFO",
    "KIND_KEY_BIPARTITE",
    "KIND_KEY_MULTI_TOTAL",
    "KIND_KEY_MULTI_DUAL",
]
