"""Labeled tensor-product spaces.

A :class:`SystemLayout` fixes the order, labels, and dimensions of the
subsystems an operator lives on.  The flat matrix index follows the
row-major convention over the listed order: the *first* listed system is
the most significant index, so ``|i1 i2 ... ik>`` maps to
``((i1 * d2 + i2) * d3 + ...)``.  Every partial operation in the package
(partial trace, permutation, channel application) is label-driven through
this class.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable


class LayoutError(ValueError):
    """Raised for unknown labels, bad permutations, or mismatched layouts."""


def as_labels(labels: str | Iterable[str]) -> tuple[str, ...]:
    """Normalize a label argument: a bare string means one label."""
    if isinstance(labels, str):
        return (labels,)
    return tuple(labels)


@dataclass(frozen=True)
class SystemLayout:
    """Ordered list of ``(label, dimension)`` pairs naming the subsystems."""

    systems: tuple[tuple[str, int], ...]

    def __init__(self, systems: Iterable[tuple[str, int]]):
        systems = tuple((str(lbl), int(d)) for lbl, d in systems)
        labels = [lbl for lbl, _ in systems]
        if len(set(labels)) != len(labels):
            raise LayoutError(f"duplicate system labels in {labels}")
        for lbl, d in systems:
            if d < 1:
                raise LayoutError(f"system {lbl!r} has dimension {d} < 1")
        object.__setattr__(self, "systems", systems)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, _ in self.systems)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.systems)

    @property
    def total_dim(self) -> int:
        return prod(self.dims)

    def __len__(self) -> int:
        return len(self.systems)

    def dim_of(self, label: str) -> int:
        return self.systems[self.position(label)][1]

    def position(self, label: str) -> int:
        for i, (lbl, _) in enumerate(self.systems):
            if lbl == label:
                return i
        raise LayoutError(f"unknown system label {label!r}; have {self.labels}")

    def positions(self, labels: str | Iterable[str]) -> tuple[int, ...]:
        """Positions of the given labels, in the order they are listed here."""
        want = set(as_labels(labels))
        missing = want - set(self.labels)
        if missing:
            raise LayoutError(f"unknown system labels {sorted(missing)}; have {self.labels}")
        return tuple(i for i, (lbl, _) in enumerate(self.systems) if lbl in want)

    def sublayout(self, labels: str | Iterable[str]) -> "SystemLayout":
        """Layout restricted to ``labels``, keeping the original order."""
        pos = self.positions(labels)
        return SystemLayout(self.systems[i] for i in pos)

    def concat(self, other: "SystemLayout") -> "SystemLayout":
        overlap = set(self.labels) & set(other.labels)
        if overlap:
            raise LayoutError(f"label collision on concatenation: {sorted(overlap)}")
        return SystemLayout(self.systems + other.systems)


def fresh_label(taken: Iterable[str], base: str = "R") -> str:
    """A label starting with ``base`` that does not collide with ``taken``."""
    taken = set(taken)
    if base not in taken:
        return base
    k = 0
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"


__all__ = ["LayoutError", "SystemLayout", "fresh_label"]
