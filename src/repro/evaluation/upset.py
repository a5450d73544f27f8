"""Prediction-overlap (UpSet) analysis across models (Figure 4).

For each prompting method, the paper plots how the sets of *correctly
predicted* facts intersect across the four open-source models: the largest
intersection is typically the facts every model gets right, and the way the
remaining mass distributes over partial intersections reveals how much the
models complement each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Sequence, Set, Tuple

__all__ = [
    "IntersectionCell",
    "upset_intersections",
    "exclusive_intersections",
]


@dataclass(frozen=True)
class IntersectionCell:
    """One bar of the UpSet plot: a model combination and its exclusive count."""

    models: Tuple[str, ...]
    count: int

    def label(self) -> str:
        return " & ".join(self.models)


def exclusive_intersections(sets: Mapping[str, Set[str]]) -> Dict[FrozenSet[str], Set[str]]:
    """Partition the union of all sets by exactly-which-sets membership.

    Every element of the union is assigned to exactly one cell: the frozenset
    of set names that contain it.  This is the standard UpSet decomposition.
    """
    membership: Dict[str, Set[str]] = {}
    for name, items in sets.items():
        for item in items:
            membership.setdefault(item, set()).add(name)
    cells: Dict[FrozenSet[str], Set[str]] = {}
    for item, owners in membership.items():
        cells.setdefault(frozenset(owners), set()).add(item)
    return cells


def upset_intersections(
    correct_by_model: Mapping[str, Sequence[str]],
    min_count: int = 0,
) -> List[IntersectionCell]:
    """The UpSet bars: exclusive intersection sizes, largest first.

    Parameters
    ----------
    correct_by_model:
        Mapping of model name to the fact ids that model predicted correctly.
    min_count:
        Drop cells smaller than this (purely presentational).
    """
    sets = {name: set(items) for name, items in correct_by_model.items()}
    cells = exclusive_intersections(sets)
    bars = [
        IntersectionCell(models=tuple(sorted(owners)), count=len(items))
        for owners, items in cells.items()
        if len(items) >= min_count
    ]
    return sorted(bars, key=lambda cell: (-cell.count, cell.models))
