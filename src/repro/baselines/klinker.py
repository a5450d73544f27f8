"""Relational Knowledge Linker (KLinker): best-path truth scoring.

Knowledge Linker (Ciampaglia et al. / Shiralkar et al.) scores a candidate
triple by the *single most specific path* connecting subject and object: the
score of a path is the product of its edge weights, where traversing a
high-degree hub node is penalised (a path through "United States" says less
than a path through a specific co-authored paper).  The best path is found
with Dijkstra in negative-log space.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Tuple

from ..kg.triples import Triple
from .base import GraphFactChecker

__all__ = ["KnowledgeLinker"]

#: Longest path, in hops, the search follows.
MAX_PATH_LENGTH = 4
#: Heap pops after which the search gives up and scores the pair 0.
MAX_EXPANSIONS = 20000


class KnowledgeLinker(GraphFactChecker):
    """Best-path (maximum-specificity) truth scorer."""

    method_name = "klinker"

    def score(self, subject: str, predicate: str, obj: str) -> float:
        if subject == obj:
            return 0.0
        excluded = Triple(subject, predicate, obj).as_tuple()
        best_cost = self._dijkstra(subject, obj, excluded)
        if best_cost is None:
            return 0.0
        # Path specificity: product of edge weights = exp(-cost).
        return math.exp(-best_cost)

    def _edge_cost(self, intermediate: str) -> float:
        """Cost of passing through a node: log-degree penalty (hub discount)."""
        return math.log1p(1.0 + math.log1p(self.graph.degree(intermediate)))

    def _dijkstra(
        self, source: str, target: str, excluded: Tuple[str, str, str]
    ) -> float | None:
        """Cheapest path cost from source to target, skipping the direct edge."""
        distances: Dict[str, float] = {source: 0.0}
        hops: Dict[str, int] = {source: 0}
        heap: List[Tuple[float, str]] = [(0.0, source)]
        expansions = 0
        while heap:
            cost, node = heapq.heappop(heap)
            expansions += 1
            if expansions > MAX_EXPANSIONS:
                break
            if node == target:
                return cost
            if cost > distances.get(node, math.inf):
                continue
            if hops[node] >= MAX_PATH_LENGTH:
                continue
            for pred, direction, neighbor in self.graph.neighbors(node):
                edge = (node, pred, neighbor) if direction == +1 else (neighbor, pred, node)
                if edge == excluded:
                    continue
                step_cost = self._edge_cost(neighbor if neighbor != target else node)
                new_cost = cost + step_cost
                if new_cost < distances.get(neighbor, math.inf):
                    distances[neighbor] = new_cost
                    hops[neighbor] = hops[node] + 1
                    heapq.heappush(heap, (new_cost, neighbor))
        return distances.get(target)
