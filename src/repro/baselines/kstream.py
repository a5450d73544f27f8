"""Knowledge Stream (KStream): max-flow truth scoring over the KG.

KStream (Shiralkar et al., ICDM 2017) models the KG as a flow network and
measures how much "knowledge flow" can be routed from the subject to the
object of a candidate triple: well-supported facts sit in densely connected
neighbourhoods that carry substantial flow even when the direct edge is
removed, while spurious facts connect weakly related regions of the graph.

This implementation builds an undirected capacity network over the
neighbourhood of the two query entities (bounded breadth-first expansion),
assigns degree-penalised capacities — generic hub nodes should not carry as
much specific evidence — removes the direct edge for the statement under
verification, and computes the max flow with NetworkX.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Set

from ..kg.triples import Triple
from .base import GraphFactChecker

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["KnowledgeStream"]

#: BFS depth of the region grown around each endpoint.
MAX_HOPS = 3
#: Nodes at which the region stops growing (keeps max-flow tractable).
MAX_NODES = 400
#: Flow at which the score reaches ``1 - 1/e``.
FLOW_NORMALIZER = 3.0


class KnowledgeStream(GraphFactChecker):
    """Max-flow based truth scorer."""

    method_name = "kstream"

    def score(self, subject: str, predicate: str, obj: str) -> float:
        # networkx is imported where it is used so that ``import repro`` does
        # not pay for it.
        import networkx as nx

        if subject == obj:
            return 0.0
        nodes = self._neighborhood(subject, obj)
        if subject not in nodes or obj not in nodes:
            return 0.0
        flow_graph = self._build_flow_network(nodes, Triple(subject, predicate, obj))
        if subject not in flow_graph or obj not in flow_graph:
            return 0.0
        try:
            flow_value, __ = nx.maximum_flow(flow_graph, subject, obj, capacity="capacity")
        except nx.NetworkXError:
            return 0.0
        # Squash the unbounded flow value into [0, 1].
        return 1.0 - math.exp(-flow_value / FLOW_NORMALIZER)

    # -- internals ---------------------------------------------------------------

    def _neighborhood(self, subject: str, obj: str) -> Set[str]:
        """Bounded BFS region around both endpoints (keeps max-flow tractable)."""
        nodes: Set[str] = set()
        for seed in (subject, obj):
            frontier = {seed}
            nodes.add(seed)
            for __ in range(MAX_HOPS):
                next_frontier: Set[str] = set()
                for node in frontier:
                    for __, ___, neighbor in self.graph.neighbors(node):
                        if neighbor not in nodes:
                            next_frontier.add(neighbor)
                            nodes.add(neighbor)
                            if len(nodes) >= MAX_NODES:
                                return nodes
                frontier = next_frontier
                if not frontier:
                    break
        return nodes

    def _build_flow_network(self, nodes: Set[str], excluded: Triple) -> nx.DiGraph:
        """Undirected capacity network restricted to ``nodes``.

        Edge capacity is ``1 / (1 + log(1 + min(deg(u), deg(v))))``: edges
        through low-degree (specific) nodes carry more evidential weight than
        edges through generic hubs, following the specificity weighting of the
        original Knowledge Stream / Knowledge Linker line of work.
        """
        import networkx as nx

        network = nx.DiGraph()
        seen: Dict[tuple, float] = {}
        for node in nodes:
            for predicate, direction, neighbor in self.graph.neighbors(node):
                if neighbor not in nodes:
                    continue
                source, target = (node, neighbor) if direction == +1 else (neighbor, node)
                if (source, predicate, target) == excluded.as_tuple():
                    continue
                degree_penalty = 1.0 + math.log1p(
                    min(self.graph.degree(source), self.graph.degree(target))
                )
                capacity = 1.0 / degree_penalty
                for u, v in ((source, target), (target, source)):
                    key = (u, v)
                    seen[key] = max(seen.get(key, 0.0), capacity)
        for (u, v), capacity in seen.items():
            network.add_edge(u, v, capacity=capacity)
        return network
