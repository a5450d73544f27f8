"""Interned triple store with path queries — the KG substrate.

The internal KG-based baselines (KStream, KLinker, PredPath) and the
rule-based checker operate directly over a knowledge graph: they need fast
neighbour expansion, degree statistics, and bounded path enumeration.  This
module provides a lightweight in-memory triple store for them.

Internally every node and predicate is interned to a small integer and the
adjacency is kept as per-node edge lists over those integers, so the hot
traversal loops (``neighbors``, ``find_paths``) touch ints and flat lists
instead of hashing strings.  Each edge is one int, ``pred_id << 32 |
other_id``, in each of its two per-node dicts.  A dict of ints is never
tracked by the cyclic garbage collector, so restoring, copying or
replaying a graph hands the collector no tuple per edge and no dict per
node to scan.  ``find_paths`` runs a meet-in-the-middle
search: a backward breadth-first sweep from the target labels every node
with its distance lower bound, and the forward enumeration prunes any
branch that provably cannot meet the target within the hop budget.  The
result (content *and* order) is identical to a plain forward BFS.

The interned **core** (interning tables + per-node edge lists) is the
graph's one representation: every query reads it, a storage-engine
checkpoint saves and restores it (:meth:`KnowledgeGraph.core_state`,
:meth:`KnowledgeGraph.from_core_state`) and :meth:`state_digest` hashes it.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .triples import Triple

__all__ = ["KnowledgeGraph", "Path", "PathStep"]

# A step in a path: (predicate, direction, node) where direction is +1 when
# the edge was traversed subject->object and -1 when traversed inversely.
PathStep = Tuple[str, int, str]
Path = Tuple[PathStep, ...]

#: Internal step over interned ids: (predicate id, direction, node id).
_IdStep = Tuple[int, int, int]
#: One :meth:`KnowledgeGraph.apply_batch` op: (not read, remove, s, p, o).
_Op = Tuple[object, object, str, str, str]


class KnowledgeGraph:
    """A directed, labelled multigraph of triples over interned ids."""

    def __init__(self, name: str = "kg") -> None:
        self.name = name
        # Interning tables: every node / predicate string maps to a dense id.
        self._node_ids: Dict[str, int] = {}
        self._node_names: List[str] = []
        self._pred_ids: Dict[str, int] = {}
        self._pred_names: List[str] = []
        # Per-node edge lists over interned ids, insertion-ordered with O(1)
        # membership and removal: list index `node id` ->
        # {pred << 32 | other: None}.
        self._out: List[Dict[int, None]] = []
        self._in: List[Dict[int, None]] = []
        # Lazily materialised per-node step lists used by the traversal
        # kernels; entry is None when the node's adjacency changed.
        self._steps_cache: List[Optional[List[_IdStep]]] = []
        # Live triple count, so ``len()`` never walks the edge lists.
        self._edge_count = 0
        # Bumped on entry to every ``apply_batch`` call: see :attr:`version`.
        self._version = 0

    def _steps(self, node_id: int) -> List[_IdStep]:
        """Undirected neighbour steps of one node, over interned ids."""
        steps = self._steps_cache[node_id]
        if steps is None:
            steps = [(edge >> 32, +1, edge & 0xFFFFFFFF) for edge in self._out[node_id]]
            steps.extend((edge >> 32, -1, edge & 0xFFFFFFFF) for edge in self._in[node_id])
            self._steps_cache[node_id] = steps
        return steps

    # -- mutation -----------------------------------------------------------

    def apply_batch(self, ops: Iterable[_Op]) -> Tuple[int, int]:
        """Apply ``(_, remove, subject, predicate, object)`` operations in
        order; returns how many triples were actually ``(added, removed)``.

        The first item is not read and ``remove`` is false to add the
        triple, true to remove it.  A triple record of a store's log
        (:data:`repro.store.log.Record`: epoch first, then a triple code
        that is this flag) is an op as it stands, so replay builds no
        object per op.  The one insert/remove path.
        Adding a present triple or removing an absent one is a no-op.  A new
        subject is interned before a new object, then a new predicate, each
        taking the next dense id; edges join their per-node lists in
        insertion order.
        """
        self._version += 1
        node_ids, names, pred_ids = self._node_ids, self._node_names, self._pred_ids
        out, in_, steps = self._out, self._in, self._steps_cache
        added = removed = 0
        try:
            for _, remove, s, p, o in ops:
                s_id = node_ids.get(s)
                o_id = node_ids.get(o)
                p_id = pred_ids.get(p)
                if not remove:
                    if s_id is None or o_id is None:
                        for name in (s, o):  # subject first; a self-loop interns once
                            if name not in node_ids:
                                node_ids[name] = len(names)
                                names.append(name)
                                out.append({})
                                in_.append({})
                                steps.append(None)
                        s_id, o_id = node_ids[s], node_ids[o]
                    elif p_id is not None and (p_id << 32 | o_id) in out[s_id]:
                        continue
                    if p_id is None:
                        p_id = pred_ids[p] = len(self._pred_names)
                        self._pred_names.append(p)
                    out[s_id][p_id << 32 | o_id] = None
                    in_[o_id][p_id << 32 | s_id] = None
                    added += 1
                else:
                    if (s_id is None or o_id is None or p_id is None
                            or (p_id << 32 | o_id) not in out[s_id]):
                        continue
                    del out[s_id][p_id << 32 | o_id]
                    del in_[o_id][p_id << 32 | s_id]
                    removed += 1
                steps[s_id] = None
                steps[o_id] = None
        finally:
            # Also when ``ops`` raises part-way: ``len`` matches the edges applied.
            self._edge_count += added - removed
        return added, removed

    def add(self, triple: Triple) -> bool:
        """Add a triple; returns ``False`` when it was already present."""
        return self.apply_batch(((None, False, *triple.as_tuple()),))[0] == 1

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Add many triples; returns the number actually inserted."""
        return self.apply_batch((None, False, *triple.as_tuple()) for triple in triples)[0]

    def remove(self, triple: Triple) -> bool:
        """Remove a triple; returns ``False`` when it was not present."""
        return self.apply_batch(((None, True, *triple.as_tuple()),))[1] == 1

    def reinterned(self) -> "KnowledgeGraph":
        """The same triples in a new graph whose interning tables are dense
        again: added in sorted order, so no entry is left for a node or
        predicate no edge uses.  Builds no :class:`Triple`."""
        graph = KnowledgeGraph(name=self.name)
        graph.apply_batch((None, False, s, p, o) for s, p, o in self.sorted_spo())
        return graph

    @property
    def version(self) -> int:
        """How many :meth:`apply_batch` calls (so ``add``, ``remove`` and
        ``add_all`` calls) this graph has taken, counted as each one starts.
        A holder that read it while no call was running learns from an equal
        later read that none has started since."""
        return self._version

    # -- basic queries ------------------------------------------------------

    def __len__(self) -> int:
        return self._edge_count

    def __contains__(self, triple: Triple) -> bool:
        return self.contains(*triple.as_tuple())

    def __iter__(self) -> Iterator[Triple]:
        # Sorted before the first yield, so a mutation mid-iteration is safe.
        return (Triple(*triple) for triple in self.sorted_spo())

    def sorted_spo(self) -> List[Tuple[str, str, str]]:
        """Every triple as a ``(subject, predicate, object)`` tuple, sorted:
        the order of iteration, without building a :class:`Triple`."""
        names, preds = self._node_names, self._pred_names
        return sorted((names[s], preds[edge >> 32], names[edge & 0xFFFFFFFF])
                      for s, edges in enumerate(self._out) for edge in edges)

    def contains(self, subject: str, predicate: str, obj: str) -> bool:
        s_id = self._node_ids.get(subject)
        if s_id is None:
            return False
        p_id = self._pred_ids.get(predicate)
        if p_id is None:
            return False
        o_id = self._node_ids.get(obj)
        if o_id is None:
            return False
        return (p_id << 32 | o_id) in self._out[s_id]

    def triples_with_predicate(self, predicate: str) -> List[Triple]:
        """Every triple with ``predicate``, sorted: one pass over the
        out-edges, keeping those whose high 32 bits are its id."""
        p_id = self._pred_ids.get(predicate)
        if p_id is None:
            return []
        names = self._node_names
        pairs = sorted((names[s], names[edge & 0xFFFFFFFF])
                       for s, edges in enumerate(self._out)
                       for edge in edges if edge >> 32 == p_id)
        return [Triple(s, predicate, o) for s, o in pairs]

    def nodes(self) -> List[str]:
        """Nodes that participate in at least one triple."""
        return sorted(
            name
            for name, node_id in self._node_ids.items()
            if self._out[node_id] or self._in[node_id]
        )

    def degree(self, node: str) -> int:
        node_id = self._node_ids.get(node)
        if node_id is None:
            return 0
        return len(self._out[node_id]) + len(self._in[node_id])

    # -- path queries (used by the internal-KG baselines) --------------------

    def neighbors(self, node: str) -> List[Tuple[str, int, str]]:
        """Undirected neighbourhood as ``(predicate, direction, node)`` steps."""
        node_id = self._node_ids.get(node)
        if node_id is None:
            return []
        names, preds = self._node_names, self._pred_names
        return [
            (preds[p], direction, names[other])
            for p, direction, other in self._steps(node_id)
        ]

    def find_paths(
        self,
        source: str,
        target: str,
        max_length: int = 3,
        exclude: Optional[Triple] = None,
        max_paths: int = 200,
    ) -> List[Path]:
        """Enumerate simple paths between two nodes up to ``max_length`` hops.

        Parameters
        ----------
        exclude:
            A triple whose direct edge should be ignored (the statement under
            verification must not support itself).
        max_paths:
            Enumeration cap that keeps the baselines tractable on dense
            graphs; the search is breadth-first so the shortest paths are
            kept.

        The search meets in the middle: a backward BFS from ``target``
        labels nodes with a hop-count lower bound, and the forward BFS skips
        every branch whose frontier node cannot reach the target within its
        remaining budget.  Pruning only removes provably dead branches, so
        the enumerated paths — and their order — match a full forward BFS.
        """
        if source == target:
            return []
        source_id = self._node_ids.get(source)
        target_id = self._node_ids.get(target)
        if source_id is None or target_id is None:
            return []

        distance = self._distances_to(target_id, max_length)
        if distance.get(source_id, max_length + 1) > max_length:
            return []

        excluded_edge = self._intern_edge(exclude)
        paths: List[Tuple[_IdStep, ...]] = []
        # Queue entries: (node id, path steps, nodes already on the path).
        queue: deque = deque()
        queue.append((source_id, (), (source_id,)))
        steps_of = self._steps
        while queue and len(paths) < max_paths:
            node_id, path, visited = queue.popleft()
            budget = max_length - len(path)
            if budget <= 0:
                continue
            for step in steps_of(node_id):
                pred_id, direction, neighbor_id = step
                if neighbor_id in visited:
                    continue
                if excluded_edge is not None:
                    edge = (
                        (node_id, pred_id, neighbor_id)
                        if direction == +1
                        else (neighbor_id, pred_id, node_id)
                    )
                    if edge == excluded_edge:
                        continue
                if neighbor_id == target_id:
                    paths.append(path + (step,))
                    if len(paths) >= max_paths:
                        break
                    continue
                # Meet-in-the-middle prune: the neighbour must be able to
                # reach the target with the budget left after this hop.
                if distance.get(neighbor_id, max_length + 1) > budget - 1:
                    continue
                queue.append((neighbor_id, path + (step,), visited + (neighbor_id,)))

        names, preds = self._node_names, self._pred_names
        return [
            tuple((preds[p], direction, names[n]) for p, direction, n in path)
            for path in paths
        ]

    def _distances_to(self, target_id: int, max_length: int) -> Dict[int, int]:
        """Backward BFS: hop-count lower bound from every node to the target."""
        distance: Dict[int, int] = {target_id: 0}
        frontier = [target_id]
        steps_of = self._steps
        for hops in range(1, max_length + 1):
            next_frontier: List[int] = []
            for node_id in frontier:
                for __, ___, neighbor_id in steps_of(node_id):
                    if neighbor_id not in distance:
                        distance[neighbor_id] = hops
                        next_frontier.append(neighbor_id)
            if not next_frontier:
                break
            frontier = next_frontier
        return distance

    def _intern_edge(self, triple: Optional[Triple]) -> Optional[Tuple[int, int, int]]:
        """Interned (s, p, o) of a triple, or None when absent from the graph."""
        if triple is None:
            return None
        s, p, o = triple.as_tuple()
        s_id = self._node_ids.get(s)
        p_id = self._pred_ids.get(p)
        o_id = self._node_ids.get(o)
        if s_id is None or p_id is None or o_id is None:
            return None
        return (s_id, p_id, o_id)

    @staticmethod
    def path_signature(path: Path) -> Tuple[Tuple[str, int], ...]:
        """Predicate-level signature of a path (drops intermediate nodes).

        PredPath mines *predicate paths*: two instance paths share a
        signature when they traverse the same predicates in the same
        directions.
        """
        return tuple((predicate, direction) for predicate, direction, __ in path)

    # -- copies ---------------------------------------------------------------

    def copy(self) -> "KnowledgeGraph":
        """Structure-preserving clone: interning tables and edge order included.

        The clone replicates the interning tables and per-node edge lists
        instead of re-adding triples one by one, so it is both much cheaper
        (no re-hashing or re-interning) and *byte-identical* to the source:
        traversal order — and therefore ``find_paths`` enumeration order —
        is preserved exactly.  The versioned knowledge store relies on this
        for cheap point-in-time snapshot views.
        """
        clone = KnowledgeGraph.__new__(KnowledgeGraph)
        clone.name = self.name
        clone._node_ids = dict(self._node_ids)
        clone._node_names = list(self._node_names)
        clone._pred_ids = dict(self._pred_ids)
        clone._pred_names = list(self._pred_names)
        clone._out = [dict(edges) for edges in self._out]
        clone._in = [dict(edges) for edges in self._in]
        clone._steps_cache = [
            None if steps is None else list(steps) for steps in self._steps_cache
        ]
        clone._edge_count = self._edge_count
        clone._version = 0
        return clone

    # -- storage-engine checkpoint state -------------------------------------

    def core_state(self) -> Dict[str, object]:
        """The interned core as plain containers, for checkpoint payloads.

        The core (name tables + per-node edge lists, edge order included)
        is the graph's complete observable state: :meth:`state_digest` is a
        pure function of it and every query reads it.  Each edge list is a dict keyed by packed
        ``pred << 32 | other`` ints.  The returned containers are the live
        ones — callers must serialise (or copy) them before the graph
        mutates again.
        """
        return {
            "node_names": self._node_names,
            "pred_names": self._pred_names,
            "out": self._out,
            "in": self._in,
        }

    @classmethod
    def from_core_state(cls, state: Dict[str, object]) -> "KnowledgeGraph":
        """Rebuild a graph from :meth:`core_state` output.

        The graph adopts the containers as they are and rebuilds its
        name-to-id maps from the name tables, so the caller must not touch
        them afterwards.
        """
        graph = cls.__new__(cls)
        graph.name = "kg"
        node_names = state["node_names"]
        pred_names = state["pred_names"]
        graph._node_names = node_names
        graph._pred_names = pred_names
        graph._node_ids = {n: i for i, n in enumerate(node_names)}
        graph._pred_ids = {p: i for i, p in enumerate(pred_names)}
        graph._out = state["out"]
        graph._in = state["in"]
        graph._steps_cache = [None] * len(node_names)
        graph._edge_count = sum(map(len, graph._out))
        graph._version = 0
        return graph

    def state_digest(self) -> str:
        """Hex digest of the full internal state, edge order included.

        Two graphs share a digest iff their interning tables and per-node
        edge lists are identical — i.e. every query (including the order of
        ``find_paths`` results, which depends on edge insertion order)
        behaves identically.  Used to verify that incremental mutation
        maintenance matches a deterministic log replay byte-for-byte.
        Each packed edge is hashed as its ``[pred, other]`` pair.
        """
        import hashlib
        import json

        payload = {
            "nodes": self._node_names,
            "predicates": self._pred_names,
            "out": [[[e >> 32, e & 0xFFFFFFFF] for e in edges] for edges in self._out],
            "in": [[[e >> 32, e & 0xFFFFFFFF] for e in edges] for edges in self._in],
        }
        blob = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()
