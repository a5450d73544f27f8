"""Tests for the indexed triple store and its path queries."""

import pickle
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kg import KnowledgeGraph, Triple
from repro.store import Mutation, VersionedKnowledgeStore


def reference_find_paths(graph, source, target, max_length=3, exclude=None, max_paths=200):
    """The seed's unidirectional BFS enumeration, kept as the oracle for the
    pruned meet-in-the-middle implementation."""
    if source == target:
        return []
    excluded_edge = exclude.as_tuple() if exclude is not None else None
    paths = []
    queue = deque()
    queue.append((source, (), frozenset({source})))
    while queue and len(paths) < max_paths:
        node, path, visited = queue.popleft()
        if len(path) >= max_length:
            continue
        for predicate, direction, neighbor in graph.neighbors(node):
            if neighbor in visited:
                continue
            if excluded_edge is not None:
                forward = (node, predicate, neighbor)
                backward = (neighbor, predicate, node)
                if direction == +1 and forward == excluded_edge:
                    continue
                if direction == -1 and backward == excluded_edge:
                    continue
            new_path = path + ((predicate, direction, neighbor),)
            if neighbor == target:
                paths.append(new_path)
                if len(paths) >= max_paths:
                    break
                continue
            queue.append((neighbor, new_path, visited | {neighbor}))
    return paths


@pytest.fixture
def small_graph():
    graph = KnowledgeGraph("test")
    triples = [
        Triple("alice", "spouse", "bob"),
        Triple("alice", "birthPlace", "springfield"),
        Triple("bob", "birthPlace", "springfield"),
        Triple("springfield", "locatedIn", "freedonia"),
        Triple("alice", "employer", "acme"),
        Triple("bob", "employer", "acme"),
        Triple("carol", "birthPlace", "shelbyville"),
    ]
    graph.add_all(triples)
    return graph


class TestMutation:
    def test_add_returns_true_then_false(self):
        graph = KnowledgeGraph()
        triple = Triple("a", "p", "b")
        assert graph.add(triple) is True
        assert graph.add(triple) is False
        assert len(graph) == 1

    def test_remove(self, small_graph):
        triple = Triple("alice", "spouse", "bob")
        assert small_graph.remove(triple) is True
        assert triple not in small_graph
        assert small_graph.remove(triple) is False

    def test_remove_updates_indexes(self, small_graph):
        small_graph.remove(Triple("alice", "employer", "acme"))
        assert not small_graph.contains("alice", "employer", "acme")
        assert ("employer", +1, "acme") not in small_graph.neighbors("alice")

    def test_remove_leaves_no_ghost_predicates(self, small_graph):
        small_graph.remove(Triple("alice", "spouse", "bob"))
        assert small_graph.triples_with_predicate("spouse") == []
        assert all(triple.predicate != "spouse" for triple in small_graph)

    def test_remove_leaves_no_ghost_nodes(self, small_graph):
        # freedonia participates in exactly one triple; removing it must
        # remove the node from every report.
        small_graph.remove(Triple("springfield", "locatedIn", "freedonia"))
        assert "freedonia" not in small_graph.nodes()
        assert small_graph.triples_with_predicate("locatedIn") == []
        assert small_graph.degree("freedonia") == 0

    def test_readd_after_remove(self, small_graph):
        triple = Triple("alice", "spouse", "bob")
        small_graph.remove(triple)
        assert small_graph.add(triple) is True
        assert small_graph.contains("alice", "spouse", "bob")
        assert ("spouse", +1, "bob") in small_graph.neighbors("alice")


class TestQueries:
    def test_contains(self, small_graph):
        assert small_graph.contains("alice", "spouse", "bob")
        assert not small_graph.contains("bob", "spouse", "alice")

    def test_objects(self, small_graph):
        assert [
            triple.object
            for triple in small_graph.triples_with_predicate("birthPlace")
            if triple.subject == "alice"
        ] == ["springfield"]

    def test_triples_with_predicate(self, small_graph):
        triples = small_graph.triples_with_predicate("birthPlace")
        assert len(triples) == 3
        assert all(t.predicate == "birthPlace" for t in triples)

    def test_degree_counts_both_directions(self, small_graph):
        # springfield: 2 incoming birthPlace + 1 outgoing locatedIn.
        assert small_graph.degree("springfield") == 3

    def test_nodes_cover_subjects_and_objects(self, small_graph):
        nodes = small_graph.nodes()
        assert "freedonia" in nodes and "alice" in nodes

    def test_neighbors_have_directions(self, small_graph):
        steps = small_graph.neighbors("springfield")
        directions = {(predicate, direction) for predicate, direction, __ in steps}
        assert ("locatedIn", +1) in directions
        assert ("birthPlace", -1) in directions


class TestPaths:
    def test_finds_indirect_path(self, small_graph):
        paths = small_graph.find_paths("alice", "bob", max_length=2)
        signatures = {KnowledgeGraph.path_signature(path) for path in paths}
        # alice -birthPlace-> springfield <-birthPlace- bob
        assert (("birthPlace", 1), ("birthPlace", -1)) in signatures

    def test_exclude_direct_edge(self, small_graph):
        paths = small_graph.find_paths(
            "alice", "bob", max_length=1, exclude=Triple("alice", "spouse", "bob")
        )
        assert paths == []

    def test_direct_edge_found_when_not_excluded(self, small_graph):
        paths = small_graph.find_paths("alice", "bob", max_length=1)
        assert (("spouse", 1),) in {KnowledgeGraph.path_signature(p) for p in paths}

    def test_same_node_returns_empty(self, small_graph):
        assert small_graph.find_paths("alice", "alice") == []

    def test_max_paths_cap(self, small_graph):
        paths = small_graph.find_paths("alice", "bob", max_length=3, max_paths=1)
        assert len(paths) == 1

    def test_paths_are_simple(self, small_graph):
        for path in small_graph.find_paths("alice", "freedonia", max_length=3):
            nodes = [node for __, ___, node in path]
            assert len(nodes) == len(set(nodes))


class TestPathEquivalence:
    """The pruned bidirectional search must reproduce the seed BFS exactly."""

    @pytest.fixture()
    def random_graph(self):
        rng = random.Random(83)
        graph = KnowledgeGraph("random")
        nodes = [f"n{i}" for i in range(36)]
        predicates = ["knows", "near", "partOf", "cites"]
        while len(graph) < 150:
            graph.add(
                Triple(rng.choice(nodes), rng.choice(predicates), rng.choice(nodes))
            )
        return graph

    def test_matches_reference_on_random_graph(self, random_graph):
        rng = random.Random(7)
        nodes = random_graph.nodes()
        checked = 0
        for __ in range(40):
            source, target = rng.sample(nodes, 2)
            for max_length in (1, 2, 3):
                expected = reference_find_paths(
                    random_graph, source, target, max_length=max_length, max_paths=10_000
                )
                actual = random_graph.find_paths(
                    source, target, max_length=max_length, max_paths=10_000
                )
                assert actual == expected
                checked += len(expected)
        assert checked > 100  # the comparison actually exercised paths

    def test_matches_reference_with_exclusion(self, random_graph):
        rng = random.Random(11)
        for triple in list(random_graph)[::17]:
            expected = reference_find_paths(
                random_graph,
                triple.subject,
                triple.object,
                max_length=3,
                exclude=triple,
                max_paths=10_000,
            )
            actual = random_graph.find_paths(
                triple.subject, triple.object, max_length=3, exclude=triple, max_paths=10_000
            )
            assert actual == expected

    def test_matches_reference_under_binding_cap(self, random_graph):
        # When the cap truncates, the kept prefix (content *and* order) must
        # still match the seed enumeration.
        nodes = random_graph.nodes()
        rng = random.Random(23)
        for __ in range(20):
            source, target = rng.sample(nodes, 2)
            expected = reference_find_paths(
                random_graph, source, target, max_length=3, max_paths=5
            )
            actual = random_graph.find_paths(source, target, max_length=3, max_paths=5)
            assert actual == expected


class TestExports:
    def test_copy_is_independent(self, small_graph):
        clone = small_graph.copy()
        clone.add(Triple("new", "p", "node"))
        assert len(clone) == len(small_graph) + 1

    def test_iteration_sorted(self, small_graph):
        listed = list(small_graph)
        assert listed == sorted(listed)


_NODES = ["a", "b", "c", "d", "e"]
_PREDICATES = ["p", "q"]


def _core_answers(graph):
    """Every public answer a graph gives off its interned core."""
    return (
        list(graph),
        graph.nodes(),
        [graph.neighbors(node) for node in _NODES],
        [graph.find_paths(s, t, max_length=3) for s in _NODES for t in _NODES],
        graph.state_digest(),
    )


def _by_brute_force(graph, predicate):
    """``triples_with_predicate`` written as a filter of the sorted triples."""
    return [triple for triple in graph if triple.predicate == predicate]


class TestTriplesWithPredicate:
    """``triples_with_predicate`` scans the interned core; every way a
    graph is built must give the same answer as filtering its triples."""

    @settings(max_examples=150, deadline=None)
    @given(
        history=st.lists(
            st.tuples(
                st.booleans(),
                st.sampled_from(_NODES),
                st.sampled_from(_PREDICATES),
                st.sampled_from(_NODES),
            ),
            max_size=40,
        ),
    )
    def test_live_copied_restored_and_replayed_graphs_match_a_brute_force_filter(
        self, history
    ):
        graph, store = KnowledgeGraph(), VersionedKnowledgeStore()
        for is_add, s, p, o in history:
            triple = Triple(s, p, o)
            if graph.add(triple) if is_add else graph.remove(triple):
                store.apply(
                    [(Mutation.add_triple if is_add else Mutation.remove_triple)(s, p, o)]
                )
        graphs = {
            "live": graph,
            "copy": graph.copy(),
            "restored": KnowledgeGraph.from_core_state(
                pickle.loads(pickle.dumps(graph.core_state()))
            ),
            "replayed": VersionedKnowledgeStore.replay(store.log).graph,
        }
        for how, built in graphs.items():
            assert list(built) == list(graph), how
            for predicate in _PREDICATES + ["absent"]:
                assert built.triples_with_predicate(predicate) == _by_brute_force(
                    built, predicate
                ), how
        # Copies and restores keep the core as it is; a replay rebuilds the
        # store's own core, re-interns included.
        for how in ("copy", "restored"):
            assert _core_answers(graphs[how]) == _core_answers(graph), how
        assert _core_answers(graphs["replayed"]) == _core_answers(store.graph)


class _InterningModel:
    """The interning rules, written out plainly: an added triple's subject
    takes the next node id if it is new, then its object, then its
    predicate the next predicate id; each node's out and in edges are
    lists in insertion order.  Removing leaves every id in place."""

    def __init__(self):
        self.nodes, self.predicates = [], []
        self.out, self.into = [], []
        self.live = set()

    def _node(self, name):
        if name not in self.nodes:
            self.nodes.append(name)
            self.out.append([])
            self.into.append([])
        return self.nodes.index(name)

    def apply(self, ops):
        added = removed = 0
        for add, triple in ops:
            s, p, o = triple.as_tuple()
            if add and triple not in self.live:
                s_id, o_id = self._node(s), self._node(o)
                if p not in self.predicates:
                    self.predicates.append(p)
                p_id = self.predicates.index(p)
                self.out[s_id].append((p_id, o_id))
                self.into[o_id].append((p_id, s_id))
                self.live.add(triple)
                added += 1
            elif not add and triple in self.live:
                s_id, o_id = self.nodes.index(s), self.nodes.index(o)
                p_id = self.predicates.index(p)
                self.out[s_id].remove((p_id, o_id))
                self.into[o_id].remove((p_id, s_id))
                self.live.discard(triple)
                removed += 1
        return added, removed

    def core_state(self):
        return {"node_names": self.nodes, "pred_names": self.predicates,
                "out": self.out, "in": self.into}


def _plain_core(graph):
    """``core_state()`` with each edge dict as the list of its keys, each
    packed ``pred << 32 | other`` key unpacked to ``(pred, other)``."""
    state = graph.core_state()

    def unpacked(tables):
        return [[(edge >> 32, edge & 0xFFFFFFFF) for edge in edges] for edges in tables]

    return {**state, "out": unpacked(state["out"]), "in": unpacked(state["in"])}


@st.composite
def _batches(draw):
    """Batches mixing fresh adds, duplicate adds, removes of live triples,
    a remove followed by a re-add of the same triple, and self-loops.
    Every remove names a triple live at that point of its batch."""
    names = [f"n{i}" for i in range(8)]
    live, batches = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        batch = []
        for _ in range(draw(st.integers(min_value=1, max_value=10))):
            kind = draw(
                st.sampled_from(["add", "add", "self-loop", "duplicate", "remove", "re-add"])
            )
            if kind in ("duplicate", "remove", "re-add") and live:
                triple = draw(st.sampled_from(live))
                if kind == "duplicate":
                    batch.append((True, triple))
                    continue
                live.remove(triple)
                batch.append((False, triple))
                if kind == "re-add":
                    batch.append((True, triple))
                    live.append(triple)
                continue
            s = draw(st.sampled_from(names))
            o = s if kind == "self-loop" else draw(st.sampled_from(names))
            triple = Triple(s, draw(st.sampled_from(["p", "q", "r"])), o)
            batch.append((True, triple))
            if triple not in live:
                live.append(triple)
        batches.append(batch)
    return batches


class TestBatchKernel:
    """``apply_batch`` is every insert and remove; it must follow the
    interning rules exactly, and so must a store batch."""

    @settings(max_examples=200, deadline=None)
    @given(batches=_batches())
    def test_graphs_and_store_batches_follow_the_interning_model(self, batches):
        model = _InterningModel()
        core = KnowledgeGraph()
        store = VersionedKnowledgeStore()
        for batch in batches:
            counts = model.apply(batch)
            # The kernel's op is a triple record: (not read, remove, s, p, o).
            ops = [(7, 0 if add else 1, *triple.as_tuple()) for add, triple in batch]
            assert core.apply_batch(ops) == counts
            report = store.apply(
                [(Mutation.add_triple if add else Mutation.remove_triple)(*triple.as_tuple())
                 for add, triple in batch]
            )
            assert (report.triples_added, report.triples_removed) == counts
            assert len(core) == len(store.graph) == len(model.live)
            assert _plain_core(core) == model.core_state()

    def test_an_iterable_that_raises_part_way_leaves_len_matching_the_edges(self):
        def ops():
            yield 1, 0, "a", "p", "b"
            yield 1, 0, "b", "p", "c"
            yield 2, 1, "a", "p", "b"
            raise RuntimeError("source failed")

        graph = KnowledgeGraph()
        with pytest.raises(RuntimeError, match="source failed"):
            graph.apply_batch(ops())
        assert len(graph) == 1 == sum(map(len, graph.core_state()["out"]))
        assert list(graph) == [Triple("b", "p", "c")]
