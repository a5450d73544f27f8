"""Check historical snapshots of a saved store against from-zero replay.

Builds a seeded store of about 12,000 mutations in 600 batches: triple
adds, removes of live triples, re-adds of removed ones, and documents.  At
the default checkpoint cadence its segment holds two interleaved
checkpoints plus the head one.  The store is saved and loaded back, and
``snapshot(epoch)`` is taken at every 7th epoch, ascending, then
descending, then in a seeded scattered order.  Each snapshot's digest is
printed as ``epoch digest`` and compared with a from-zero replay of the
in-memory log at that epoch; any difference exits 1.  A last,
unprinted ascending pass changes the graph and corpus of every snapshot
it receives before asking for the next one, which must not start from
the changed state: its digests are checked the same way.

    PYTHONPATH=src python3 benchmarks/store_history.py
"""

from __future__ import annotations

import hashlib
import os
import random
import sys
import tempfile

from repro.kg.triples import Triple
from repro.retrieval.corpus import Document
from repro.store import Mutation, VersionedKnowledgeStore

BATCHES = 600
BATCH_SIZE = 20
EVERY = 7
#: Seeds the order of the scattered pass.
SCATTER_SEED = 11


def build_store() -> VersionedKnowledgeStore:
    rng = random.Random(7)
    store = VersionedKnowledgeStore(name="history")
    live: list = []
    removed: list = []
    documents = 0
    for _ in range(BATCHES):
        batch = []
        for _ in range(BATCH_SIZE):
            roll = rng.random()
            if roll < 0.15 and live:
                triple = live.pop(rng.randrange(len(live)))
                removed.append(triple)
                batch.append(Mutation.remove_triple(*triple))
            elif roll < 0.25 and removed:
                triple = removed.pop(rng.randrange(len(removed)))
                live.append(triple)
                batch.append(Mutation.add_triple(*triple))
            elif roll < 0.35:
                documents += 1
                batch.append(Mutation.add_document(Document(
                    doc_id=f"d{documents}", url=f"https://example.org/{documents}",
                    title=f"t{documents}", text=f"evidence {rng.randrange(500)}",
                    source="history")))
            else:
                triple = (f"e{rng.randrange(400)}", f"p{rng.randrange(8)}",
                          f"e{rng.randrange(400)}")
                if triple in removed:
                    removed.remove(triple)
                if triple not in live:
                    live.append(triple)
                batch.append(Mutation.add_triple(*triple))
        store.apply(batch)
    return store


def digest(graph, corpus) -> str:
    state = hashlib.sha256(graph.state_digest().encode("ascii"))
    for document in corpus:
        state.update(b"\x00" + document.doc_id.encode("utf-8"))
    return state.hexdigest()[:16]


def main() -> int:
    store = build_store()
    in_memory = store.log.fork()
    epochs = list(range(1, store.epoch + 1, EVERY))
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "history.seg")
        store.save(path)
        loaded = VersionedKnowledgeStore.load(path)
        checkpoints = len(loaded.log.reader.checkpoints)
        if checkpoints < 3:
            print(f"the segment holds {checkpoints} checkpoints, not 3", file=sys.stderr)
            return 1
        reference = {}
        for epoch in epochs:
            replayed = VersionedKnowledgeStore.replay(in_memory, upto=epoch)
            reference[epoch] = digest(replayed.graph, replayed.corpus)
        differ = 0
        scattered = random.Random(SCATTER_SEED).sample(epochs, len(epochs))
        walks = [(epoch, True) for epoch in epochs + epochs[::-1] + scattered]
        walks += [(epoch, False) for epoch in epochs]
        for epoch, printed in walks:
            snapshot = loaded.snapshot(epoch)
            got = digest(snapshot.graph, snapshot.corpus)
            if printed:
                print(epoch, got)
            else:
                snapshot.graph.add(Triple("changed", "p0", f"e{epoch}"))
                snapshot.corpus.add(Document(
                    doc_id=f"changed{epoch}", url=f"https://example.org/changed{epoch}",
                    title="changed", text="changed", source="history"))
            if got != reference[epoch]:
                differ += 1
                print(f"epoch {epoch}: snapshot {got}, from-zero replay "
                      f"{reference[epoch]}", file=sys.stderr)
    if differ:
        print(f"{differ} snapshots differ from the from-zero replay", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
