"""Write a seeded mutations file for ``python -m repro.benchmark.cli ingest``.

One JSON op per line: triple adds, duplicate adds of live triples, removes
of live triples, re-adds of removed ones, and a document every tenth line.
``ingest`` applies the file as one batch, so every remove names a triple
that is live at its line; importing the saved store's JSONL export
(``convert``) then replays the removes from zero.

    python benchmarks/store_mutations.py OUT.jsonl
"""

from __future__ import annotations

import json
import random
import sys


def mutation_records() -> list:
    rng = random.Random(42)
    live: list = []
    removed: list = []
    records = []
    for i in range(400):
        roll = rng.random()
        if roll < 0.15 and live:
            triple = live.pop(rng.randrange(len(live)))
            removed.append(triple)
            op = "remove_triple"
        elif roll < 0.22 and removed:
            triple = removed.pop(rng.randrange(len(removed)))
            live.append(triple)
            op = "add_triple"
        elif roll < 0.30 and live:
            triple = rng.choice(live)  # a duplicate add: a counted no-op
            op = "add_triple"
        else:
            triple = (f"e{rng.randrange(60)}", f"p{rng.randrange(4)}", f"e{rng.randrange(60)}")
            if triple in removed:
                removed.remove(triple)
            if triple not in live:
                live.append(triple)
            op = "add_triple"
        subject, predicate, obj = triple
        records.append({"op": op, "subject": subject, "predicate": predicate, "object": obj})
        if i % 10 == 0:
            records.append({"op": "add_document", "document": {
                "doc_id": f"d{i}", "url": "", "title": f"t{i}",
                "text": f"evidence {i}", "source": "ci"}})
    return records


if __name__ == "__main__":
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        for record in mutation_records():
            handle.write(json.dumps(record) + "\n")
