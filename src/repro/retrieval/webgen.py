"""Synthetic web corpus generation.

The paper's RAG dataset contains 2M+ documents collected from Google SERPs
for 13,530 facts (about 154 documents per fact on average, 13% of which have
empty extracted text).  Offline, this module writes that corpus: for every
benchmark fact it generates a mixture of

* *profile* pages about the subject entity that verbalize several of its
  true facts (these support true claims and contradict corrupted ones),
* *object* pages about the object entity,
* *news/co-occurrence* snippets that mention both entities without asserting
  the relation (realistic weak evidence),
* *noise* pages about unrelated entities,
* *empty* pages (extraction failures), and
* *KG-origin* pages hosted on the source KG's domains, which the pipeline
  must filter out to avoid circular verification.

Because all assertive content is rendered from the world-model ground truth,
the corpus is consistent with true facts and inconsistent with corrupted
facts — the property that makes retrieval genuinely informative for the
simulated models.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Iterable, List, Optional, Sequence

from ..datasets.base import LabeledFact
from ..kg.verbalization import Verbalizer
from ..worldmodel.entities import RELATIONS
from ..worldmodel.facts import Fact
from ..worldmodel.generator import World
from .corpus import Corpus, Document

__all__ = ["WebCorpusGenerator"]


def _stable_seed(*parts: object) -> int:
    """Process-independent seed derived from the given parts.

    Python's built-in ``hash`` of strings is salted per interpreter run, so
    it must not be used for anything that feeds corpus generation — the
    corpus (and therefore every RAG result) has to be identical across runs.
    """
    payload = "\x1f".join(str(part) for part in parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")

_GENERIC_DOMAINS = (
    "encyclia.org",
    "worldrecordarchive.com",
    "biographyhub.net",
    "dailyherald.example",
    "factfile.info",
    "openalmanac.org",
    "culturedigest.example",
    "historychronicle.net",
)

_KG_DOMAINS = ("en.wikipedia.org", "dbpedia.org")

_LEAD_INS = (
    "According to archival records, {sentence}",
    "Multiple sources report that {sentence}",
    "{sentence}",
    "It is well documented that {sentence}",
    "Reference works note that {sentence}",
)

_FILLER_SENTENCES = (
    "The article also covers unrelated regional developments and statistics.",
    "Further sections discuss the historical background of the period.",
    "Additional commentary from local correspondents is included below.",
    "The page lists related topics, references, and external links.",
    "An archived version of this page is available for researchers.",
)


#: Shares of a fact's documents that are extraction failures (the paper's
#: 13 %), KG-origin pages, unrelated noise and news snippets.
EMPTY_RATE = 0.13
KG_ORIGIN_RATE = 0.08
NOISE_RATE = 0.22
NEWS_RATE = 0.15


class WebCorpusGenerator:
    """Generates the synthetic web corpus for a collection of facts.

    ``documents_per_fact`` is the average number of documents generated per
    fact (the paper's corpus averages ~154); ``seed`` seeds every draw.
    """

    def __init__(self, world: World, documents_per_fact: int, seed: int) -> None:
        self.world = world
        self.documents_per_fact = documents_per_fact
        self.seed = seed
        self.verbalizer = Verbalizer(world)
        self._doc_counter = 0

    # -- public API ---------------------------------------------------------

    def build_corpus(self, facts: Sequence[LabeledFact]) -> Corpus:
        """Generate documents for every fact and return the combined corpus."""
        corpus = Corpus()
        for fact in facts:
            corpus.add_all(self.documents_for_fact(fact))
        return corpus

    def documents_for_fact(self, fact: LabeledFact) -> List[Document]:
        """Generate this fact's share of the corpus."""
        rng = random.Random(_stable_seed(self.seed, fact.fact_id))
        total = max(3, int(rng.gauss(self.documents_per_fact, self.documents_per_fact * 0.2)))
        documents: List[Document] = []
        num_empty = int(round(total * EMPTY_RATE))
        num_kg = int(round(total * KG_ORIGIN_RATE))
        num_noise = int(round(total * NOISE_RATE))
        num_news = int(round(total * NEWS_RATE))
        num_substantive = max(2, total - num_empty - num_kg - num_noise - num_news)

        # A "focused" page — one that addresses the queried relation head-on
        # (e.g. a biography section about the person's birthplace) — exists
        # with a probability that grows with entity popularity.  This is the
        # head-to-tail coverage gap: popular facts are easy to source, tail
        # facts often have no page that answers the question at all.
        subject = self.world.entity_by_name(fact.subject_name)
        popularity = subject.popularity if subject is not None else fact.popularity
        if rng.random() < 0.30 + 0.70 * popularity:
            documents.append(self._focused_document(fact, rng))
            num_substantive = max(1, num_substantive - 1)

        for index in range(num_substantive):
            if index % 3 == 2:
                documents.append(self._object_document(fact, rng))
            else:
                documents.append(self._profile_document(fact, rng))
        for __ in range(num_news):
            documents.append(self._news_document(fact, rng))
        for __ in range(num_noise):
            documents.append(self._noise_document(fact, rng))
        for __ in range(num_kg):
            documents.append(self._kg_origin_document(fact, rng))
        for __ in range(num_empty):
            documents.append(self._empty_document(fact, rng))
        return documents

    # -- document builders ------------------------------------------------------

    def _profile_document(self, fact: LabeledFact, rng: random.Random) -> Document:
        """An encyclopedia-style page about the subject entity.

        Coverage scales with entity popularity: head entities have detailed
        pages that mention most of their facts, while tail entities get thin
        pages that often omit the relation under verification — the
        head-to-tail coverage gap the paper discusses.
        """
        subject = self.world.entity_by_name(fact.subject_name)
        sentences: List[str] = []
        title = f"{fact.subject_name} — profile and background"
        if subject is not None:
            true_facts = self.world.facts.facts_for_entity(subject.entity_id)
            rng.shuffle(true_facts)
            relevant = [item for item in true_facts if item.subject == subject.entity_id]
            max_covered = 1 + int(round(7 * subject.popularity))
            covered = rng.randint(1, max(1, max_covered))
            for item in relevant[:covered]:
                sentences.append(self._render_fact(item, rng))
        else:
            sentences.append(
                f"{fact.subject_name} is discussed in several reference works."
            )
        rng.shuffle(sentences)
        sentences.extend(rng.sample(_FILLER_SENTENCES, k=min(2, len(_FILLER_SENTENCES))))
        return self._document(fact, title, " ".join(sentences), "profile", rng)

    def _focused_document(self, fact: LabeledFact, rng: random.Random) -> Document:
        """A page that directly documents the subject's queried relation.

        The page states the *true* facts the world holds for the subject and
        the relation under verification, so it supports true claims and
        contradicts corrupted ones.
        """
        subject = self.world.entity_by_name(fact.subject_name)
        predicate = fact.base_predicate()
        sentences: List[str] = []
        title = f"{fact.subject_name}: {predicate} records"
        if subject is not None:
            for object_id in self.world.true_objects(subject.entity_id, predicate):
                sentences.append(
                    self._render_fact(Fact(subject.entity_id, predicate, object_id), rng)
                )
            other_facts = [
                item
                for item in self.world.facts.facts_for_entity(subject.entity_id)
                if item.subject == subject.entity_id and item.predicate != predicate
            ]
            rng.shuffle(other_facts)
            for item in other_facts[:2]:
                sentences.append(self._render_fact(item, rng))
        if not sentences:
            sentences.append(f"No detailed records are available about {fact.subject_name}.")
        sentences.append(rng.choice(_FILLER_SENTENCES))
        return self._document(fact, title, " ".join(sentences), "focused", rng)

    def _object_document(self, fact: LabeledFact, rng: random.Random) -> Document:
        """A page about the object entity (context, occasionally relevant)."""
        obj = self.world.entity_by_name(fact.object_name)
        sentences: List[str] = []
        title = f"{fact.object_name} — overview"
        if obj is not None:
            true_facts = [
                item
                for item in self.world.facts.facts_for_entity(obj.entity_id)
                if item.subject == obj.entity_id
            ]
            rng.shuffle(true_facts)
            for item in true_facts[: rng.randint(2, 5)]:
                sentences.append(self._render_fact(item, rng))
        if not sentences:
            sentences.append(f"{fact.object_name} appears in a number of historical registers.")
        sentences.extend(rng.sample(_FILLER_SENTENCES, k=1))
        return self._document(fact, title, " ".join(sentences), "object", rng)

    def _news_document(self, fact: LabeledFact, rng: random.Random) -> Document:
        """A co-occurrence snippet: both entities mentioned, nothing asserted."""
        title = f"Notes on {fact.subject_name} and related topics"
        text = (
            f"A recent feature mentioned {fact.subject_name} alongside {fact.object_name} "
            f"in a broader discussion of current events. "
            + rng.choice(_FILLER_SENTENCES)
        )
        return self._document(fact, title, text, "news", rng)

    def _noise_document(self, fact: LabeledFact, rng: random.Random) -> Document:
        """A page about unrelated entities (retrieval noise)."""
        pool = list(self.world.entities.values())
        entity = pool[rng.randrange(len(pool))]
        related = [
            item
            for item in self.world.facts.facts_for_entity(entity.entity_id)
            if item.subject == entity.entity_id
        ]
        sentences = [self._render_fact(item, rng) for item in related[:3]]
        if not sentences:
            sentences = [f"{entity.name} is catalogued among miscellaneous records."]
        sentences.append(rng.choice(_FILLER_SENTENCES))
        return self._document(fact, f"{entity.name} — notes", " ".join(sentences), "noise", rng)

    def _kg_origin_document(self, fact: LabeledFact, rng: random.Random) -> Document:
        """A page on the KG's own source domain (must be filtered by the pipeline)."""
        subject = self.world.entity_by_name(fact.subject_name)
        sentences = [f"{fact.subject_name} is described in this knowledge base entry."]
        if subject is not None:
            for item in self.world.facts.facts_for_entity(subject.entity_id)[:4]:
                if item.subject == subject.entity_id:
                    sentences.append(self._render_fact(item, rng))
        domain = rng.choice(_KG_DOMAINS)
        return self._document(
            fact,
            f"{fact.subject_name} - {domain}",
            " ".join(sentences),
            "kg-origin",
            rng,
            domain=domain,
        )

    def _empty_document(self, fact: LabeledFact, rng: random.Random) -> Document:
        """A page whose text extraction failed (13% of the paper's corpus)."""
        return self._document(fact, f"{fact.subject_name} — page", "", "empty", rng)

    # -- helpers ---------------------------------------------------------------

    def _render_fact(self, fact: Fact, rng: random.Random) -> str:
        from ..kg.triples import Triple

        subject_name = self.world.name(fact.subject)
        object_name = self.world.name(fact.object)
        spec = RELATIONS.get(fact.predicate)
        if spec is not None:
            sentence = spec.template.format(s=subject_name, o=object_name)
        else:
            sentence = f"{subject_name} {fact.predicate} {object_name}."
        lead = rng.choice(_LEAD_INS)
        return lead.format(sentence=sentence[0].lower() + sentence[1:] if lead != "{sentence}" else sentence)

    def _document(
        self,
        fact: LabeledFact,
        title: str,
        text: str,
        kind: str,
        rng: random.Random,
        domain: Optional[str] = None,
    ) -> Document:
        self._doc_counter += 1
        host = domain or rng.choice(_GENERIC_DOMAINS)
        slug = fact.subject_name.lower().replace(" ", "-")
        url = f"https://{host}/{slug}/{self._doc_counter}"
        return Document(
            doc_id=f"doc-{self._doc_counter:08d}",
            url=url,
            title=title,
            text=text,
            source=host,
            fact_id=fact.fact_id,
            kind=kind,
        )
