"""World generation: a deterministic synthetic universe of entities and facts.

The paper's datasets (FactBench, YAGO, DBpedia) sample facts from real KGs,
and the retrieval corpus is scraped from the live web.  Offline, both roles
are played by a single :class:`World` object: a seeded generator builds a
population of typed entities and a ground-truth :class:`FactStore`, from
which

* the dataset builders in :mod:`repro.datasets` sample true facts and
  synthesize false ones,
* the synthetic web generator in :mod:`repro.retrieval.webgen` writes
  documents, and
* the simulated LLMs in :mod:`repro.llm` derive their (partial) internal
  knowledge.

Because everything is derived from the same world, evidence documents agree
with the ground truth and disagree with corrupted facts — which is precisely
the property the RAG experiments rely on.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from .entities import Entity, EntityType
from .facts import Fact, FactStore
from .names import NameGenerator

__all__ = ["World", "build_world"]


#: Paper-scale population of each generated entity type; ``build_world``'s
#: ``scale`` multiplies every count (``scale=1.0`` supports the paper-scale
#: datasets, ``0.1`` is a compact world for tests).
NUM_PERSONS = 1200
NUM_CITIES = 180
NUM_COUNTRIES = 40
NUM_ORGANIZATIONS = 150
NUM_UNIVERSITIES = 90
NUM_FILMS = 260
NUM_BOOKS = 220
NUM_BANDS = 90
NUM_AWARDS = 45
NUM_TEAMS = 70


class World:
    """The synthetic universe: typed entities plus a ground-truth fact store."""

    def __init__(self) -> None:
        self.entities: Dict[str, Entity] = {}
        self.by_type: Dict[EntityType, List[Entity]] = {etype: [] for etype in EntityType}
        self.facts = FactStore()
        self._name_to_id: Dict[str, str] = {}

    # -- entity management -------------------------------------------------

    def add_entity(self, entity: Entity) -> Entity:
        if entity.entity_id in self.entities:
            raise ValueError(f"Duplicate entity id: {entity.entity_id}")
        self.entities[entity.entity_id] = entity
        self.by_type[entity.etype].append(entity)
        self._name_to_id[entity.name] = entity.entity_id
        return entity

    def entity(self, entity_id: str) -> Entity:
        try:
            return self.entities[entity_id]
        except KeyError as exc:
            raise KeyError(f"Unknown entity id: {entity_id!r}") from exc

    def entity_by_name(self, name: str) -> Optional[Entity]:
        entity_id = self._name_to_id.get(name)
        return self.entities.get(entity_id) if entity_id else None

    def name(self, entity_id: str) -> str:
        return self.entity(entity_id).name

    # -- fact queries -------------------------------------------------------

    def is_true(self, subject: str, predicate: str, obj: str) -> bool:
        return self.facts.is_true(subject, predicate, obj)

    def true_objects(self, subject: str, predicate: str) -> List[str]:
        return self.facts.objects(subject, predicate)

    def predicates(self) -> List[str]:
        return self.facts.predicates()

    def popularity(self, entity_id: str) -> float:
        return self.entity(entity_id).popularity

    def fact_popularity(self, fact: Fact) -> float:
        """Average popularity of the two entities involved in a fact.

        Literal objects (years) contribute a neutral 0.5.
        """
        values = []
        for entity_id in (fact.subject, fact.object):
            if entity_id in self.entities:
                values.append(self.entities[entity_id].popularity)
            else:
                values.append(0.5)
        return sum(values) / len(values)


class _WorldBuilder:
    """Internal builder that populates a :class:`World` deterministically."""

    def __init__(self, scale: float, seed: int) -> None:
        self.scale = scale
        self.rng = random.Random(seed)
        self.names = NameGenerator(seed + 1)
        self.world = World()
        self._counters: Dict[EntityType, int] = {etype: 0 for etype in EntityType}

    # -- helpers ------------------------------------------------------------

    def _scaled(self, count: int) -> int:
        return max(4, int(round(count * self.scale)))

    def _new_entity(
        self,
        etype: EntityType,
        name: str,
        attributes: Sequence[Tuple[str, object]] = (),
    ) -> Entity:
        index = self._counters[etype]
        self._counters[etype] += 1
        entity = Entity(
            entity_id=f"{etype.value.lower()}_{index:05d}",
            name=name,
            etype=etype,
            popularity=self._draw_popularity(),
            attributes=tuple(attributes),
        )
        return self.world.add_entity(entity)

    def _draw_popularity(self) -> float:
        """Zipf-like popularity: a few head entities, a long tail."""
        u = self.rng.random()
        # Power-law shaped but bounded away from zero so every entity has a
        # non-degenerate chance of being known / documented.
        return round(0.08 + 0.92 * (u ** 1.8), 4)

    def _pick(self, etype: EntityType) -> Entity:
        pool = self.world.by_type[etype]
        return self.rng.choice(pool)

    def _pick_many(self, etype: EntityType, count: int) -> List[Entity]:
        pool = self.world.by_type[etype]
        count = min(count, len(pool))
        return self.rng.sample(pool, count)

    def _add_fact(self, subject: Entity, predicate: str, obj: Entity | str) -> None:
        obj_id = obj if isinstance(obj, str) else obj.entity_id
        self.world.facts.add(subject.entity_id, predicate, obj_id)

    def _year_entity(self, year: int) -> Entity:
        """Years are modelled as entities so every fact is entity-to-entity."""
        existing = self.world.entity_by_name(str(year))
        if existing is not None:
            return existing
        return self._new_entity(EntityType.YEAR, str(year))

    # -- population ---------------------------------------------------------

    def build(self) -> World:
        self._build_value_pools()
        self._build_places()
        self._build_people()
        self._build_organizations()
        self._build_universities()
        self._build_teams()
        self._build_creative_works()
        self._build_person_facts()
        return self.world

    def _build_value_pools(self) -> None:
        for genre in self.names.genre_pool():
            self._new_entity(EntityType.GENRE, genre)
        for religion in self.names.religion_pool():
            self._new_entity(EntityType.RELIGION, religion)
        for language in self.names.language_pool():
            self._new_entity(EntityType.LANGUAGE, language)

    def _build_places(self) -> None:
        countries = [
            self._new_entity(EntityType.COUNTRY, self.names.country())
            for __ in range(self._scaled(NUM_COUNTRIES))
        ]
        for country in countries:
            languages = self._pick_many(EntityType.LANGUAGE, self.rng.randint(1, 2))
            for language in languages:
                self._add_fact(country, "officialLanguage", language)
        cities = [
            self._new_entity(EntityType.CITY, self.names.city())
            for __ in range(self._scaled(NUM_CITIES))
        ]
        for city in cities:
            country = self._pick(EntityType.COUNTRY)
            self._add_fact(city, "locatedIn", country)
        # Each country gets a capital chosen among its own cities when
        # possible, so that geographic facts stay internally consistent.
        cities_by_country: Dict[str, List[Entity]] = {}
        for city in cities:
            country_ids = self.world.facts.objects(city.entity_id, "locatedIn")
            if country_ids:
                cities_by_country.setdefault(country_ids[0], []).append(city)
        for country in countries:
            local = cities_by_country.get(country.entity_id)
            capital = self.rng.choice(local) if local else self.rng.choice(cities)
            self._add_fact(country, "capital", capital)

    def _build_people(self) -> None:
        for __ in range(self._scaled(NUM_PERSONS)):
            self._new_entity(EntityType.PERSON, self.names.person())

    def _build_organizations(self) -> None:
        for __ in range(self._scaled(NUM_ORGANIZATIONS)):
            org = self._new_entity(EntityType.ORGANIZATION, self.names.organization())
            self._add_fact(org, "headquarter", self._pick(EntityType.CITY))
            self._add_fact(org, "foundingYear", self._year_entity(self.names.year(1880, 2015)))
            for founder in self._pick_many(EntityType.PERSON, self.rng.randint(1, 2)):
                self._add_fact(org, "foundedBy", founder)

    def _build_universities(self) -> None:
        for __ in range(self._scaled(NUM_UNIVERSITIES)):
            city = self._pick(EntityType.CITY)
            university = self._new_entity(
                EntityType.UNIVERSITY, self.names.university(city.name)
            )
            self._add_fact(university, "universityCity", city)

    def _build_teams(self) -> None:
        for __ in range(self._scaled(NUM_TEAMS)):
            city = self._pick(EntityType.CITY)
            team = self._new_entity(EntityType.SPORTS_TEAM, self.names.sports_team(city.name))
            self._add_fact(team, "teamCity", city)

    def _build_creative_works(self) -> None:
        for __ in range(self._scaled(NUM_FILMS)):
            film = self._new_entity(EntityType.FILM, self.names.film())
            self._add_fact(film, "director", self._pick(EntityType.PERSON))
            for actor in self._pick_many(EntityType.PERSON, self.rng.randint(2, 4)):
                self._add_fact(film, "starring", actor)
            for genre in self._pick_many(EntityType.GENRE, self.rng.randint(1, 2)):
                self._add_fact(film, "genre", genre)
        for __ in range(self._scaled(NUM_BOOKS)):
            place = self._pick(EntityType.CITY)
            book = self._new_entity(EntityType.BOOK, self.names.book(place.name))
            self._add_fact(book, "author", self._pick(EntityType.PERSON))
            self._add_fact(book, "publicationYear", self._year_entity(self.names.year(1900, 2020)))
        for __ in range(self._scaled(NUM_BANDS)):
            band = self._new_entity(EntityType.BAND, self.names.band())
            for member in self._pick_many(EntityType.PERSON, self.rng.randint(2, 4)):
                self._add_fact(band, "bandMember", member)
            for genre in self._pick_many(EntityType.GENRE, self.rng.randint(1, 2)):
                self._add_fact(band, "musicGenre", genre)
        for __ in range(self._scaled(NUM_AWARDS)):
            self._new_entity(EntityType.AWARD, self.names.award())

    def _build_person_facts(self) -> None:
        persons = self.world.by_type[EntityType.PERSON]
        unmarried = [p for p in persons]
        self.rng.shuffle(unmarried)
        # Pair up roughly half of the population as spouses.
        pair_count = len(unmarried) // 4
        for i in range(pair_count):
            a, b = unmarried[2 * i], unmarried[2 * i + 1]
            self._add_fact(a, "spouse", b)
            self._add_fact(b, "spouse", a)

        for person in persons:
            birth_city = self._pick(EntityType.CITY)
            self._add_fact(person, "birthPlace", birth_city)
            country_ids = self.world.facts.objects(birth_city.entity_id, "locatedIn")
            if country_ids:
                self._add_fact(person, "nationality", self.world.entity(country_ids[0]))
            else:
                self._add_fact(person, "nationality", self._pick(EntityType.COUNTRY))
            self._add_fact(person, "birthYear", self._year_entity(self.names.year(1850, 2005)))
            nationality_ids = self.world.facts.objects(person.entity_id, "nationality")
            if nationality_ids:
                languages = self.world.facts.objects(nationality_ids[0], "officialLanguage")
                if languages:
                    self._add_fact(person, "nativeLanguage", self.world.entity(languages[0]))
            if self.rng.random() < 0.35:
                self._add_fact(person, "deathPlace", self._pick(EntityType.CITY))
            if self.rng.random() < 0.55:
                self._add_fact(person, "religion", self._pick(EntityType.RELIGION))
            for university in self._pick_many(
                EntityType.UNIVERSITY, self.rng.choice([0, 1, 1, 2])
            ):
                self._add_fact(person, "almaMater", university)
            for employer in self._pick_many(
                EntityType.ORGANIZATION, self.rng.choice([0, 1, 1, 2])
            ):
                self._add_fact(person, "employer", employer)
            if self.rng.random() < 0.2:
                self._add_fact(person, "team", self._pick(EntityType.SPORTS_TEAM))
            if self.rng.random() < 0.25:
                self._add_fact(person, "award", self._pick(EntityType.AWARD))


def build_world(scale: float, seed: int) -> World:
    """Build the synthetic world.

    Parameters
    ----------
    scale:
        Multiplies every population count (``NUM_*``); each type keeps at
        least four entities.
    seed:
        Seeds every draw, names included.

    Returns
    -------
    World
        A fully populated world whose fact store is the ground truth for all
        downstream components.
    """
    return _WorldBuilder(scale, seed).build()
