"""Tests for world-model entities, fact store, and world generation."""

import pytest

from repro.worldmodel import (
    RELATIONS,
    Entity,
    EntityType,
    Fact,
    FactStore,
    World,
    build_world,
)
from repro.worldmodel import generator


class TestRelationSchema:
    def test_every_relation_has_templates(self):
        for name, spec in RELATIONS.items():
            assert "{s}" in spec.template and "{o}" in spec.template, name
            assert spec.question_templates, name

    def test_relation_spec_lookup(self):
        assert RELATIONS["birthPlace"].range is EntityType.CITY

    def test_functional_relations_marked(self):
        assert RELATIONS["capital"].functional
        assert not RELATIONS["starring"].functional

    def test_categories_are_known(self):
        allowed = {"relationship", "role", "geographic", "genre", "biographical"}
        assert {spec.category for spec in RELATIONS.values()} <= allowed


class TestEntity:
    def test_entities_are_hashable_and_frozen(self):
        entity = Entity("e1", "Thing", EntityType.PERSON)
        with pytest.raises(AttributeError):
            entity.name = "Other"  # type: ignore[misc]
        assert entity in {entity}


class TestFactStore:
    def test_add_and_query(self):
        store = FactStore()
        store.add("a", "birthPlace", "b")
        assert store.is_true("a", "birthPlace", "b")
        assert not store.is_true("a", "birthPlace", "c")
        assert store.objects("a", "birthPlace") == ["b"]

    def test_duplicate_add_is_noop(self):
        store = FactStore()
        store.add("a", "p", "b")
        store.add("a", "p", "b")
        assert len(store) == 1
        assert store.objects("a", "p") == ["b"]

    def test_entity_index_covers_subject_and_object(self):
        store = FactStore()
        store.add("a", "p", "b")
        assert {fact.as_tuple() for fact in store.facts_for_entity("a")} == {("a", "p", "b")}
        assert {fact.as_tuple() for fact in store.facts_for_entity("b")} == {("a", "p", "b")}

    def test_predicates_sorted(self):
        store = FactStore()
        store.add("a", "zeta", "b")
        store.add("a", "alpha", "b")
        assert store.predicates() == ["alpha", "zeta"]

    def test_iteration_is_deterministic(self):
        store = FactStore()
        store.add("b", "p", "c")
        store.add("a", "p", "c")
        assert list(store) == sorted([Fact("b", "p", "c"), Fact("a", "p", "c")])


class TestWorldGeneration:
    def test_world_is_deterministic(self):
        one = build_world(scale=0.1, seed=5)
        two = build_world(scale=0.1, seed=5)
        assert {etype: len(items) for etype, items in one.by_type.items()} == {
            etype: len(items) for etype, items in two.by_type.items()
        }
        assert len(one.facts) == len(two.facts)
        assert one.facts.all_facts()[:50] == two.facts.all_facts()[:50]

    def test_world_has_all_major_types(self, world):
        populated = {etype for etype, entities in world.by_type.items() if entities}
        for required in (
            EntityType.PERSON,
            EntityType.CITY,
            EntityType.COUNTRY,
            EntityType.FILM,
            EntityType.ORGANIZATION,
        ):
            assert required in populated

    def test_every_person_has_birthplace_and_nationality(self, world):
        persons = world.by_type[EntityType.PERSON]
        assert persons
        for person in persons[:50]:
            assert world.true_objects(person.entity_id, "birthPlace")
            assert world.true_objects(person.entity_id, "nationality")

    def test_functional_relations_have_single_object(self, world):
        for person in world.by_type[EntityType.PERSON][:80]:
            assert len(world.true_objects(person.entity_id, "birthPlace")) == 1

    def test_nationality_consistent_with_birthplace(self, world):
        for person in world.by_type[EntityType.PERSON][:60]:
            birth_cities = world.true_objects(person.entity_id, "birthPlace")
            nationalities = world.true_objects(person.entity_id, "nationality")
            located_in = world.true_objects(birth_cities[0], "locatedIn")
            if located_in:
                assert nationalities[0] == located_in[0]

    def test_spouse_is_symmetric(self, world):
        for person in world.by_type[EntityType.PERSON]:
            for spouse_id in world.true_objects(person.entity_id, "spouse"):
                assert person.entity_id in world.true_objects(spouse_id, "spouse")

    def test_popularity_in_range(self, world):
        for entity in list(world.entities.values())[:200]:
            assert 0.0 < entity.popularity <= 1.0

    def test_fact_popularity_averages_entities(self, world):
        fact = world.facts.all_facts()[0]
        value = world.fact_popularity(fact)
        assert 0.0 < value <= 1.0

    def test_entity_lookup_by_name(self, world):
        entity = world.by_type[EntityType.PERSON][0]
        assert world.entity_by_name(entity.name) == entity
        assert world.entity_by_name("No Such Person") is None

    def test_unknown_entity_raises(self, world):
        with pytest.raises(KeyError):
            world.entity("person_99999")

    def test_duplicate_entity_rejected(self):
        world = World()
        entity = Entity("x", "X", EntityType.PERSON)
        world.add_entity(entity)
        with pytest.raises(ValueError):
            world.add_entity(entity)

    def test_scaled_counts_respect_minimum(self, monkeypatch):
        """``scale`` multiplies the ``NUM_*`` constants read at build time;
        every type keeps at least four entities."""
        monkeypatch.setattr(generator, "NUM_PERSONS", 100_000)
        world = build_world(scale=0.0001, seed=1)
        assert len(world.by_type[EntityType.PERSON]) == 10
        assert len(world.by_type[EntityType.FILM]) == 4
