"""Tests for rule-based triple verbalization."""

from repro.kg import DBPEDIA_ENCODING, YAGO_ENCODING, Triple, Verbalizer


class TestStatements:
    def test_known_predicate_uses_template(self):
        verbalizer = Verbalizer()
        triple = DBPEDIA_ENCODING.encode_triple("Marie Curie", "birthPlace", "Warsaw Town")
        assert verbalizer.statement(triple) == "Marie Curie was born in Warsaw Town."

    def test_unknown_predicate_falls_back_to_generic(self):
        verbalizer = Verbalizer()
        triple = Triple("Marie_Curie", "http://dbpedia.org/ontology/firstAscentOf", "Some_Peak")
        sentence = verbalizer.statement(triple)
        assert "Marie Curie" in sentence and "Some Peak" in sentence
        assert "first ascent of" in sentence

    def test_yago_has_prefix_predicates_resolved(self):
        verbalizer = Verbalizer()
        triple = Triple("<Marie_Curie>", "<hasWonPrize>", "<Halcyon_Prize>")
        # hasWonPrize is not a base relation, but hasXxx stripping is attempted;
        # wonPrize is unknown so the generic rendering is used with readable words.
        sentence = verbalizer.statement(triple)
        assert "Marie Curie" in sentence and "Halcyon Prize" in sentence

    def test_yago_is_married_to_maps_to_spouse_template(self):
        verbalizer = Verbalizer()
        triple = Triple("<Alice_Ashcombe>", "<isMarriedTo>", "<Bob_Belgrave>")
        # isMarriedTo does not map onto the schema, so generic rendering applies.
        sentence = verbalizer.statement(triple)
        assert sentence.endswith(".")
        assert "Alice Ashcombe" in sentence

    def test_statement_uses_world_names_when_available(self, world, verbalizer):
        person = world.by_type[list(world.by_type)[0]][0]
        # encode a triple whose labels match a real world entity name
        triple = DBPEDIA_ENCODING.encode_triple(person.name, "birthPlace", "Nowhere Town")
        sentence = verbalizer.statement(triple)
        assert person.name in sentence


class TestLabels:
    def test_subject_and_object_labels(self):
        verbalizer = Verbalizer()
        triple = YAGO_ENCODING.encode_triple("Alice Ashcombe", "wasBornIn", "Brimworth")
        assert verbalizer.subject_label(triple) == "Alice Ashcombe"
        assert verbalizer.object_label(triple) == "Brimworth"
