"""Tests for KG encodings and label/predicate (de)coding."""

from repro.kg import (
    DBPEDIA_ENCODING,
    ENCODINGS,
    FREEBASE_ENCODING,
    YAGO_ENCODING,
    camel_case,
    decode_label,
    decode_predicate,
    encode_label,
    split_camel_case,
)


class TestLabelEncoding:
    def test_encode_replaces_spaces(self):
        assert encode_label("Alexander III of Russia") == "Alexander_III_of_Russia"

    def test_decode_inverts_encode(self):
        assert decode_label(encode_label("Marie Curie")) == "Marie Curie"

    def test_decode_strips_dbpedia_iri(self):
        term = "http://dbpedia.org/resource/Albert_Einstein"
        assert decode_label(term) == "Albert Einstein"

    def test_decode_strips_yago_brackets(self):
        assert decode_label("<Albert_Einstein>") == "Albert Einstein"

    def test_decode_strips_freebase_prefix(self):
        assert decode_label("fb:Albert_Einstein") == "Albert Einstein"

    def test_decode_handles_plain_label(self):
        assert decode_label("Plain Label") == "Plain Label"


class TestCamelCase:
    def test_camel_case_roundtrip(self):
        assert camel_case("is married to") == "isMarriedTo"
        assert split_camel_case("isMarriedTo") == "is married to"

    def test_camel_case_single_word(self):
        assert camel_case("spouse") == "spouse"

    def test_camel_case_empty(self):
        assert camel_case("") == ""

    def test_split_handles_digits(self):
        assert split_camel_case("birthYear2") == "birth year2"


class TestPredicateDecoding:
    def test_decode_dbpedia_ontology_predicate(self):
        assert decode_predicate("http://dbpedia.org/ontology/birthPlace") == "birthPlace"

    def test_decode_yago_predicate(self):
        assert decode_predicate("<wasBornIn>") == "wasBornIn"

    def test_decode_freebase_predicate(self):
        assert decode_predicate("fb:birth.place") == "birth.place"


class TestEncodings:
    def test_registry_contains_three_kgs(self):
        assert set(ENCODINGS) == {"dbpedia", "yago", "freebase"}

    def test_dbpedia_triple_encoding(self):
        triple = DBPEDIA_ENCODING.encode_triple("Marie Curie", "birthPlace", "Warsaw Town")
        assert triple.subject == "http://dbpedia.org/resource/Marie_Curie"
        assert triple.predicate == "http://dbpedia.org/ontology/birthPlace"
        assert triple.object == "http://dbpedia.org/resource/Warsaw_Town"

    def test_yago_entities_use_brackets_and_underscores(self):
        triple = YAGO_ENCODING.encode_triple("Marie Curie", "wasBornIn", "Warsaw Town")
        assert triple.subject == "<Marie_Curie>"
        assert triple.object == "<Warsaw_Town>"

    def test_freebase_entities_use_prefix(self):
        assert FREEBASE_ENCODING.encode_entity("Marie Curie") == "fb:Marie_Curie"

    def test_predicates_take_each_kg_naming_convention(self):
        assert DBPEDIA_ENCODING.encode_predicate("birthPlace") == (
            "http://dbpedia.org/ontology/birthPlace"
        )
        # YAGO keeps has/is predicates and prefixes "has" to the rest.
        assert YAGO_ENCODING.encode_predicate("isMarriedTo") == "<isMarriedTo>"
        assert YAGO_ENCODING.encode_predicate("hasCapital") == "<hasCapital>"
        assert YAGO_ENCODING.encode_predicate("birthPlace") == "<hasBirthPlace>"
        assert FREEBASE_ENCODING.encode_predicate("birthPlace") == "fb:birth.place"

    def test_encoded_predicates_decode_to_the_kg_label(self):
        assert decode_predicate(DBPEDIA_ENCODING.encode_predicate("birthPlace")) == "birthPlace"
        assert decode_predicate(YAGO_ENCODING.encode_predicate("birthPlace")) == "hasBirthPlace"
        assert decode_predicate(FREEBASE_ENCODING.encode_predicate("birthPlace")) == "birth.place"

    def test_source_domains_include_wikipedia(self):
        for encoding in ENCODINGS.values():
            assert any("wikipedia" in domain for domain in encoding.source_domains)

    def test_roundtrip_entity_names(self):
        for encoding in ENCODINGS.values():
            encoded = encoding.encode_entity("Quentin Ravenscroft")
            assert decode_label(encoded) == "Quentin Ravenscroft"
