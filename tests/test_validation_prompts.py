"""Tests for prompt construction and response parsing."""

import pytest

from repro.llm.simulated import _NONCOMPLIANT_TEXTS
from repro.validation import (
    FEW_SHOT_EXAMPLES,
    dka_prompt,
    error_explanation_prompt,
    giv_prompt,
    parse_questions,
    parse_verdict,
    question_generation_prompt,
    rag_prompt,
    reprompt_suffix,
    transform_prompt,
)
from repro.validation import prompts


@pytest.fixture(scope="module")
def fact(factbench_small):
    return factbench_small[0]


class TestPromptConstruction:
    def test_dka_prompt_contains_triple_and_statement(self, fact):
        prompt = dka_prompt(fact, "A statement.")
        assert fact.triple.subject in prompt
        assert "A statement." in prompt
        assert "True or False" in prompt

    def test_giv_prompt_requires_json(self, fact):
        prompt = giv_prompt(fact, "S.")
        assert '"verdict"' in prompt

    def test_giv_few_shot_includes_examples(self, fact):
        zero = giv_prompt(fact, "S.", few_shot=False)
        few = giv_prompt(fact, "S.", few_shot=True)
        assert len(few) > len(zero)
        assert FEW_SHOT_EXAMPLES[0][0] in few
        assert FEW_SHOT_EXAMPLES[0][0] not in zero

    def test_rag_prompt_lists_evidence(self, fact):
        prompt = rag_prompt(fact, ["First chunk.", "Second chunk."], "S.")
        assert "[1] First chunk." in prompt and "[2] Second chunk." in prompt

    def test_rag_prompt_without_evidence(self, fact):
        assert "(no evidence retrieved)" in rag_prompt(fact, [], "S.")

    def test_reprompt_mentions_previous_response(self):
        suffix = reprompt_suffix("I am not sure about this one")
        assert "did not follow the required format" in suffix
        assert "I am not sure" in suffix

    def test_transform_prompt_mentions_triple(self, fact):
        assert fact.triple.predicate in transform_prompt(fact)

    def test_question_generation_prompt(self):
        prompt = question_generation_prompt("Marie Curie was born in Warsaw.", 10)
        assert "10" in prompt and "Marie Curie" in prompt

    def test_error_explanation_prompt(self, fact):
        prompt = error_explanation_prompt(fact, "true")
        assert "'true'" in prompt


class TestVerdictParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ('{"verdict": "true", "confidence": 0.9}', True),
            ('{"verdict": "false", "reasoning": "no"}', False),
            ("True. The statement is supported.", True),
            ("False. Known records contradict it.", False),
            ("  yes, this is correct", True),
            ("No - the claim is wrong", False),
            ("The statement is accurate.", True),
            ("That claim is incorrect and misleading.", False),
        ],
    )
    def test_parse_verdict_variants(self, text, expected):
        assert parse_verdict(text) is expected

    def test_parse_verdict_non_conformant(self):
        assert parse_verdict("I would need more context to decide.") is None

    def test_parse_verdict_empty(self):
        assert parse_verdict("") is None
        assert parse_verdict("   ") is None

    def test_parse_verdict_prefers_json_field(self):
        text = 'Reasoning says false but {"verdict": "true"}'
        assert parse_verdict(text) is True

    def test_parse_verdict_both_keywords_first_wins(self):
        assert parse_verdict("true, not false") is True
        assert parse_verdict("false, not true") is False

    # Each expected value was computed by the parser that handed every
    # text to ``json.loads``; ``"reasoning": "false"`` before the verdict
    # tells a JSON read (True) from a keyword read (False).
    @pytest.mark.parametrize(
        "text,expected",
        [
            # The verdict regex reads this object before any decoding.
            ('\n {"verdict": "false "}', False),
            # Objects the verdict regex misses but the JSON decoder reads.
            ('{"verdict": " TRUE "}', True),
            ('{"reasoning": "false", "verdict": " TRUE "}', True),
            (' \t\r\n{"reasoning": "false", "verdict": " TRUE "}', True),
            ('{"verdict": "maybe"}', None),
            ('{"verdict": 1}', None),
            # JSON that is not an object: no verdict key, keywords decide.
            ('"true"', True),
            ('"false"', False),
            ("[1]", None),
            ("1", None),
            # Not JSON whitespace: the decoder refuses, keywords decide.
            ('\f{"reasoning": "false", "verdict": " TRUE "}', False),
            ('\ufeff{"reasoning": "false", "verdict": " TRUE "}', False),
            ('\xa0{"reasoning": "false", "verdict": " TRUE "}', False),
        ],
    )
    def test_parse_verdict_json_edge_cases(self, text, expected):
        assert parse_verdict(text) is expected

    @pytest.mark.parametrize("text", _NONCOMPLIANT_TEXTS)
    def test_parse_verdict_simulated_non_compliance(self, text):
        assert parse_verdict(text) is None

    def test_only_text_opening_with_a_brace_reaches_the_json_decoder(self, monkeypatch):
        decoded = []
        loads = prompts.json.loads

        def spy(text, *args, **kwargs):
            decoded.append(text)
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(prompts.json, "loads", spy)
        never = [
            *_NONCOMPLIANT_TEXTS,
            "True. The statement is supported.",
            "I would need more context to decide.",
            '"true"',
            "[1]",
            "1",
            '\f{"verdict": " TRUE "}',
            '\ufeff{"verdict": " TRUE "}',
            '\xa0{"verdict": " TRUE "}',
        ]
        for text in never:
            parse_verdict(text)
        assert decoded == []
        decoded_too = [
            '{"verdict": " TRUE "}',
            ' \t\r\n{"reasoning": "false", "verdict": " TRUE "}',
            "{not json",
        ]
        for text in decoded_too:
            parse_verdict(text)
        assert decoded == decoded_too


class TestQuestionParsing:
    def test_numbered_questions(self):
        text = "1. Where was X born?\n2) What is X known for?\n- Is X married?"
        questions = parse_questions(text)
        assert questions == [
            "Where was X born?",
            "What is X known for?",
            "Is X married?",
        ]

    def test_non_questions_filtered(self):
        text = "Here are the questions:\n1. Where was X born?\nThanks."
        assert parse_questions(text) == ["Where was X born?"]

    def test_short_questions_filtered(self):
        assert parse_questions("1. Why?") == []
