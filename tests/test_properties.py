"""Property-based tests (hypothesis) on core data structures and invariants."""

import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.evaluation.efficiency import iqr_filter
from repro.evaluation.metrics import classwise_f1, confusion_counts, precision_recall_f1
from repro.evaluation.upset import exclusive_intersections, upset_intersections
from repro.kg import KnowledgeGraph, Triple, camel_case, decode_label, encode_label, split_camel_case
from repro.llm.tokenizer import _TOKEN_RE, count_tokens
from repro.retrieval.chunking import SlidingWindowChunker, split_sentences
from repro.retrieval.embeddings import HashingEmbedder
from repro.validation.consensus import majority_vote
from repro.validation.prompts import parse_verdict

# ---------------------------------------------------------------- strategies

_names = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll"), max_codepoint=0x7F),
    min_size=1,
    max_size=12,
)
_labels = st.lists(_names, min_size=1, max_size=4).map(" ".join)
_fact_ids = st.lists(st.sampled_from([f"f{i}" for i in range(20)]), min_size=1, max_size=20, unique=True)


# ------------------------------------------------------------------ encodings


@settings(max_examples=60)
@given(_labels)
def test_label_encoding_roundtrip(label):
    assert decode_label(encode_label(label)) == " ".join(label.split())


_camel_words = st.text(
    alphabet=st.characters(whitelist_categories=("Ll",), max_codepoint=0x7A, min_codepoint=0x61),
    min_size=2,
    max_size=10,
)


@settings(max_examples=60)
@given(st.lists(_camel_words, min_size=1, max_size=5))
def test_camel_case_roundtrip(words):
    # Single-character words are excluded: consecutive capitalised initials
    # (e.g. "a a" -> "aA") are not recoverable, as with real camelCase.
    phrase = " ".join(words)
    assert split_camel_case(camel_case(phrase)) == phrase


# ------------------------------------------------------------------- metrics


@settings(max_examples=60)
@given(
    st.dictionaries(
        st.sampled_from([f"f{i}" for i in range(30)]),
        st.booleans(),
        min_size=1,
        max_size=30,
    ),
    st.randoms(use_true_random=False),
)
def test_confusion_counts_partition_total(gold, rng):
    predictions = {
        fact_id: rng.choice([True, False, None]) for fact_id in gold
    }
    counts = confusion_counts(predictions, gold)
    assert counts.total == len(gold)
    assert counts.true_positive + counts.false_negative == sum(
        1 for fact_id, label in gold.items() if label and predictions[fact_id] is not None
    )


@settings(max_examples=60)
@given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
def test_precision_recall_f1_bounds(tp, fp, fn):
    precision, recall, f1 = precision_recall_f1(tp, fp, fn)
    assert 0.0 <= precision <= 1.0
    assert 0.0 <= recall <= 1.0
    assert min(precision, recall) - 1e-9 <= f1 <= max(precision, recall) + 1e-9


@settings(max_examples=40)
@given(st.dictionaries(st.sampled_from([f"f{i}" for i in range(20)]), st.booleans(), min_size=1))
def test_perfect_predictions_give_perfect_f1(gold):
    scores = classwise_f1(dict(gold), gold)
    if any(gold.values()):
        assert scores.f1_true == 1.0
    if not all(gold.values()):
        assert scores.f1_false == 1.0


@settings(max_examples=60)
@given(st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), max_size=50))
def test_iqr_filter_is_subset_and_preserves_bulk(values):
    filtered = iqr_filter(values)
    assert len(filtered) <= len(values)
    for value in filtered:
        assert value in values
    if len(values) >= 4:
        assert len(filtered) >= len(values) // 2


# ------------------------------------------------------------------ consensus


@settings(max_examples=100)
@given(st.lists(st.sampled_from([True, False, None]), min_size=4, max_size=4))
def test_majority_vote_symmetry(votes):
    verdict = majority_vote(votes)
    flipped = majority_vote([None if vote is None else not vote for vote in votes])
    mapping = {"true": "false", "false": "true", "tie": "tie"}
    assert flipped.value == mapping[verdict.value]


# ---------------------------------------------------------------------- upset


@settings(max_examples=50)
@given(st.dictionaries(st.sampled_from(["m1", "m2", "m3", "m4"]), _fact_ids, min_size=1, max_size=4))
def test_upset_cells_partition_union(correct_by_model):
    union = set().union(*[set(v) for v in correct_by_model.values()])
    cells = upset_intersections(correct_by_model)
    assert sum(cell.count for cell in cells) == len(union)
    exclusive = exclusive_intersections({k: set(v) for k, v in correct_by_model.items()})
    seen = set()
    for items in exclusive.values():
        assert not (seen & items)
        seen |= items


# ------------------------------------------------------------------- chunking


@settings(max_examples=40)
@given(st.lists(st.sampled_from(["Alpha beta.", "Gamma delta!", "Epsilon zeta?"]), max_size=12),
       st.integers(1, 4), st.integers(1, 3))
def test_chunker_covers_all_sentences(sentences, window, stride):
    text = " ".join(sentences)
    chunker = SlidingWindowChunker(window_size=window, stride=stride)
    chunks = chunker.chunk_text(text)
    combined = " ".join(chunk.text for chunk in chunks)
    for sentence in split_sentences(text):
        assert sentence in combined
    for chunk in chunks:
        assert len(split_sentences(chunk.text)) <= window


# ------------------------------------------------------------------ tokenizer


@settings(max_examples=60)
@given(st.text(max_size=300))
def test_tokenizer_never_negative_and_concat_superadditive(text):
    count = count_tokens(text)
    assert count >= 0
    assert count_tokens(text + " " + text) >= count


_SEED_TOKEN_RE = re.compile(r"[A-Za-z0-9]+|[^\sA-Za-z0-9]")
_SEED_SUBWORD_LENGTH = 6


def _seed_tokenize(text):
    """The seed tokenizer loop, kept verbatim as the reference."""
    tokens = []
    for match in _SEED_TOKEN_RE.finditer(text):
        piece = match.group(0)
        if len(piece) <= _SEED_SUBWORD_LENGTH or not piece.isalnum():
            tokens.append(piece)
            continue
        for start in range(0, len(piece), _SEED_SUBWORD_LENGTH):
            tokens.append(piece[start : start + _SEED_SUBWORD_LENGTH])
    return tokens


@settings(max_examples=300)
@given(st.text(max_size=300))
@example("caf\u00e9 x\u00b2 \u0663\u0663\u0663 na\u00efve\u00b2\u0663abc")  # non-ASCII isalnum() characters
@example("a\x1cb\x1dc\x1ed\x1fe \x1c\x1f")  # \x1c-\x1f count as whitespace
@example(" ".join("a" * (6 * k + d) for k in range(4) for d in (-1, 0, 1) if 6 * k + d > 0))
@example("x" * 17 + "\u00e9" + "9" * 13 + "-" + "Z" * 6)
def test_tokenize_matches_the_seed_loop_and_count_is_its_length(text):
    tokens = _TOKEN_RE.findall(text)
    assert tokens == _seed_tokenize(text)
    assert count_tokens(text) == len(tokens)


@settings(max_examples=60)
@given(st.lists(st.text(max_size=40), min_size=1, max_size=8), st.data())
def test_token_memo_is_transparent_under_interleaved_repeats(texts, data):
    order = data.draw(st.lists(st.sampled_from(texts), min_size=1, max_size=24))
    for text in order:
        assert count_tokens(text) == len(_seed_tokenize(text))


# ----------------------------------------------------------------- embeddings


@settings(max_examples=40)
@given(st.text(max_size=120))
def test_embeddings_unit_norm_or_zero(text):
    import numpy as np

    vector = HashingEmbedder().embed(text)
    norm = np.linalg.norm(vector)
    assert norm == 0.0 or abs(norm - 1.0) < 1e-9


# -------------------------------------------------------------------- parsing


@settings(max_examples=60)
@given(st.booleans(), st.sampled_from(["json", "word", "sentence"]))
def test_parse_verdict_recovers_intended_label(value, style):
    word = "true" if value else "false"
    if style == "json":
        text = '{"verdict": "%s", "confidence": 0.7}' % word
    elif style == "word":
        text = word.capitalize() + "."
    else:
        text = f"The statement is {word}."
    assert parse_verdict(text) is value


# ----------------------------------------------------------------------- graph


@settings(max_examples=40)
@given(st.lists(st.tuples(st.sampled_from("abcdef"), st.sampled_from(["p", "q"]), st.sampled_from("abcdef")),
                max_size=20))
def test_graph_add_remove_roundtrip(edges):
    graph = KnowledgeGraph()
    triples = [Triple(s, p, o) for s, p, o in edges]
    graph.add_all(triples)
    assert len(graph) == len(set(triples))
    for triple in set(triples):
        assert triple in graph
        assert triple.object in graph.objects(triple.subject, triple.predicate)
    for triple in set(triples):
        graph.remove(triple)
    assert len(graph) == 0
