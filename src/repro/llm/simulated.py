"""Simulated LLM: the offline stand-in for Ollama-hosted and hosted models.

The paper runs Gemma2, Qwen2.5, Llama3.1, Mistral (locally via Ollama) and
GPT-4o mini (Azure-hosted).  None of those are reachable offline, so this
module provides :class:`SimulatedLLM`, a drop-in :class:`~repro.llm.base.LLMClient`
whose behaviour is grounded in the world model:

* its "internal knowledge" is a popularity-weighted subset of the world's
  ground-truth facts, determined per model by a seeded hash (so every model
  knows a different but stable slice of the world);
* its decisions follow the calibrated behaviour profile (positive bias,
  structured-prompt penalty, few-shot boost, evidence utilisation);
* its responses are natural-language strings that the validation strategies
  must parse — including occasional non-conformant output so the GIV
  re-prompting loop is genuinely exercised;
* its token usage and latency follow the profile's latency model, so the
  efficiency analysis (Table 8, Figure 3) reflects prompt length exactly the
  way the paper's does.

The structured ``metadata`` passed by the strategies tells the simulator
*what the task is* (verification, triple transformation, question
generation, error explanation) and which fact/evidence the prompt is about.
A real client would parse the prompt instead; using metadata keeps the
simulation honest (no answer leakage through prompt text) and robust.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..datasets.base import LabeledFact
from ..kg.verbalization import Verbalizer
from ..worldmodel.entities import RELATIONS
from ..worldmodel.generator import World
from .base import LLMClient, LLMResponse
from .profiles import ModelProfile
from .tokenizer import count_tokens

__all__ = ["SimulatedLLM"]

#: Facts whose ground truth, and facts whose knowledge slot, a
#: :class:`SimulatedLLM` memoises (each memo apart); emptied whole when full.
FACT_MEMO_CAPACITY = 4096

_NONCOMPLIANT_TEXTS = (
    "I would need additional context and supporting references before "
    "committing to a judgement on this statement; several readings are possible.",
    "The statement involves entities whose records I cannot fully reconcile, "
    "so a definitive assessment is not provided here.",
    "Let me reason about the entities involved. There are multiple aspects to "
    "consider and the available information is not conclusive either way.",
)

_POSITIVE_PHRASES = (
    "The statement is consistent with what is known about {subject}.",
    "Available knowledge about {subject} supports this claim.",
    "Records regarding {subject} and {obj} agree with the statement.",
)

_NEGATIVE_PHRASES = (
    "Known information about {subject} contradicts this claim.",
    "The claim conflicts with established facts about {subject}.",
    "The association between {subject} and {obj} is not supported.",
)


class SimulatedLLM(LLMClient):
    """World-grounded simulated language model.

    The world, the facts and the model's profile never change while the
    model lives, so what a fact's verdict derives from them alone is
    memoised per model: the claim's ground truth (keyed on the subject, the
    object and the canonical predicate) and whether the model knows the
    fact's slot (keyed on the subject, both predicates and the popularity),
    at most :data:`FACT_MEMO_CAPACITY` facts each.  Every key holds exactly
    the fields its derivation reads, never the fact id: two datasets may
    reuse one.  The seeded draws, responses, token counts and latencies are
    those of the unmemoised model.
    """

    def __init__(
        self,
        profile: ModelProfile,
        world: World,
        seed: int = 0,
    ) -> None:
        super().__init__(profile.name)
        self.profile = profile
        self.world = world
        self.seed = seed
        self.verbalizer = Verbalizer(world)
        self._hash_prefix = "\x1f".join((self.name, str(seed)))
        self._truths: Dict[Tuple[str, str, str], Tuple[Optional[bool], Tuple[str, ...]]] = {}
        self._knows: Dict[Tuple[str, str, str, float], bool] = {}

    # ------------------------------------------------------------------ API

    def generate(
        self,
        prompt: str,
        *,
        metadata: Optional[Mapping[str, Any]] = None,
    ) -> LLMResponse:
        meta = dict(metadata or {})
        task = meta.get("task", "generic")
        if task == "verify":
            text = self._verify(meta)
        elif task == "transform":
            text = self._transform(meta)
        elif task == "generate_questions":
            text = self._generate_questions(meta)
        elif task == "explain_error":
            text = self._explain_error(meta)
        else:
            text = self._generic(prompt)
        return self._package(prompt, text, meta)

    # ----------------------------------------------------------- verification

    def _verify(self, meta: Mapping[str, Any]) -> str:
        fact: LabeledFact = meta["fact"]
        evidence: Sequence[str] = meta.get("evidence", ())
        few_shot = bool(meta.get("few_shot", False))
        structured = bool(meta.get("structured", False))
        attempt = int(meta.get("attempt", 0))
        method = str(meta.get("method", "dka"))

        rng = self._rng("verify", fact.fact_id, method, str(attempt))

        if not self._is_compliant(rng, attempt):
            return rng.choice(_NONCOMPLIANT_TEXTS)

        verdict = self._decide(fact, evidence, few_shot, structured, method, rng)
        justification = self._justification(fact, verdict, rng)
        if structured:
            confidence = round(0.55 + 0.4 * rng.random(), 2)
            verdict_word = "true" if verdict else "false"
            return (
                '{"verdict": "%s", "confidence": %.2f, "reasoning": "%s"}'
                % (verdict_word, confidence, justification.replace('"', "'"))
            )
        prefix = "True." if verdict else "False."
        return f"{prefix} {justification}"

    def _decide(
        self,
        fact: LabeledFact,
        evidence: Sequence[str],
        few_shot: bool,
        structured: bool,
        method: str,
        rng: random.Random,
    ) -> bool:
        profile = self.profile
        claim_true, true_object_names = self._ground_truth(fact)

        knows = self._knows_fact(fact)
        internal_verdict = self._internal_verdict(
            fact, claim_true, knows, few_shot, structured, rng
        )

        if not evidence:
            # Conservative hosted models demote unsourced "true" judgements.
            if (
                internal_verdict
                and profile.unsupported_true_penalty > 0.0
                and rng.random() < profile.unsupported_true_penalty
            ):
                return False
            return internal_verdict

        signal = self._evidence_signal(fact, true_object_names, evidence)
        utilization = profile.evidence_utilization
        if fact.predicate_name != fact.base_predicate():
            # Schema diversity (DBpedia): when the property label is an
            # unfamiliar alias, the model is less confident the retrieved
            # passages talk about the *same* relation, so evidence is used
            # less effectively — the paper's explanation for RAG's weaker
            # gains on DBpedia.
            utilization *= 0.55
            if rng.random() < 0.40:
                signal = 0
        if signal != 0 and rng.random() < utilization:
            return signal > 0
        if signal == 0 and not knows:
            # Inconclusive evidence and no internal knowledge: residual bias.
            return rng.random() < profile.evidence_positive_trust
        return internal_verdict

    def _internal_verdict(
        self,
        fact: LabeledFact,
        claim_true: Optional[bool],
        knows: bool,
        few_shot: bool,
        structured: bool,
        rng: random.Random,
    ) -> bool:
        profile = self.profile
        if knows and claim_true is not None:
            reliability = profile.knowledge_reliability
            if structured and not few_shot:
                reliability -= profile.structure_penalty
            if few_shot:
                reliability = min(0.99, reliability + profile.fewshot_boost)
            # Facts expressed through unfamiliar (aliased) predicates are
            # recalled less reliably — the DBpedia schema-diversity effect.
            if fact.predicate_name != fact.base_predicate():
                reliability -= 0.08
            reliability = max(0.05, min(0.99, reliability))
            if rng.random() < reliability:
                return claim_true
            return not claim_true
        bias = profile.positive_bias
        if structured and not few_shot:
            bias = max(0.02, min(0.98, bias - profile.structure_penalty / 2))
        if few_shot:
            # Exemplars nudge an uncertain model toward balanced answering.
            bias = 0.5 + (bias - 0.5) * 0.8 + profile.fewshot_boost / 4
        return rng.random() < bias

    def _knows_fact(self, fact: LabeledFact) -> bool:
        """Does this model's internal knowledge cover ``(subject, predicate)``?

        Deterministic per (model, subject, canonical predicate): the same
        model always either knows or does not know a given slot, regardless
        of the prompting method — methods only change how well that
        knowledge is used.  Memoised per model (see the class docstring).
        """
        base_predicate = fact.base_predicate()
        key = (fact.subject_name, fact.predicate_name, base_predicate, fact.popularity)
        knows = self._knows.get(key)
        if knows is None:
            p_known = self.profile.knowledge_coverage * (0.40 + 0.60 * fact.popularity)
            if fact.predicate_name != base_predicate:
                p_known *= 0.78
            draw = self._hash_uniform("knows", fact.subject_name, base_predicate)
            if len(self._knows) >= FACT_MEMO_CAPACITY:
                self._knows.clear()
            knows = self._knows[key] = draw < p_known
        return knows

    def _ground_truth(self, fact: LabeledFact) -> Tuple[Optional[bool], Tuple[str, ...]]:
        """Resolve the claim against the world; returns (claim_true, true object
        names).  Memoised per model (see the class docstring)."""
        predicate = fact.base_predicate()
        key = (fact.subject_name, fact.object_name, predicate)
        truth = self._truths.get(key)
        if truth is None:
            if len(self._truths) >= FACT_MEMO_CAPACITY:
                self._truths.clear()
            truth = self._truths[key] = self._resolve(*key)
        return truth

    def _resolve(
        self, subject_name: str, object_name: str, predicate: str
    ) -> Tuple[Optional[bool], Tuple[str, ...]]:
        subject = self.world.entity_by_name(subject_name)
        obj = self.world.entity_by_name(object_name)
        if subject is None or predicate not in RELATIONS:
            return None, ()
        true_object_ids = self.world.true_objects(subject.entity_id, predicate)
        true_names = tuple(self.world.name(obj_id) for obj_id in true_object_ids)
        if obj is None:
            return (False if true_object_ids else None), true_names
        claim_true = self.world.is_true(subject.entity_id, predicate, obj.entity_id)
        return claim_true, true_names

    def _evidence_signal(
        self,
        fact: LabeledFact,
        true_object_names: Sequence[str],
        evidence: Sequence[str],
    ) -> int:
        """Net support (+) / refutation (-) signal from evidence chunks.

        A chunk supports the claim when it mentions the subject together with
        the claimed object; it refutes the claim when it mentions the subject
        together with a *different* true object for the same relation (the
        way a Wikipedia-style page about the subject contradicts a corrupted
        triple).
        """
        subject = fact.subject_name.lower()
        claimed = fact.object_name.lower()
        alternatives = [name.lower() for name in true_object_names if name.lower() != claimed]
        support = 0
        refute = 0
        for chunk in evidence:
            text = chunk.lower()
            if subject not in text:
                continue
            mentions_claim = claimed in text
            mentions_alternative = any(alt in text for alt in alternatives)
            if mentions_claim and not mentions_alternative:
                support += 1
            elif mentions_alternative and not mentions_claim:
                refute += 1
        if support > refute:
            return 1
        if refute > support:
            return -1
        return 0

    def _is_compliant(self, rng: random.Random, attempt: int) -> bool:
        compliance = self.profile.format_compliance
        if attempt > 0:
            # Re-prompting with an explicit non-compliance flag helps.
            compliance = 1.0 - (1.0 - compliance) * 0.35
        return rng.random() < compliance

    def _justification(self, fact: LabeledFact, verdict: bool, rng: random.Random) -> str:
        phrases = _POSITIVE_PHRASES if verdict else _NEGATIVE_PHRASES
        template = phrases[rng.randrange(len(phrases))]
        sentence = template.format(subject=fact.subject_name, obj=fact.object_name)
        padding_words = max(0, int(rng.gauss(self.profile.verbosity, 6)) - len(sentence.split()))
        if padding_words > 0:
            filler = (
                " The assessment considers the relation "
                + fact.predicate_name
                + " and the entities involved"
            )
            sentence += filler + "." if padding_words > 6 else ""
        return sentence

    # ------------------------------------------------------ auxiliary tasks

    def _transform(self, meta: Mapping[str, Any]) -> str:
        """Phase 1 of RAG: turn the encoded triple into a readable sentence."""
        fact: LabeledFact = meta["fact"]
        rng = self._rng("transform", fact.fact_id)
        statement = self.verbalizer.statement(fact.triple)
        # Light paraphrase noise: occasionally restate with a lead-in, the way
        # an instruction-tuned model would (entity casing is preserved).
        if rng.random() < 0.25:
            return f"In other words, {statement}"
        return statement

    def _generate_questions(self, meta: Mapping[str, Any]) -> str:
        """Phase 2 of RAG: emit candidate questions, one per line."""
        fact: LabeledFact = meta["fact"]
        count = int(meta.get("num_questions", 10))
        rng = self._rng("questions", fact.fact_id)
        questions: List[str] = []
        base_predicate = fact.base_predicate()
        spec = RELATIONS.get(base_predicate)
        subject = fact.subject_name
        obj = fact.object_name
        templates: List[str] = list(spec.question_templates) if spec else []
        templates.extend(
            [
                "Is it true that " + self.verbalizer.statement(fact.triple).rstrip(".").lower() + "?",
                f"What is known about the {base_predicate} of {subject}?",
                f"Which sources document {subject} and {obj} together?",
                f"What facts connect {subject} with {obj}?",
                f"Can the relation {fact.predicate_name} between {subject} and {obj} be confirmed?",
                f"What do reference works say about {subject}?",
                f"Does {subject} have any association with {obj}?",
            ]
        )
        rng.shuffle(templates)
        # Models occasionally emit fewer questions than requested (the paper
        # observes between 2 and 10 extractable questions per fact).
        emitted = max(2, min(count, len(templates), count - (1 if rng.random() < 0.15 else 0)))
        for template in templates[:emitted]:
            questions.append(template.format(s=subject, o=obj))
        return "\n".join(f"{idx + 1}. {question}" for idx, question in enumerate(questions))

    def _explain_error(self, meta: Mapping[str, Any]) -> str:
        """Post-hoc error explanation used by the qualitative error analysis."""
        fact: LabeledFact = meta["fact"]
        had_evidence = bool(meta.get("had_evidence", False))
        evidence_useful = bool(meta.get("evidence_useful", True))
        rng = self._rng("explain", fact.fact_id)
        category = fact.category
        if had_evidence and not evidence_useful:
            return (
                f"The supplied context did not mention {fact.subject_name} or the asserted "
                f"details about {fact.object_name}, so the judgement relied on incomplete evidence."
            )
        explanations = {
            "relationship": (
                f"The relationship between {fact.subject_name} and {fact.object_name} "
                f"(such as marital status or affiliation) was assessed incorrectly."
            ),
            "role": (
                f"{fact.subject_name} was linked to the wrong role, team, or organization "
                f"instead of the correct association with {fact.object_name}."
            ),
            "geographic": (
                f"The place or national affiliation stated for {fact.subject_name} is inconsistent "
                f"with the reference information about {fact.object_name}."
            ),
            "genre": (
                f"The work {fact.subject_name} was categorized under an incorrect genre or class "
                f"relative to {fact.object_name}."
            ),
            "biographical": (
                f"A biographical identifier for {fact.subject_name}, such as an award, date, or "
                f"record, was reported inaccurately with respect to {fact.object_name}."
            ),
        }
        return explanations.get(
            category,
            f"The assessment of {fact.subject_name} and {fact.object_name} was inconsistent "
            f"with the reference data.",
        )

    def _generic(self, prompt: str) -> str:
        rng = self._rng("generic", prompt[:64])
        return (
            "Here is a concise response to the request based on the available "
            "information." if rng.random() < 0.9 else "I cannot help with that request."
        )

    # ------------------------------------------------------------ accounting

    def _package(self, prompt: str, text: str, meta: Mapping[str, Any]) -> LLMResponse:
        prompt_tokens = count_tokens(prompt)
        completion_tokens = count_tokens(text)
        latency = self._latency(prompt_tokens, completion_tokens, meta)
        return LLMResponse(
            text=text,
            model=self.name,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            latency_seconds=latency,
        )

    def _latency(self, prompt_tokens: int, completion_tokens: int, meta: Mapping[str, Any]) -> float:
        profile = self.profile
        base = (
            profile.base_latency_s
            + prompt_tokens * profile.prompt_token_rate_s
            + completion_tokens * profile.completion_token_rate_s
        )
        jitter_key = str(meta.get("fact").fact_id) if meta.get("fact") is not None else "none"
        jitter = 0.85 + 0.30 * self._hash_uniform("latency", jitter_key, str(prompt_tokens))
        return round(base * jitter, 4)

    # ------------------------------------------------------------ randomness

    def _rng(self, *parts: str) -> random.Random:
        return random.Random(self._stable_hash(*parts))

    def _hash_uniform(self, *parts: str) -> float:
        return self._stable_hash(*parts) / float(2**64)

    def _stable_hash(self, *parts: str) -> int:
        payload = "\x1f".join((self._hash_prefix,) + parts)
        digest = hashlib.blake2b(payload.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")
