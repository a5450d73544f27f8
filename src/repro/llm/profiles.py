"""Behaviour profiles for the simulated LLMs.

The paper evaluates four open-source mid-sized models (Gemma2:9B,
Qwen2.5:7B, Llama3.1:8B, Mistral:7B), their larger variants used as
tie-breakers (Gemma2:27B, Qwen2.5:14B, Llama3.1:70B, Mistral-Nemo:12B), and
one commercial model (GPT-4o mini).  Each profile captures, in a handful of
interpretable parameters, the behavioural signature that the paper reports
for that model:

* how much of the world the model "knows" (and how reliably it recalls it),
* how biased it is toward answering "true" when uncertain,
* how well it follows structured prompts and exploits few-shot examples,
* how well it uses retrieved evidence,
* and how fast it is per prompt/completion token.

The absolute values are calibrations, not measurements — what the benchmark
reproduces is the relative ordering and the qualitative findings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

__all__ = [
    "ModelProfile",
    "OPEN_SOURCE_MODELS",
    "COMMERCIAL_MODELS",
    "UPGRADE_VARIANTS",
    "ALL_PROFILES",
    "get_profile",
    "upgrade_of",
]


@dataclass(frozen=True)
class ModelProfile:
    """Calibrated behavioural parameters of one (simulated) model.

    Attributes
    ----------
    name:
        Model identifier as used throughout the benchmark, e.g. ``"gemma2:9b"``.
    family:
        Model family (used to match upgrade variants for tie-breaking).
    parameters_b:
        Parameter count in billions (documentation only).
    commercial:
        True for hosted commercial models (GPT-4o mini).
    knowledge_coverage:
        Probability scale for "the model knows the true object of this
        subject/predicate pair"; modulated by entity popularity.
    knowledge_reliability:
        Probability of answering consistently with its knowledge when it
        does know the fact.
    positive_bias:
        Probability of guessing "true" when the model does not know the
        fact.  Values near 1.0 reproduce the positive-class bias that makes
        F1(F) collapse on YAGO; values below 0.5 produce the sceptical
        behaviour the paper observes for GPT-4o mini on true facts.
    structure_penalty:
        Accuracy degradation under structured zero-shot prompting (GIV-Z);
        the paper finds some models (Llama3.1, Qwen2.5) get *worse* with
        bare structured prompts.
    fewshot_boost:
        Recovery/improvement of effective reliability with few-shot
        exemplars (GIV-F).
    evidence_utilization:
        Probability of following the net evidence signal when external
        chunks are supplied (RAG).
    evidence_positive_trust:
        Residual positive bias under RAG when the evidence is inconclusive.
    unsupported_true_penalty:
        Probability of demoting a "true" judgement to "false" when no
        external evidence is present.  Models hosted behind conservative
        alignment layers (the commercial profile) refuse to endorse claims
        they cannot source, which is the asymmetry behind GPT-4o mini's low
        F1(T) / decent F1(F) in the paper.
    format_compliance:
        Probability of emitting a response in the requested format on the
        first attempt; GIV's re-prompting loop exercises the failures.
    base_latency_s / prompt_token_rate_s / completion_token_rate_s:
        Latency model: ``latency = base + prompt_tokens * prompt_rate +
        completion_tokens * completion_rate`` (plus small noise).
    verbosity:
        Mean length (in words) of free-form answer justifications.
    """

    name: str
    family: str
    parameters_b: float
    commercial: bool
    knowledge_coverage: float
    knowledge_reliability: float
    positive_bias: float
    structure_penalty: float
    fewshot_boost: float
    evidence_utilization: float
    evidence_positive_trust: float
    unsupported_true_penalty: float
    format_compliance: float
    base_latency_s: float
    prompt_token_rate_s: float
    completion_token_rate_s: float
    verbosity: int = 30


OPEN_SOURCE_MODELS: Dict[str, ModelProfile] = {
    profile.name: profile
    for profile in [
        ModelProfile(
            name="gemma2:9b",
            family="gemma2",
            parameters_b=9,
            commercial=False,
            knowledge_coverage=0.80,
            knowledge_reliability=0.90,
            positive_bias=0.58,
            structure_penalty=0.02,
            fewshot_boost=0.06,
            evidence_utilization=0.93,
            evidence_positive_trust=0.60,
            unsupported_true_penalty=0.0,
            format_compliance=0.975,
            base_latency_s=0.055,
            prompt_token_rate_s=0.00078,
            completion_token_rate_s=0.0022,
            verbosity=34,
        ),
        ModelProfile(
            name="qwen2.5:7b",
            family="qwen2.5",
            parameters_b=7,
            commercial=False,
            knowledge_coverage=0.62,
            knowledge_reliability=0.84,
            positive_bias=0.38,
            structure_penalty=0.05,
            fewshot_boost=0.12,
            evidence_utilization=0.91,
            evidence_positive_trust=0.55,
            unsupported_true_penalty=0.05,
            format_compliance=0.96,
            base_latency_s=0.045,
            prompt_token_rate_s=0.00066,
            completion_token_rate_s=0.0019,
            verbosity=26,
        ),
        ModelProfile(
            name="llama3.1:8b",
            family="llama3.1",
            parameters_b=8,
            commercial=False,
            knowledge_coverage=0.72,
            knowledge_reliability=0.87,
            positive_bias=0.55,
            structure_penalty=0.14,
            fewshot_boost=0.13,
            evidence_utilization=0.86,
            evidence_positive_trust=0.62,
            unsupported_true_penalty=0.0,
            format_compliance=0.94,
            base_latency_s=0.075,
            prompt_token_rate_s=0.00090,
            completion_token_rate_s=0.0026,
            verbosity=38,
        ),
        ModelProfile(
            name="mistral:7b",
            family="mistral",
            parameters_b=7,
            commercial=False,
            knowledge_coverage=0.74,
            knowledge_reliability=0.86,
            positive_bias=0.68,
            structure_penalty=-0.03,
            fewshot_boost=0.08,
            evidence_utilization=0.90,
            evidence_positive_trust=0.68,
            unsupported_true_penalty=0.0,
            format_compliance=0.965,
            base_latency_s=0.040,
            prompt_token_rate_s=0.00056,
            completion_token_rate_s=0.0017,
            verbosity=24,
        ),
    ]
}

COMMERCIAL_MODELS: Dict[str, ModelProfile] = {
    profile.name: profile
    for profile in [
        ModelProfile(
            name="gpt-4o-mini",
            family="gpt-4o",
            parameters_b=8,
            commercial=True,
            knowledge_coverage=0.66,
            knowledge_reliability=0.86,
            positive_bias=0.22,
            structure_penalty=0.03,
            fewshot_boost=0.02,
            evidence_utilization=0.95,
            evidence_positive_trust=0.55,
            unsupported_true_penalty=0.42,
            format_compliance=0.985,
            base_latency_s=0.220,
            prompt_token_rate_s=0.00055,
            completion_token_rate_s=0.0016,
            verbosity=30,
        ),
    ]
}

# Larger variants used for consensus tie-breaking (§3.3 / §5): the same
# behavioural signature as the base model, with higher coverage/reliability
# and higher latency.
UPGRADE_VARIANTS: Dict[str, ModelProfile] = {}
_UPGRADE_SPECS: Tuple[Tuple[str, str, float], ...] = (
    ("gemma2:9b", "gemma2:27b", 27),
    ("qwen2.5:7b", "qwen2.5:14b", 14),
    ("llama3.1:8b", "llama3.1:70b", 70),
    ("mistral:7b", "mistral-nemo:12b", 12),
)
for _base_name, _upgrade_name, _params in _UPGRADE_SPECS:
    _base = OPEN_SOURCE_MODELS[_base_name]
    UPGRADE_VARIANTS[_upgrade_name] = replace(
        _base,
        name=_upgrade_name,
        parameters_b=_params,
        knowledge_coverage=min(0.95, _base.knowledge_coverage + 0.10),
        knowledge_reliability=min(0.97, _base.knowledge_reliability + 0.05),
        structure_penalty=max(0.0, _base.structure_penalty - 0.03),
        base_latency_s=_base.base_latency_s * 2.2,
        prompt_token_rate_s=_base.prompt_token_rate_s * 1.8,
        completion_token_rate_s=_base.completion_token_rate_s * 1.8,
    )

ALL_PROFILES: Dict[str, ModelProfile] = {
    **OPEN_SOURCE_MODELS,
    **COMMERCIAL_MODELS,
    **UPGRADE_VARIANTS,
}


def get_profile(name: str) -> ModelProfile:
    """Look up a profile by model name.

    Raises
    ------
    KeyError
        When the model is not part of the benchmark's model zoo.
    """
    try:
        return ALL_PROFILES[name]
    except KeyError as exc:
        raise KeyError(
            f"Unknown model {name!r}; available: {sorted(ALL_PROFILES)}"
        ) from exc


def upgrade_of(name: str) -> ModelProfile:
    """The larger tie-breaker variant of a base open-source model."""
    base = get_profile(name)
    for candidate in UPGRADE_VARIANTS.values():
        if candidate.family == base.family:
            return candidate
    raise KeyError(f"No upgrade variant registered for model {name!r}")
