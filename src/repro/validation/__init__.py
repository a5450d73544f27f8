"""Core FactCheck validation strategies: DKA, GIV, RAG, and consensus.

This is the paper's primary contribution: the benchmark's verification
pipeline, covering internal-knowledge prompting (DKA, GIV-Z, GIV-F), the
four-phase RAG pipeline, and multi-model majority-vote consensus with
tie-break arbitration.
"""

from .base import STORE_FREE_METHODS, ValidationResult, ValidationRun, ValidationStrategy, Verdict
from .consensus import (
    ConsensusOutcome,
    ConsensusRun,
    MajorityVoteConsensus,
    consensus_alignment,
    majority_vote,
)
from .dka import DirectKnowledgeAssessment
from .giv import GuidedIterativeVerification
from .hybrid import HybridValidator
from .pipeline import (
    ParallelValidationPipeline,
    ValidationPipeline,
)
from .prompts import (
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
from .rules import OntologyRuleChecker, RuleGuardedValidator, RuleVerdict
from .rag import (
    QuestionGenerator,
    RAGConfig,
    RAGDatasetBuilder,
    RAGDatasetStats,
    RAGValidator,
    RetrievedEvidence,
    TripleTransformer,
)

__all__ = [
    "ConsensusOutcome",
    "ConsensusRun",
    "DirectKnowledgeAssessment",
    "FEW_SHOT_EXAMPLES",
    "GuidedIterativeVerification",
    "HybridValidator",
    "MajorityVoteConsensus",
    "QuestionGenerator",
    "RAGConfig",
    "RAGDatasetBuilder",
    "RAGDatasetStats",
    "RAGValidator",
    "OntologyRuleChecker",
    "RuleGuardedValidator",
    "RuleVerdict",
    "RetrievedEvidence",
    "STORE_FREE_METHODS",
    "TripleTransformer",
    "ParallelValidationPipeline",
    "ValidationPipeline",
    "ValidationResult",
    "ValidationRun",
    "ValidationStrategy",
    "Verdict",
    "consensus_alignment",
    "dka_prompt",
    "error_explanation_prompt",
    "giv_prompt",
    "majority_vote",
    "parse_questions",
    "parse_verdict",
    "question_generation_prompt",
    "rag_prompt",
    "reprompt_suffix",
    "transform_prompt",
]
