"""LLM substrate: client interface, simulated models, profiles, telemetry.

The validation strategies depend only on :class:`LLMClient`; offline the
benchmark instantiates :class:`SimulatedLLM` objects whose behaviour is
grounded in the shared world model and calibrated per-model via
:class:`ModelProfile`.
"""

from .base import LLMClient, LLMResponse
from .profiles import (
    ALL_PROFILES,
    COMMERCIAL_MODELS,
    OPEN_SOURCE_MODELS,
    UPGRADE_VARIANTS,
    ModelProfile,
    get_profile,
    upgrade_of,
)
from .registry import ModelRegistry, create_model
from .simulated import SimulatedLLM
from .telemetry import CallRecord, TelemetryCollector
from .tokenizer import count_tokens

__all__ = [
    "ALL_PROFILES",
    "COMMERCIAL_MODELS",
    "CallRecord",
    "LLMClient",
    "LLMResponse",
    "ModelProfile",
    "ModelRegistry",
    "OPEN_SOURCE_MODELS",
    "SimulatedLLM",
    "TelemetryCollector",
    "UPGRADE_VARIANTS",
    "count_tokens",
    "create_model",
    "get_profile",
    "upgrade_of",
]
