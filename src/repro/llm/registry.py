"""Model registry: build the benchmark's model zoo from profiles."""

from __future__ import annotations

from typing import Dict, Optional

from ..worldmodel.generator import World
from .profiles import get_profile, upgrade_of
from .simulated import SimulatedLLM
from .telemetry import TelemetryCollector

__all__ = ["create_model", "ModelRegistry"]


def create_model(
    name: str,
    world: World,
    seed: int = 0,
    telemetry: Optional[TelemetryCollector] = None,
) -> SimulatedLLM:
    """Instantiate one simulated model by name (recording into ``telemetry``).

    Raises
    ------
    KeyError
        When the name is not in the benchmark's model zoo.
    """
    return SimulatedLLM(get_profile(name), world, seed=seed, telemetry=telemetry)


class ModelRegistry:
    """Lazily instantiates and caches models over a shared world.

    The consensus strategies need, in addition to the four backbone models,
    the upgraded variants used for tie-breaking and the commercial
    arbitrator; the registry hands them out on demand so each model is only
    built once per benchmark run.  Every model it builds records its own
    completions into ``telemetry`` (the runner's collector).
    """

    def __init__(
        self,
        world: World,
        seed: int = 0,
        telemetry: Optional[TelemetryCollector] = None,
    ) -> None:
        self.world = world
        self.seed = seed
        self.telemetry = telemetry
        self._cache: Dict[str, SimulatedLLM] = {}

    def get(self, name: str) -> SimulatedLLM:
        if name not in self._cache:
            self._cache[name] = create_model(
                name, self.world, seed=self.seed, telemetry=self.telemetry
            )
        return self._cache[name]

    def upgrade_for(self, base_name: str) -> SimulatedLLM:
        """The larger tie-breaker variant of ``base_name`` (e.g. 9B -> 27B)."""
        return self.get(upgrade_of(base_name).name)
