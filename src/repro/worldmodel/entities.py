"""Entity and relation type definitions for the synthetic world model."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, Tuple

__all__ = ["EntityType", "Entity", "RelationSpec", "RELATIONS"]


class EntityType(str, Enum):
    """Classes of entities that populate the synthetic world.

    These mirror the entity classes that dominate the FactBench, YAGO, and
    DBpedia evaluation datasets (people, places, creative works,
    organisations, awards, and teams).
    """

    PERSON = "Person"
    CITY = "City"
    COUNTRY = "Country"
    ORGANIZATION = "Organization"
    UNIVERSITY = "University"
    FILM = "Film"
    BOOK = "Book"
    BAND = "Band"
    AWARD = "Award"
    SPORTS_TEAM = "SportsTeam"
    GENRE = "Genre"
    RELIGION = "Religion"
    LANGUAGE = "Language"
    YEAR = "Year"


@dataclass(frozen=True)
class Entity:
    """A node in the synthetic world.

    Attributes
    ----------
    entity_id:
        Stable identifier, e.g. ``"person_0042"``.
    name:
        Human-readable surface form, e.g. ``"Aldric Fenwick"``.
    etype:
        The entity's class.
    popularity:
        Value in ``(0, 1]`` modelling how prominent the entity is.  Popular
        entities are more likely to be covered by a simulated LLM's internal
        knowledge and attract more synthetic web documents, mirroring the
        head-to-tail coverage pattern that the paper discusses.
    attributes:
        Additional literal attributes (e.g. a founding year).
    """

    entity_id: str
    name: str
    etype: EntityType
    popularity: float = 0.5
    attributes: Tuple[Tuple[str, Any], ...] = ()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name} ({self.etype.value})"


@dataclass(frozen=True)
class RelationSpec:
    """Schema-level description of a relation (predicate).

    Attributes
    ----------
    name:
        Canonical camelCase predicate name as used by the KG encodings.
    domain / range:
        Entity types allowed as subject / object.
    functional:
        True when each subject has at most one object (e.g. ``birthPlace``).
    symmetric:
        True when the relation holds in both directions (e.g. ``spouse``).
    template:
        Natural-language template with ``{s}`` and ``{o}`` placeholders used
        by the rule-based verbalizer and the synthetic web generator.
    question_templates:
        Templates used when generating candidate questions for RAG.
    category:
        Coarse semantic category used by the error-analysis taxonomy
        (``relationship``, ``role``, ``geographic``, ``genre``,
        ``biographical``).
    """

    name: str
    domain: EntityType
    range: EntityType
    functional: bool
    template: str
    question_templates: Tuple[str, ...]
    symmetric: bool = False
    category: str = "role"


RELATIONS: Dict[str, RelationSpec] = {
    spec.name: spec
    for spec in [
        RelationSpec(
            name="birthPlace",
            domain=EntityType.PERSON,
            range=EntityType.CITY,
            functional=True,
            template="{s} was born in {o}.",
            question_templates=(
                "Where was {s} born?",
                "In which city was {s} born?",
                "What is the birthplace of {s}?",
            ),
            category="geographic",
        ),
        RelationSpec(
            name="deathPlace",
            domain=EntityType.PERSON,
            range=EntityType.CITY,
            functional=True,
            template="{s} died in {o}.",
            question_templates=(
                "Where did {s} die?",
                "In which city did {s} pass away?",
            ),
            category="geographic",
        ),
        RelationSpec(
            name="nationality",
            domain=EntityType.PERSON,
            range=EntityType.COUNTRY,
            functional=True,
            template="{s} is a citizen of {o}.",
            question_templates=(
                "What is the nationality of {s}?",
                "Which country is {s} a citizen of?",
            ),
            category="geographic",
        ),
        RelationSpec(
            name="spouse",
            domain=EntityType.PERSON,
            range=EntityType.PERSON,
            functional=True,
            symmetric=True,
            template="{s} is married to {o}.",
            question_templates=(
                "Who is {s} married to?",
                "Who is the spouse of {s}?",
            ),
            category="relationship",
        ),
        RelationSpec(
            name="almaMater",
            domain=EntityType.PERSON,
            range=EntityType.UNIVERSITY,
            functional=False,
            template="{s} studied at {o}.",
            question_templates=(
                "Where did {s} study?",
                "Which university did {s} attend?",
            ),
            category="biographical",
        ),
        RelationSpec(
            name="employer",
            domain=EntityType.PERSON,
            range=EntityType.ORGANIZATION,
            functional=False,
            template="{s} works for {o}.",
            question_templates=(
                "Which organization does {s} work for?",
                "Who employs {s}?",
            ),
            category="role",
        ),
        RelationSpec(
            name="religion",
            domain=EntityType.PERSON,
            range=EntityType.RELIGION,
            functional=True,
            template="{s} follows {o}.",
            question_templates=(
                "What is the religion of {s}?",
                "Which faith does {s} follow?",
            ),
            category="relationship",
        ),
        RelationSpec(
            name="award",
            domain=EntityType.PERSON,
            range=EntityType.AWARD,
            functional=False,
            template="{s} received the {o}.",
            question_templates=(
                "Which award did {s} receive?",
                "What prize was given to {s}?",
            ),
            category="biographical",
        ),
        RelationSpec(
            name="team",
            domain=EntityType.PERSON,
            range=EntityType.SPORTS_TEAM,
            functional=False,
            template="{s} plays for {o}.",
            question_templates=(
                "Which team does {s} play for?",
                "What club is {s} a member of?",
            ),
            category="role",
        ),
        RelationSpec(
            name="nativeLanguage",
            domain=EntityType.PERSON,
            range=EntityType.LANGUAGE,
            functional=True,
            template="The native language of {s} is {o}.",
            question_templates=(
                "What is the native language of {s}?",
            ),
            category="biographical",
        ),
        RelationSpec(
            name="birthYear",
            domain=EntityType.PERSON,
            range=EntityType.YEAR,
            functional=True,
            template="{s} was born in the year {o}.",
            question_templates=(
                "In which year was {s} born?",
            ),
            category="biographical",
        ),
        RelationSpec(
            name="director",
            domain=EntityType.FILM,
            range=EntityType.PERSON,
            functional=True,
            template="{s} was directed by {o}.",
            question_templates=(
                "Who directed {s}?",
                "Who is the director of the film {s}?",
            ),
            category="role",
        ),
        RelationSpec(
            name="starring",
            domain=EntityType.FILM,
            range=EntityType.PERSON,
            functional=False,
            template="{s} stars {o}.",
            question_templates=(
                "Who starred in {s}?",
                "Which actors appear in {s}?",
            ),
            category="role",
        ),
        RelationSpec(
            name="genre",
            domain=EntityType.FILM,
            range=EntityType.GENRE,
            functional=False,
            template="{s} belongs to the {o} genre.",
            question_templates=(
                "What genre is {s}?",
                "How is the film {s} classified?",
            ),
            category="genre",
        ),
        RelationSpec(
            name="author",
            domain=EntityType.BOOK,
            range=EntityType.PERSON,
            functional=True,
            template="{s} was written by {o}.",
            question_templates=(
                "Who wrote {s}?",
                "Who is the author of {s}?",
            ),
            category="role",
        ),
        RelationSpec(
            name="publicationYear",
            domain=EntityType.BOOK,
            range=EntityType.YEAR,
            functional=True,
            template="{s} was published in {o}.",
            question_templates=(
                "When was {s} published?",
            ),
            category="biographical",
        ),
        RelationSpec(
            name="bandMember",
            domain=EntityType.BAND,
            range=EntityType.PERSON,
            functional=False,
            template="{o} is a member of {s}.",
            question_templates=(
                "Who are the members of {s}?",
            ),
            category="relationship",
        ),
        RelationSpec(
            name="musicGenre",
            domain=EntityType.BAND,
            range=EntityType.GENRE,
            functional=False,
            template="{s} performs {o} music.",
            question_templates=(
                "What genre of music does {s} play?",
            ),
            category="genre",
        ),
        RelationSpec(
            name="locatedIn",
            domain=EntityType.CITY,
            range=EntityType.COUNTRY,
            functional=True,
            template="{s} is located in {o}.",
            question_templates=(
                "In which country is {s} located?",
                "Where is {s}?",
            ),
            category="geographic",
        ),
        RelationSpec(
            name="capital",
            domain=EntityType.COUNTRY,
            range=EntityType.CITY,
            functional=True,
            template="The capital of {s} is {o}.",
            question_templates=(
                "What is the capital of {s}?",
            ),
            category="geographic",
        ),
        RelationSpec(
            name="officialLanguage",
            domain=EntityType.COUNTRY,
            range=EntityType.LANGUAGE,
            functional=False,
            template="The official language of {s} is {o}.",
            question_templates=(
                "What is the official language of {s}?",
            ),
            category="geographic",
        ),
        RelationSpec(
            name="headquarter",
            domain=EntityType.ORGANIZATION,
            range=EntityType.CITY,
            functional=True,
            template="{s} is headquartered in {o}.",
            question_templates=(
                "Where is {s} headquartered?",
            ),
            category="geographic",
        ),
        RelationSpec(
            name="foundedBy",
            domain=EntityType.ORGANIZATION,
            range=EntityType.PERSON,
            functional=False,
            template="{s} was founded by {o}.",
            question_templates=(
                "Who founded {s}?",
            ),
            category="role",
        ),
        RelationSpec(
            name="foundingYear",
            domain=EntityType.ORGANIZATION,
            range=EntityType.YEAR,
            functional=True,
            template="{s} was founded in {o}.",
            question_templates=(
                "When was {s} founded?",
            ),
            category="biographical",
        ),
        RelationSpec(
            name="universityCity",
            domain=EntityType.UNIVERSITY,
            range=EntityType.CITY,
            functional=True,
            template="{s} is located in {o}.",
            question_templates=(
                "In which city is {s}?",
            ),
            category="geographic",
        ),
        RelationSpec(
            name="teamCity",
            domain=EntityType.SPORTS_TEAM,
            range=EntityType.CITY,
            functional=True,
            template="{s} is based in {o}.",
            question_templates=(
                "Where is {s} based?",
            ),
            category="geographic",
        ),
    ]
}
