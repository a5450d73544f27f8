"""The per-request records are tuples; the records callers key or replace
stay frozen dataclasses.

``ServiceResponse``, ``LLMResponse`` and ``CallRecord`` are built once or
more per served read, and a frozen dataclass pays one ``object.__setattr__``
per field to build, so they are ``typing.NamedTuple``s.  Each keeps the
contract it had as a frozen dataclass: the same fields in the same order
with the same defaults, positional and keyword construction, no assignment,
equality and hash by value, its properties, and a pickle round-trip.

The census pins which public classes in ``repro`` are tuples at all, so a
new tuple-backed record has to be added to ``support.TUPLE_RECORDS`` (and
so to ``docs/architecture.md``, which ``tests/test_docs.py`` lints).
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import pytest

import repro
from repro.kg import Triple
from repro.llm import CallRecord, LLMResponse
from repro.service import RequestOutcome, ServiceResponse
from repro.validation import ValidationResult
from repro.worldmodel.facts import Fact
from support import TUPLE_RECORDS

_NO_DEFAULT = object()

#: ``(type, ((field, default or _NO_DEFAULT), ...), a full positional
#: argument list, {property: expected value for those arguments})``.
CONTRACTS = [
    (
        ServiceResponse,
        (
            ("outcome", _NO_DEFAULT),
            ("result", _NO_DEFAULT),
            ("cached", _NO_DEFAULT),
            ("latency_seconds", _NO_DEFAULT),
            ("batch_size", 0),
            ("epoch", 0),
            ("epoch_vector", ()),
            ("error", None),
            ("retries", 0),
            ("stale_epoch", None),
            ("trace_id", None),
            ("served_by", None),
            ("staleness_epochs", None),
        ),
        (RequestOutcome.REJECTED, None, False, 0.25, 3, 7, (3, 4), "shed", 1, 2, "t1", "edge", 1),
        {"rejected": True, "ingested": False, "failed": False, "degraded": False},
    ),
    (
        LLMResponse,
        (
            ("text", _NO_DEFAULT),
            ("model", _NO_DEFAULT),
            ("prompt_tokens", _NO_DEFAULT),
            ("completion_tokens", _NO_DEFAULT),
            ("latency_seconds", _NO_DEFAULT),
        ),
        ("TRUE", "gemma2:9b", 11, 2, 0.5),
        {"total_tokens": 13},
    ),
    (
        CallRecord,
        (
            ("model", _NO_DEFAULT),
            ("task", _NO_DEFAULT),
            ("prompt_tokens", _NO_DEFAULT),
            ("completion_tokens", _NO_DEFAULT),
            ("latency_seconds", _NO_DEFAULT),
        ),
        ("gemma2:9b", "dka", 11, 2, 0.5),
        {"total_tokens": 13},
    ),
]


@pytest.mark.parametrize(
    "cls, fields, args, properties", CONTRACTS, ids=[contract[0].__name__ for contract in CONTRACTS]
)
class TestRecordContract:
    def test_fields_keep_their_order_and_defaults(self, cls, fields, args, properties):
        assert cls._fields == tuple(name for name, _ in fields)
        assert cls._field_defaults == {
            name: default for name, default in fields if default is not _NO_DEFAULT
        }
        assert cls.__doc__ and not cls.__doc__.startswith(cls.__name__ + "(")

    def test_positional_and_keyword_construction_agree(self, cls, fields, args, properties):
        by_keyword = cls(**{name: value for (name, _), value in zip(fields, args)})
        assert cls(*args) == by_keyword
        for (name, _), value in zip(fields, args):
            assert getattr(by_keyword, name) == value
        required = [value for (_, default), value in zip(fields, args) if default is _NO_DEFAULT]
        minimal = cls(*required)
        for name, default in fields:
            if default is not _NO_DEFAULT:
                assert getattr(minimal, name) == default

    def test_fields_cannot_be_assigned(self, cls, fields, args, properties):
        record = cls(*args)
        for name, _ in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.unknown = 1

    def test_equality_and_hash_go_by_value(self, cls, fields, args, properties):
        first, second = cls(*args), cls(*args)
        assert first is not second and first == second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1
        changed = cls(*args[:-1], args[-1] + args[-1])
        assert changed != first

    def test_properties(self, cls, fields, args, properties):
        record = cls(*args)
        for name, expected in properties.items():
            assert getattr(record, name) == expected

    def test_pickle_round_trip(self, cls, fields, args, properties):
        record = cls(*args)
        restored = pickle.loads(pickle.dumps(record))
        assert type(restored) is cls and restored == record


def _public_classes():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if inspect.isclass(value) and value.__module__ == module.__name__ and not name.startswith("_"):
                yield value


def test_census_the_tuple_backed_records_are_exactly_the_listed_ones():
    assert all(issubclass(cls, tuple) for cls in TUPLE_RECORDS)
    tuples = {cls for cls in _public_classes() if issubclass(cls, tuple)}
    assert tuples == set(TUPLE_RECORDS)


@pytest.mark.parametrize("cls", [ValidationResult, Fact, Triple], ids=lambda cls: cls.__name__)
def test_keyed_and_replaced_records_stay_frozen_dataclasses(cls):
    """``ValidationResult`` is copied with ``dataclasses.replace``; ``Fact``
    and ``Triple`` are dict keys beside plain tuples, which a tuple-backed
    record would start comparing equal to."""
    assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen
    assert not issubclass(cls, tuple)
