"""Every setting in ``repro`` is one a production call sets.

Two AST censuses, over ``src/repro``, count what calls in ``src/``,
``benchmarks/`` and ``examples/`` pass.  Tests do not count: a setting only a
test changes is a module constant the test monkeypatches, not a parameter or
a field.

*Parameters.*  Every defaulted parameter of every public top-level function,
public class constructor and public method (names starting with ``_`` are
private and skipped) counts as passed when a call passes it by keyword, by
position, through ``*args``, or through a ``**`` (see below).

*Fields.*  Every defaulted field of every frozen dataclass counts as set when
a call to the class passes it by keyword or position, or a
``dataclasses.replace`` call passes it by keyword (``replace`` reaches every
class with a field of that name).  A mutable dataclass holds state, not
settings, and is out of scope; so are the blocks ``chaos/scenario.py``'s
``_build`` loads, whose fields are the documented scenario-file keys.

Calls match by name, as in ``tests/test_public_surface.py``: ``f(...)`` and
``x.f(...)`` both reach every function or method named ``f``, ``C(...)``
reaches ``C.__init__`` (or dataclass ``C``'s fields), and inside a class
``cls(...)`` reaches that class and ``super().__init__(...)`` its first
base's ``__init__``.

A ``**`` passes the keys of the dict literal it spreads (``{"k": v}`` or
``dict(k=v)``) when the census can find it: written out in the call, bound
to a name in the same function or at module level (any module's, matched by
name, so ``**spec.SUBSTRATE`` finds ``SUBSTRATE = dict(...)``), or the
target of a ``for`` loop over a list of such literals.  A ``**`` it cannot
resolve passes everything.

A setting no call passes fails the census unless ``ALLOWED`` names it with a
one-line reason; an ``ALLOWED`` entry that a call now passes, or that no
longer exists, fails it too.

What the name match cannot see: a setting that every call passes only a
value nobody sets — ``config=primary.config`` handing on a default that no
production path ever changed, or a constructor copying one object's fields
into another — counts as set.  Such a chain has to be followed by hand.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import (
    Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Set, Tuple,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE_ROOT = REPO_ROOT / "src"
PRODUCTION_DIRS = (REPO_ROOT / "src", REPO_ROOT / "benchmarks", REPO_ROOT / "examples")

#: The scenario-file loader, relative to the package root: the dataclasses
#: it builds from YAML blocks are exempt from the field census.
SCHEMA_LOADER = ("chaos/scenario.py", "_build")

#: Defaulted parameters and fields no production call sets, each kept for a
#: reason.
ALLOWED: Dict[str, str] = {
    "repro.benchmark.cli.main(stream)":
        "tests capture the CLI's output in a buffer; the console entry point writes to stdout",
    "repro.datasets.dbpedia.build_dbpedia(scale)":
        "the runner passes it through _DATASET_BUILDERS, a call the name match cannot see",
    "repro.datasets.factbench.build_factbench(scale)":
        "the runner passes it through _DATASET_BUILDERS, a call the name match cannot see",
    "repro.datasets.yago.build_yago(scale)":
        "the runner passes it through _DATASET_BUILDERS, a call the name match cannot see",
    "repro.obs.slo.SLO.__init__(rules)":
        "alert tests hold two SLOs with different burn rules in one manager; a constant cannot",
    "repro.service.router.ShardedValidationService.from_runner(queue_dir)":
        "a deployment path: where the durable edge queues live; tests pass a temporary directory",
    "repro.store.geosync.GeoReplicator.drain(shard_index)":
        "crash-mid-drain tests stop a drain at one shard; no production seam can",
    "repro.store.geosync.GeoReplicator.drain(max_batches)":
        "crash-mid-drain tests stop a drain partway; no production seam can",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


class _Knob:
    """One defaulted parameter: where a call can pass it."""

    def __init__(self, qualified: str, name: str, position: Optional[int]) -> None:
        self.qualified = qualified
        self.name = name
        #: Index among the positional arguments a call writes (``self`` and
        #: ``cls`` excluded); ``None`` for a keyword-only parameter.
        self.position = position


def _module_name(path: Path, source_root: Path) -> str:
    parts = list(path.relative_to(source_root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _is_staticmethod(node: ast.AST) -> bool:
    return any(
        isinstance(decorator, ast.Name) and decorator.id == "staticmethod"
        for decorator in node.decorator_list
    )


def _knobs(node: ast.AST, qualified: str, bound: bool) -> Iterator[_Knob]:
    """The defaulted parameters of one function; ``bound`` drops the
    ``self``/``cls`` a call does not write."""
    args = node.args
    positional = args.posonlyargs + args.args
    offset = 1 if bound else 0
    first_default = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional):
        if index >= first_default:
            yield _Knob(f"{qualified}({arg.arg})", arg.arg, index - offset)
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield _Knob(f"{qualified}({arg.arg})", arg.arg, None)


def definitions(source_root: Path, package: str) -> Dict[str, List[_Knob]]:
    """Callable name -> the defaulted parameters of every public definition
    under ``source_root/package`` answering to that name (a class answers
    for its ``__init__``)."""
    found: Dict[str, List[_Knob]] = {}
    for path in sorted((source_root / package).rglob("*.py")):
        module = _module_name(path, source_root)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if isinstance(node, _FUNCTIONS):
                found.setdefault(node.name, []).extend(
                    _knobs(node, f"{module}.{node.name}", bound=False)
                )
            elif isinstance(node, ast.ClassDef):
                for member in node.body:
                    if not isinstance(member, _FUNCTIONS):
                        continue
                    qualified = f"{module}.{node.name}.{member.name}"
                    bound = not _is_staticmethod(member)
                    if member.name == "__init__":
                        found.setdefault(node.name, []).extend(
                            _knobs(member, qualified, bound)
                        )
                    elif not member.name.startswith("_"):
                        found.setdefault(member.name, []).extend(
                            _knobs(member, qualified, bound)
                        )
    return found


def _call_target(call: ast.Call, owner: Optional[ast.ClassDef]) -> Optional[str]:
    """The name a call is matched by (see the module docstring)."""
    func = call.func
    if isinstance(func, ast.Name):
        if func.id == "cls" and owner is not None:
            return owner.name
        return func.id
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr == "__init__":
        receiver = func.value
        is_super = (
            isinstance(receiver, ast.Call)
            and isinstance(receiver.func, ast.Name)
            and receiver.func.id == "super"
        )
        if is_super and owner is not None and owner.bases:
            base = owner.bases[0]
            return base.id if isinstance(base, ast.Name) else None
        return None
    return func.attr


#: The keys a ``**`` spreads; ``None`` when the census cannot resolve them.
Keys = Optional[FrozenSet[str]]


def _dict_keys(node: ast.AST) -> Keys:
    """The keys of a dict literal, ``{"k": v}`` or ``dict(k=v)``; ``None``
    for anything else, a literal that spreads another included."""
    if isinstance(node, ast.Dict):
        keys = [key.value if isinstance(key, ast.Constant) else None for key in node.keys]
        if all(isinstance(key, str) for key in keys):
            return frozenset(keys)
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "dict"
        and not node.args
        and all(keyword.arg is not None for keyword in node.keywords)
    ):
        return frozenset(keyword.arg for keyword in node.keywords)
    return None


def _rows_keys(node: ast.AST) -> Keys:
    """The union of the keys of a list or tuple of dict literals."""
    if not isinstance(node, (ast.List, ast.Tuple)) or not node.elts:
        return None
    keys = [_dict_keys(element) for element in node.elts]
    if any(key is None for key in keys):
        return None
    return frozenset().union(*keys)


class _Scope:
    """The names one module or function binds to dict literals (``dicts``)
    and to lists of them (``rows``), on top of its enclosing scope's."""

    def __init__(self, node: ast.AST, outer: Optional["_Scope"] = None) -> None:
        self.dicts: Dict[str, FrozenSet[str]] = dict(outer.dicts) if outer else {}
        self.rows: Dict[str, FrozenSet[str]] = dict(outer.rows) if outer else {}
        statements = list(ast.walk(node)) if isinstance(node, _FUNCTIONS) else node.body
        for statement in statements:
            if isinstance(statement, ast.Assign):
                targets, value = statement.targets, statement.value
            elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
                targets, value = [statement.target], statement.value
            else:
                continue
            dict_keys, rows_keys = _dict_keys(value), _rows_keys(value)
            for target in targets:
                if isinstance(target, ast.Name) and dict_keys is not None:
                    self.dicts[target.id] = dict_keys
                if isinstance(target, ast.Name) and rows_keys is not None:
                    self.rows[target.id] = rows_keys
        for statement in statements:
            if isinstance(statement, ast.For) and isinstance(statement.target, ast.Name):
                rows = statement.iter
                keys = self.rows.get(rows.id) if isinstance(rows, ast.Name) else _rows_keys(rows)
                if keys is not None:
                    self.dicts[statement.target.id] = keys


def _calls(
    tree: ast.AST, scope: _Scope, owner: Optional[ast.ClassDef] = None
) -> Iterator[Tuple[str, ast.Call, _Scope]]:
    """``(target name, call, scope)`` for every call in ``tree``, each
    matched in the class and resolved in the function it sits in."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _calls(node, scope, owner=node)
            continue
        if isinstance(node, _FUNCTIONS):
            yield from _calls(node, _Scope(node, scope), owner)
            continue
        if isinstance(node, ast.Call):
            target = _call_target(node, owner)
            if target is not None:
                yield target, node, scope
        yield from _calls(node, scope, owner)


Spread = Callable[[ast.AST], Keys]


def _user_calls(user_dirs: Iterable[Path]) -> Iterator[Tuple[str, ast.Call, Spread]]:
    """Every call under ``user_dirs`` with the resolver of its ``**`` spreads."""
    trees = [
        ast.parse(path.read_text(encoding="utf-8"))
        for directory in user_dirs
        for path in sorted(directory.rglob("*.py"))
    ]
    modules = [_Scope(tree) for tree in trees]
    module_dicts: Dict[str, FrozenSet[str]] = {}
    for module in modules:
        module_dicts.update(module.dicts)
    for tree, module in zip(trees, modules):
        for target, call, scope in _calls(tree, module):

            def spread(node: ast.AST, scope: _Scope = scope) -> Keys:
                if isinstance(node, ast.Name):
                    return scope.dicts.get(node.id, module_dicts.get(node.id))
                if isinstance(node, ast.Attribute):
                    return module_dicts.get(node.attr)
                return _dict_keys(node)

            yield target, call, spread


def _passes(call: ast.Call, knob: _Knob, spread: Spread, by_position: bool = True) -> bool:
    if by_position and knob.position is not None and (
        len(call.args) > knob.position
        or any(isinstance(arg, ast.Starred) for arg in call.args)  # fills any position
    ):
        return True
    for keyword in call.keywords:
        if keyword.arg == knob.name:
            return True
        if keyword.arg is None:
            keys = spread(keyword.value)
            if keys is None or knob.name in keys:
                return True
    return False


def census(source_root: Path, package: str, user_dirs: Iterable[Path]) -> Dict[str, bool]:
    """Every defaulted parameter under ``source_root/package``, mapped to
    whether a call under ``user_dirs`` passes it."""
    knobs = definitions(source_root, package)
    passed = {knob.qualified: False for group in knobs.values() for knob in group}
    for target, call, spread in _user_calls(user_dirs):
        for knob in knobs.get(target, ()):
            if not passed[knob.qualified] and _passes(call, knob, spread):
                passed[knob.qualified] = True
    return passed


def _is_true(node: Optional[ast.AST]) -> bool:
    return isinstance(node, ast.Constant) and node.value is True


def _frozen_dataclass(node: ast.ClassDef) -> Optional[bool]:
    """``kw_only`` of a ``@dataclass(frozen=True, ...)`` class; ``None`` for
    any other class."""
    for decorator in node.decorator_list:
        if (
            isinstance(decorator, ast.Call)
            and isinstance(decorator.func, ast.Name)
            and decorator.func.id == "dataclass"
        ):
            options = {keyword.arg: keyword.value for keyword in decorator.keywords}
            if _is_true(options.get("frozen")):
                return _is_true(options.get("kw_only"))
    return None


def dataclass_fields(source_root: Path, package: str) -> Dict[str, List[_Knob]]:
    """Class name -> the defaulted fields of every frozen dataclass under
    ``source_root/package`` of that name, with their ``__init__`` positions."""
    found: Dict[str, List[_Knob]] = {}
    for path in sorted((source_root / package).rglob("*.py")):
        module = _module_name(path, source_root)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef):
                continue
            kw_only = _frozen_dataclass(node)
            if kw_only is None:
                continue
            position = 0
            for statement in node.body:
                if not (
                    isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name)
                ):
                    continue
                value = statement.value
                is_field = (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id == "field"
                )
                options = {
                    keyword.arg: keyword.value for keyword in (value.keywords if is_field else ())
                }
                index: Optional[int] = None
                if not (kw_only or _is_true(options.get("kw_only"))):
                    index, position = position, position + 1
                if value is not None and (
                    not is_field or "default" in options or "default_factory" in options
                ):
                    name = statement.target.id
                    found.setdefault(node.name, []).append(
                        _Knob(f"{module}.{node.name}.{name}", name, index)
                    )
    return found


def schema_blocks(source_root: Path, package: str) -> Set[str]:
    """The classes ``SCHEMA_LOADER`` builds from scenario-file blocks: the
    first argument of every call to it."""
    relative, loader = SCHEMA_LOADER
    path = source_root / package / relative
    if not path.exists():
        return set()
    return {
        node.args[0].id
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == loader
        and node.args
        and isinstance(node.args[0], ast.Name)
    }


def field_census(source_root: Path, package: str, user_dirs: Iterable[Path]) -> Dict[str, bool]:
    """Every defaulted field of a frozen dataclass under
    ``source_root/package`` outside the scenario schema, mapped to whether a
    call under ``user_dirs`` sets it."""
    classes = dataclass_fields(source_root, package)
    for name in schema_blocks(source_root, package):
        classes.pop(name, None)
    everything = [knob for group in classes.values() for knob in group]
    passed = {knob.qualified: False for knob in everything}
    for target, call, spread in _user_calls(user_dirs):
        reached = [(knob, True) for knob in classes.get(target, ())]
        if target == "replace":
            reached += [(knob, False) for knob in everything]
        for knob, by_position in reached:
            if not passed[knob.qualified] and _passes(call, knob, spread, by_position):
                passed[knob.qualified] = True
    return passed


def problems(passed: Mapping[str, bool], allowed: Mapping[str, str]) -> List[str]:
    """Why the census fails, one line each (empty when it passes)."""
    found = [
        f"{name}: no call in src/, benchmarks/ or examples/ sets it; make it a "
        "module constant (tests monkeypatch it), delete it, or add it to ALLOWED with a reason"
        for name in sorted(passed)
        if not passed[name] and name not in allowed
    ]
    for name in sorted(allowed):
        if name not in passed:
            found.append(f"{name}: on ALLOWED but no longer defined; drop the entry")
        elif passed[name]:
            found.append(f"{name}: on ALLOWED but now set; drop the entry")
    return found


def test_every_parameter_and_field_is_set_by_a_production_call_or_allowed():
    settings = {
        **census(SOURCE_ROOT, "repro", PRODUCTION_DIRS),
        **field_census(SOURCE_ROOT, "repro", PRODUCTION_DIRS),
    }
    assert problems(settings, ALLOWED) == []


def test_every_allowed_entry_has_a_one_line_reason():
    for name, reason in ALLOWED.items():
        assert reason.strip() and "\n" not in reason, name


def test_the_store_engine_takes_no_tuning_parameters(tmp_path):
    """What the census replaced: the rebuild thresholds and the segment
    engine's settings are module constants, not parameters or file keys."""
    import inspect

    import repro.store
    from repro.store import (
        GeoReplicator,
        MutationLog,
        PageCache,
        SegmentReader,
        SegmentWriter,
        ShardedStore,
        VersionedKnowledgeStore,
        atomic_write,
    )

    def parameters(function) -> List[str]:
        return [name for name in inspect.signature(function).parameters if name != "self"]

    assert not hasattr(repro.store, "StoreConfig")
    assert parameters(VersionedKnowledgeStore.save) == ["path", "format"]
    for function in (
        VersionedKnowledgeStore.__init__, VersionedKnowledgeStore.bootstrap,
        VersionedKnowledgeStore.adopt, VersionedKnowledgeStore.replay,
        ShardedStore.partition,
    ):
        assert "config" not in parameters(function), function.__qualname__
    for function in (VersionedKnowledgeStore.load, ShardedStore.load, ShardedStore.partition):
        assert "embedder" not in parameters(function), function.__qualname__
    assert parameters(SegmentWriter) == ["path", "floor_epoch"]
    assert parameters(SegmentReader.open) == ["path"]
    assert parameters(PageCache) == []
    assert parameters(MutationLog.save) == ["path"]
    MutationLog().save(str(tmp_path / "log.jsonl"))
    assert type(MutationLog.load(str(tmp_path / "log.jsonl"))) is MutationLog
    assert parameters(atomic_write) == ["path"]
    assert parameters(GeoReplicator.drain_all) == []


def _tree(tmp_path: Path, files: Mapping[str, str]) -> Path:
    for relative, text in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return tmp_path


def _problems_in(root: Path, allowed: Mapping[str, str]) -> List[str]:
    return [
        line.split(":")[0]
        for line in problems(
            census(root / "src", "pkg", [root / "src", root / "examples"]), allowed
        )
    ]


_LIBRARY = '''
class Base:
    def __init__(self, floor=0):
        self.floor = floor


class Box(Base):
    def __init__(self, size=1, *, label=""):
        super().__init__(floor=1)

    @classmethod
    def make(cls, size):
        return cls(size)

    @staticmethod
    def tune(level=6, depth=2):
        return level

    def _private(self, knob=3):
        return knob


def spare(path, mode="w"):
    return path
'''


def test_a_parameter_no_call_passes_fails_unless_allowed(tmp_path):
    root = _tree(tmp_path, {
        "src/pkg/lib.py": _LIBRARY,
        "examples/demo.py": "from pkg.lib import Box\nBox.tune(3, depth=1)\nBox(label='x')\n",
    })
    # ``cls(size)`` reaches Box.__init__ by position, ``super().__init__``
    # reaches Base's; private methods are not counted.
    assert _problems_in(root, {}) == ["pkg.lib.spare(mode)"]
    assert _problems_in(root, {"pkg.lib.spare(mode)": "a reason"}) == []
    (root / "examples/demo.py").write_text("from pkg.lib import Box, spare\nspare('p', 'a')\n")
    assert _problems_in(root, {}) == [
        "pkg.lib.Box.__init__(label)", "pkg.lib.Box.tune(depth)", "pkg.lib.Box.tune(level)",
    ]


def test_a_stale_allowed_entry_fails(tmp_path):
    root = _tree(tmp_path, {
        "src/pkg/lib.py": _LIBRARY,
        "examples/demo.py": (
            "from pkg.lib import Box, spare\n"
            "Box.tune(*args)\nBox(**options)\nspare('p', mode='a')\n"
        ),
    })
    assert _problems_in(root, {"pkg.lib.spare(mode)": "r", "pkg.lib.gone(knob)": "r"}) == [
        "pkg.lib.gone(knob)", "pkg.lib.spare(mode)",
    ]


_DATACLASSES = """
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Box:
    name: str = field()
    size: int = 1
    label: str = ""
    tags: tuple = field(default_factory=tuple)
    depth: int = 0
    color: str = "red"
    shape: str = field(default="cube", kw_only=True)


@dataclass(frozen=True, kw_only=True)
class Sealed:
    size: int = 1


@dataclass
class State:
    count: int = 0


@dataclass(eq=False)
class Tally:
    hits: int = 0
"""

_SCENARIO = """
from dataclasses import dataclass


@dataclass(frozen=True)
class Block:
    retries: int = 3


def _build(cls, raw):
    return cls(**raw)


def load(raw):
    return _build(Block, raw)
"""


def _unset_fields(tmp_path: Path, demo: str, **modules: str) -> List[str]:
    files = {"src/pkg/lib.py": _DATACLASSES, "src/pkg/chaos/scenario.py": _SCENARIO}
    files.update({f"src/pkg/{name}.py": text for name, text in modules.items()})
    root = _tree(tmp_path, {**files, "examples/demo.py": demo})
    passed = field_census(root / "src", "pkg", [root / "src", root / "examples"])
    return sorted(name.removeprefix("pkg.lib.") for name, is_set in passed.items() if not is_set)


_ALL_FIELDS = [
    "Box.color", "Box.depth", "Box.label", "Box.shape", "Box.size", "Box.tags", "Sealed.size",
]


def test_the_field_census_counts_frozen_dataclasses_outside_the_scenario_schema(tmp_path):
    # ``name`` has no default, ``State`` and ``Tally`` are mutable and
    # ``Block`` is a block ``chaos/scenario.py``'s ``_build`` loads: none of
    # them is a setting.
    assert _unset_fields(tmp_path, "") == _ALL_FIELDS


def test_a_field_is_set_by_keyword_or_position(tmp_path):
    # Box("n", 2, "a") fills name, size and label; ``shape`` and every
    # field of the kw_only Sealed can only be passed by keyword.
    demo = "Box('n', 2, 'a', shape='ball')\nSealed(5)\nBox('m', depth=1)\n"
    assert _unset_fields(tmp_path, demo) == ["Box.color", "Box.tags", "Sealed.size"]
    assert _unset_fields(tmp_path, "Box(*parts)\n") == ["Box.shape", "Sealed.size"]


def test_replace_sets_its_keywords_on_every_class_with_that_field(tmp_path):
    # Only keywords: replace's positional arguments are the object itself.
    demo = "from dataclasses import replace\nreplace(box, 4, 5, size=3)\n"
    assert _unset_fields(tmp_path, demo) == [
        "Box.color", "Box.depth", "Box.label", "Box.shape", "Box.tags",
    ]


def test_a_resolved_spread_sets_only_its_keys(tmp_path):
    demo = (
        "from dataclasses import replace\n"
        "from pkg import settings\n"
        "LABELS = {'label': 'x'}\n"
        "Box(**settings.SIZES)\n"
        "Box(**LABELS)\n"
        "Box(**{'shape': 'ball'})\n"
        "def sweep(base):\n"
        "    variants = [{'depth': 1}, {'depth': 2, 'tags': ()}]\n"
        "    for variant in variants:\n"
        "        replace(base, **variant)\n"
    )
    unset = _unset_fields(tmp_path, demo, settings="SIZES = dict(size=3)\n")
    assert unset == ["Box.color", "Sealed.size"]


def test_an_unresolved_spread_sets_everything_it_can_reach(tmp_path):
    assert _unset_fields(tmp_path, "Box(**load())\n") == ["Sealed.size"]
    demo = "from dataclasses import replace\nreplace(box, **load())\n"
    assert _unset_fields(tmp_path, demo) == []
