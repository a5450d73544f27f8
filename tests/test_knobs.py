"""Every defaulted parameter in ``repro`` is one a production call sets.

An AST walk lists every defaulted parameter of every public top-level
function, public class constructor and public method under ``src/repro``
(names starting with ``_`` are private and skipped), and
counts the calls in ``src/``, ``benchmarks/`` and ``examples/`` that pass it:
by keyword, by position, or through ``*args`` / ``**kwargs``.  Tests do not
count: a setting only a test changes is a module constant the test
monkeypatches, not a parameter.

Calls match by name, as in ``tests/test_public_surface.py``: ``f(...)`` and
``x.f(...)`` both reach every function or method named ``f``, ``C(...)``
reaches ``C.__init__``, and inside a class ``cls(...)`` reaches that class's
``__init__`` and ``super().__init__(...)`` its first base's.

A parameter no call passes fails the census unless ``ALLOWED`` names it with
a one-line reason; an ``ALLOWED`` entry that a call now passes, or that no
longer exists, fails it too.

What the name match cannot see: a parameter that every call passes only a
value nobody sets — ``config=primary.config`` handing on a default that no
production path ever changed — counts as set.  Such a chain has to be
followed by hand.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE_ROOT = REPO_ROOT / "src"
PRODUCTION_DIRS = (REPO_ROOT / "src", REPO_ROOT / "benchmarks", REPO_ROOT / "examples")

#: Defaulted parameters no production call passes, each kept for a reason.
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
    "repro.validation.pipeline.ParallelValidationPipeline.__init__(progress)":
        "the progress hook of a long grid run; tests pin its callback contract",
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


def _calls(
    tree: ast.AST, owner: Optional[ast.ClassDef] = None
) -> Iterator[Tuple[str, ast.Call]]:
    """``(target name, call)`` for every call in ``tree``, each matched in
    the class it sits in."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _calls(node, owner=node)
            continue
        if isinstance(node, ast.Call):
            target = _call_target(node, owner)
            if target is not None:
                yield target, node
        yield from _calls(node, owner)


def _passes(call: ast.Call, knob: _Knob) -> bool:
    if knob.position is not None and (
        len(call.args) > knob.position
        or any(isinstance(arg, ast.Starred) for arg in call.args)  # fills any position
    ):
        return True
    return any(
        keyword.arg is None or keyword.arg == knob.name for keyword in call.keywords
    )


def census(source_root: Path, package: str, user_dirs: Iterable[Path]) -> Dict[str, bool]:
    """Every defaulted parameter under ``source_root/package``, mapped to
    whether a call under ``user_dirs`` passes it."""
    knobs = definitions(source_root, package)
    passed = {knob.qualified: False for group in knobs.values() for knob in group}
    for directory in user_dirs:
        for path in sorted(directory.rglob("*.py")):
            for target, call in _calls(ast.parse(path.read_text(encoding="utf-8"))):
                for knob in knobs.get(target, ()):
                    if not passed[knob.qualified] and _passes(call, knob):
                        passed[knob.qualified] = True
    return passed


def problems(passed: Mapping[str, bool], allowed: Mapping[str, str]) -> List[str]:
    """Why the census fails, one line each (empty when it passes)."""
    found = [
        f"{name}: no call in src/, benchmarks/ or examples/ passes it; make it a "
        "module constant (tests monkeypatch it) or add it to ALLOWED with a reason"
        for name in sorted(passed)
        if not passed[name] and name not in allowed
    ]
    for name in sorted(allowed):
        if name not in passed:
            found.append(f"{name}: on ALLOWED but no longer defined; drop the entry")
        elif passed[name]:
            found.append(f"{name}: on ALLOWED but now passed; drop the entry")
    return found


def test_every_parameter_is_set_by_a_production_call_or_allowed():
    assert problems(census(SOURCE_ROOT, "repro", PRODUCTION_DIRS), ALLOWED) == []


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
