"""The surface of ``src/repro`` is what a production path reaches.

An AST walk lists every top-level function and class in ``src/repro`` and
every public method of those classes, and counts the uses of each name in
``src/``, ``benchmarks/`` and ``examples/``, outside the statement that
defines it: a ``Name`` or an ``Attribute`` node for a top-level definition,
an ``Attribute`` node only for a method (a local variable of the same name
is not a call).  Imports and ``__all__`` strings are not uses.  Tests do
not count: a helper only the tests call lives in ``tests/``.

A definition with no use fails the census unless ``ALLOWED`` names it with a
one-line reason; an ``ALLOWED`` name that is used again, or no longer exists,
fails it too, so the list cannot go stale.  Matching is by name, so two
methods sharing a name shield each other: delete the one nothing calls by
hand.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE_ROOT = REPO_ROOT / "src"
PRODUCTION_DIRS = (REPO_ROOT / "src", REPO_ROOT / "benchmarks", REPO_ROOT / "examples")

#: Definitions nothing under ``PRODUCTION_DIRS`` names, each kept for a reason.
ALLOWED: Dict[str, str] = {
    "repro.benchmark.experiments.paper_document":
        "generates BENCH_paper.json; tests/test_paper_pin.py re-derives and compares it",
    "repro.store.geosync.GeoReplicator.resume":
        "operator recovery: restart the primary from a save (docs/operations.md, heal or evict)",
    "repro.store.geosync.GeoReplicator.adopt_edge":
        "operator recovery: re-attach an edge reloaded after a crash (docs/operations.md)",
    "repro.chaos.__getattr__":
        "module __getattr__: Python calls it for the lazily imported scenario names",
    "repro.store.segment._CheckpointUnpickler.find_class":
        "pickle.Unpickler hook: the unpickler calls it for every global a checkpoint names",
}


def _module_name(path: Path, source_root: Path) -> str:
    parts = list(path.relative_to(source_root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _uses(tree: ast.AST) -> Tuple[Counter, Counter]:
    """``(bare names, attribute names)`` appearing in ``tree``, counted."""
    names: Counter = Counter()
    attributes: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attributes[node.attr] += 1
    return names, attributes


def _definitions(tree: ast.Module, module: str):
    """``(qualified name, bare name, defining node, is a method)`` for the
    census."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield f"{module}.{node.name}", node.name, node, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, kinds[:2]) and not member.name.startswith("_"):
                    yield f"{module}.{node.name}.{member.name}", member.name, member, True


def census(source_root: Path, package: str, user_dirs: Iterable[Path]) -> Dict[str, bool]:
    """Every qualified name under ``source_root/package``, mapped to whether
    a file under ``user_dirs`` uses it outside its own definition."""
    names: Counter = Counter()
    attributes: Counter = Counter()
    for directory in user_dirs:
        for path in sorted(directory.rglob("*.py")):
            file_names, file_attributes = _uses(ast.parse(path.read_text(encoding="utf-8")))
            names += file_names
            attributes += file_attributes
    reached = {}
    for path in sorted((source_root / package).rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualified, name, node, method in _definitions(tree, _module_name(path, source_root)):
            own_names, own_attributes = _uses(node)
            uses = attributes[name] - own_attributes[name]
            if not method:
                uses += names[name] - own_names[name]
            reached[qualified] = uses > 0
    return reached


def problems(reached: Mapping[str, bool], allowed: Mapping[str, str]) -> List[str]:
    """Why the census fails, one line each (empty when it passes)."""
    found = [
        f"{name}: nothing in src/, benchmarks/ or examples/ uses it; delete it, "
        "move it into tests/, or add it to ALLOWED with a reason"
        for name in sorted(reached)
        if not reached[name] and name not in allowed
    ]
    for name in sorted(allowed):
        if name not in reached:
            found.append(f"{name}: on ALLOWED but no longer defined; drop the entry")
        elif reached[name]:
            found.append(f"{name}: on ALLOWED but now used; drop the entry")
    return found


def test_every_definition_is_reached_or_allowed_and_the_list_is_current():
    assert problems(census(SOURCE_ROOT, "repro", PRODUCTION_DIRS), ALLOWED) == []


def test_every_allowed_entry_has_a_one_line_reason():
    for name, reason in ALLOWED.items():
        assert reason.strip() and "\n" not in reason, name


def _tree(tmp_path: Path, files: Mapping[str, str]) -> Path:
    for relative, text in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return tmp_path


def _problems_in(root: Path, allowed: Mapping[str, str]) -> List[str]:
    return problems(census(root / "src", "pkg", [root / "src", root / "examples"]), allowed)


_LIBRARY = '''
__all__ = ["used", "spare"]


def used():
    return used  # its own body is not a use


class Box:
    def put(self):
        pass

    def _private(self):
        pass


def spare():
    pass
'''


def test_the_census_fails_on_an_unreached_definition(tmp_path):
    root = _tree(tmp_path, {
        "src/pkg/__init__.py": "from .lib import Box, spare, used\n",
        "src/pkg/lib.py": _LIBRARY,
        "examples/demo.py": "from pkg import Box, used\nused()\nBox().put()\n",
    })
    assert _problems_in(root, {"pkg.lib.spare": "kept for a reason"}) == []
    # A new public function nothing calls fails, whatever __all__ says.
    assert [line.split(":")[0] for line in _problems_in(root, {})] == ["pkg.lib.spare"]
    # So does a definition whose last caller goes.
    (root / "examples/demo.py").write_text("from pkg import Box\nBox().put()\n")
    assert [line.split(":")[0] for line in _problems_in(root, {"pkg.lib.spare": "r"})] == [
        "pkg.lib.used"
    ]


def test_only_an_attribute_use_reaches_a_method(tmp_path):
    root = _tree(tmp_path, {
        "src/pkg/__init__.py": "from .lib import Box, spare, used\n",
        "src/pkg/lib.py": _LIBRARY,
        "examples/demo.py": "from pkg import Box, spare, used\nused(); spare()\nput = Box()\n",
    })
    # A local variable named like the method does not call it ...
    assert [line.split(":")[0] for line in _problems_in(root, {})] == ["pkg.lib.Box.put"]
    # ... an attribute use does.
    (root / "examples/demo.py").write_text(
        "from pkg import Box, spare, used\nused(); spare()\nBox().put()\n"
    )
    assert _problems_in(root, {}) == []


def test_the_census_fails_on_a_stale_allowed_entry(tmp_path):
    root = _tree(tmp_path, {
        "src/pkg/__init__.py": "",
        "src/pkg/lib.py": _LIBRARY,
        "examples/demo.py": "from pkg.lib import Box, used, spare\nused(); spare(); Box().put()\n",
    })
    reasons = _problems_in(root, {"pkg.lib.spare": "r", "pkg.lib.gone": "r"})
    assert reasons == [
        "pkg.lib.gone: on ALLOWED but no longer defined; drop the entry",
        "pkg.lib.spare: on ALLOWED but now used; drop the entry",
    ]
