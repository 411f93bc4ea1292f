"""Every module-level function and class in ``src/mirrorint`` has a caller there.

A function or class stays in the package only if a command or a verdict
path uses it; a second algorithm lives in ``tests/`` as an oracle.  The
audit parses the modules (``__init__`` and ``__main__`` aside, since
re-exporting or running a name is not using it) and asks of each
module-level ``def`` that its name is loaded somewhere in them outside its
own body, or that the benchmark's tracer wraps it by name, or that it is a
listed exception; and of each module-level ``class`` that its name is
loaded somewhere in them outside its own body.  No module imports a
private name from a sibling, and one function states the canonical JSON
bytes of a cache file, a manifest and a cache key.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mirrorint"
TRACING = ROOT / "bench" / "tracing.py"

EXCEPTIONS = {
    ("dwork", "harmonic_obstruction"): "the Case II certificate work (ROADMAP item 3) decides",
    ("dwork", "obstruction_ratio"): "the Case II certificate work (ROADMAP item 3) decides",
    ("dwork", "landau_negative_witness"): "the Case II certificate work (ROADMAP item 3) decides",
    ("landau", "in_jump_region"): "the public check of a Case II witness; tests and demo 01 use it",
}


def _modules():
    return {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem not in ("__init__", "__main__")
    }


def _traced():
    """The (module, name) pairs of the tracer's ``TARGETS``, read without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    raise AssertionError("bench/tracing.py defines no TARGETS")


def _callers(modules):
    """For each loaded name, the (module, owner) pairs that load it, the owner
    being the module-level def or class around the load (None elsewhere)."""
    out = {}
    for module, tree in modules.items():
        for stmt in tree.body:
            owner = (module, getattr(stmt, "name", None))
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                    out.setdefault(getattr(node, "id", None) or node.attr, set()).add(owner)
    return out


def _defs(modules, kind=ast.FunctionDef):
    for module, tree in modules.items():
        for stmt in tree.body:
            if isinstance(stmt, kind):
                yield module, stmt.name


def _unloaded_classes(modules):
    callers = _callers(modules)
    return [
        f"{module}.{name}"
        for module, name in _defs(modules, ast.ClassDef)
        if not callers.get(name, set()) - {(module, name)}
    ]


def test_every_module_level_function_has_a_caller():
    modules = _modules()
    callers, traced = _callers(modules), _traced()
    orphans = [
        f"{module}.{name}"
        for module, name in _defs(modules)
        if not callers.get(name, set()) - {(module, name)}
        and (module, name) not in traced
        and (module, name) not in EXCEPTIONS
    ]
    assert orphans == []


def test_every_exception_is_a_function_with_no_caller():
    modules = _modules()
    callers, defs = _callers(modules), set(_defs(modules))
    for (module, name), reason in EXCEPTIONS.items():
        assert reason and (module, name) in defs, f"{module}.{name} is gone"
        assert not callers.get(name, set()) - {(module, name)}, f"{module}.{name} has a caller"


def test_every_module_level_class_is_loaded_outside_its_body():
    assert _unloaded_classes(_modules()) == []


def test_the_class_audit_flags_a_class_only_its_own_body_loads():
    # a class whose only loads are in its own methods is flagged
    orphan = """
class UnusedPair:
    @classmethod
    def pure(cls, regular):
        return UnusedPair(regular, None)
"""
    modules = _modules() | {"extra": ast.parse(orphan)}
    assert _unloaded_classes(modules) == ["extra.UnusedPair"]


def _private_imports(path):
    """The ``_``-prefixed names that ``path`` imports from a mirrorint module."""
    return [
        f"{path.stem}: {node.module}.{alias.name}"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("mirrorint"))
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_no_module_imports_a_private_name_from_a_sibling():
    # a series' integer form, for one, stays behind ``series``
    assert [name for path in sorted(PACKAGE.glob("*.py")) for name in _private_imports(path)] == []


def _canonical_dumps(modules):
    """(module, function) of each ``json.dumps(..., separators=(",", ":"),
    sort_keys=True)`` call: compact JSON with sorted keys."""
    out = []
    for module, tree in modules.items():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "dumps"):
                    continue
                kwargs = {k.arg: k.value for k in node.keywords}
                if ("separators" in kwargs and "sort_keys" in kwargs
                        and ast.literal_eval(kwargs["separators"]) == (",", ":")
                        and ast.literal_eval(kwargs["sort_keys"]) is True):
                    out.append((module, getattr(stmt, "name", None)))
    return out


def test_canonical_json_is_written_in_one_place():
    modules = {path.stem: ast.parse(path.read_text(), str(path))
               for path in sorted(PACKAGE.glob("*.py"))}
    assert _canonical_dumps(modules) == [("series", "canonical")]


def test_the_canonical_json_audit_flags_a_second_writer():
    second = """
import json

def manifest_bytes(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
"""
    modules = _modules() | {"extra": ast.parse(second)}
    assert sorted(_canonical_dumps(modules)) == [
        ("extra", "manifest_bytes"), ("series", "canonical")
    ]
