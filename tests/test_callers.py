"""Every public name in labelloop has a caller outside the tests.

A public name is a module-level name bound in ``src/labelloop/*.py``, or a
method of a public class there, that does not start with ``_``. It counts as
called when a name, an attribute or a string constant in ``src/`` or in
``perfbench/`` (its tests aside) spells it outside its own definition and
outside ``__all__``; a method counts only as an attribute or a string.
Matching goes by spelling alone, so this is a floor on dead code, not a call
graph.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "labelloop"

# public names no code path of the loop calls, each with its reason to exist
ALLOWED = {
    "protocol.Hub.fail_next_ingests":
        "fault injection behind the retry and idempotency tests",
    "protocol.Hub.records":
        "the typed read of the store that the acceptance checks use",
    "monitoring.replay_events":
        "the (k, h) tuning harness behind criterion 5 and monitoring's numbers",
}


def _bound_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def public_definitions(path: Path):
    """(qualified name, name, defining node, whether a method) for each
    public definition."""
    for node in ast.parse(path.read_text("utf-8")).body:
        for name in _bound_names(node):
            if name.startswith("_"):
                continue
            yield f"{path.stem}.{name}", name, node, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not item.name.startswith("_")):
                        yield f"{path.stem}.{name}.{item.name}", item.name, item, True


def references(path: Path):
    """(identifier, line, whether a bare name) of each name, attribute or
    identifier-like string constant in the file, leaving out the strings of
    ``__all__``."""
    tree = ast.parse(path.read_text("utf-8"))
    skipped = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and "__all__" in _bound_names(node):
            skipped.update(id(n) for n in ast.walk(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, True
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, False
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in skipped):
            yield node.value, node.lineno, False


def caller_files() -> list[Path]:
    bench = [p for p in (ROOT / "perfbench").rglob("*.py")
             if "tests" not in p.relative_to(ROOT / "perfbench").parts]
    return sorted(PACKAGE.glob("*.py")) + sorted(bench)


def test_every_public_name_has_a_caller():
    seen: dict[str, list[tuple[Path, int, bool]]] = {}
    for path in caller_files():
        for name, line, bare in references(path):
            seen.setdefault(name, []).append((path, line, bare))
    uncalled = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, name, node, method in public_definitions(path):
            def calls(ref):
                where, line, bare = ref
                inside = where == path and node.lineno <= line <= node.end_lineno
                return not inside and not (method and bare)
            if not any(calls(ref) for ref in seen.get(name, ())):
                uncalled.append(qualified)
    assert sorted(set(uncalled) - set(ALLOWED)) == []
    # an allowlisted name that gained a caller leaves the list
    assert sorted(set(ALLOWED) - set(uncalled)) == []
