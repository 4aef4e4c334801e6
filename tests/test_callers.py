"""Every public name in labelloop has a caller outside the tests.

A public name is a module-level name bound in ``src/labelloop/*.py``, or a
method of a public class there, that does not start with ``_``. It counts as
called when a name, an attribute or a string constant in ``src/`` or in
``perfbench/`` (its tests aside) spells it outside its own definition and
outside ``__all__``; a method counts only as an attribute or a string.
Matching goes by spelling alone, so this is a floor on dead code, not a call
graph.

Each defaulted parameter of a public function, or of a public method or
``__init__`` of a public class, must likewise be passed, by keyword or by
enough positional arguments, by some call there spelled with the function's
name (the class's for ``__init__``); an option no caller sets is dead code.
A defaulted field of a public dataclass counts as a parameter of the
generated ``__init__``, at its position in field order.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "labelloop"

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
    assert uncalled == []


# defaulted parameters no call outside the tests passes, each a test seam
ALLOWED_DEFAULTS = {
    "cli.cmd_hub(on_ready)": "hands the bound server to a test before serving",
    "cli.main(argv)": "argparse reads sys.argv when it is None",
    "harness.DriftEvent.__init__(code)": "read from scenario files",
    "harness.DriftEvent.__init__(new_probability)": "read from scenario files",
    "harness.DriftEvent.__init__(new_sigma)": "read from scenario files",
    "harness.ScenarioAssertions.__init__(expect_no_alerts)": "read from scenario files",
    "protocol.submit_batch(sleep)": "tests record the backoff without sleeping",
}


def _has_default(value: ast.expr | None) -> bool:
    """Whether a dataclass field's right-hand side gives it a default; a
    bare ``field(...)`` gives none."""
    if value is None:
        return False
    if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "field"):
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return True


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass"
               for d in node.decorator_list)


def defaulted_parameters(path: Path):
    """(qualified name, name a call spells, parameter, positional index or
    None for keyword-only) of each defaulted parameter of a public function,
    of a public method or ``__init__`` of a public class, or of the
    ``__init__`` a public dataclass generates; the index leaves out
    ``self``."""
    def params(fn, spelled, owner, method):
        positional = fn.args.posonlyargs + fn.args.args
        if method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                              for d in fn.decorator_list):
            positional = positional[1:]
        defaulted = positional[len(positional) - len(fn.args.defaults):]
        for arg in defaulted:
            yield (f"{owner}({arg.arg})", spelled, arg.arg,
                   positional.index(arg))
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield f"{owner}({arg.arg})", spelled, arg.arg, None

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(path.read_text("utf-8")).body:
        if not isinstance(node, (*functions, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if isinstance(node, functions):
            yield from params(node, node.name, f"{path.stem}.{node.name}", False)
        else:
            if _is_dataclass(node):
                fields = [item for item in node.body if isinstance(item, ast.AnnAssign)]
                for index, item in enumerate(fields):
                    if _has_default(item.value):
                        yield (f"{path.stem}.{node.name}.__init__({item.target.id})",
                               node.name, item.target.id, index)
            for item in node.body:
                if isinstance(item, functions) and (
                        item.name == "__init__" or not item.name.startswith("_")):
                    spelled = node.name if item.name == "__init__" else item.name
                    yield from params(item, spelled,
                                      f"{path.stem}.{node.name}.{item.name}", True)


def calls(path: Path):
    """(name the callee is spelled with, keyword names, count of plain
    positional arguments) of each call in the file."""
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None)
            positional = [a for a in node.args if not isinstance(a, ast.Starred)]
            yield name, {k.arg for k in node.keywords}, len(positional)


def test_every_defaulted_parameter_is_passed():
    seen: dict[str, list[tuple[set, int]]] = {}
    for path in caller_files():
        for name, keywords, n_positional in calls(path):
            seen.setdefault(name, []).append((keywords, n_positional))
    unpassed = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, spelled, param, index in defaulted_parameters(path):
            if not any(param in keywords
                       or (index is not None and n_positional > index)
                       for keywords, n_positional in seen.get(spelled, ())):
                unpassed.append(qualified)
    assert sorted(set(unpassed) - set(ALLOWED_DEFAULTS)) == []
    # an allowlisted parameter that gained a caller leaves the list
    assert sorted(set(ALLOWED_DEFAULTS) - set(unpassed)) == []
