import ast
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fibtrace"
PERFBENCH = ROOT / "perfbench"


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_uses(path):
    """(line, name) of each private name a module takes from another fibtrace
    module: imported by name, or read off a fibtrace module it imported."""
    module = path.stem
    tree = ast.parse(path.read_text(), str(path))
    siblings = set()  # local names bound to other fibtrace modules
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("fibtrace"):
            continue
        source = (node.module or "").rpartition(".")[2]
        for alias in node.names:
            if _private(alias.name) and source != module:
                yield node.lineno, alias.name
            if not node.module or node.module == "fibtrace":
                siblings.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in siblings):
            yield node.lineno, f"{node.value.id}.{node.attr}"


def test_no_module_takes_a_private_name_from_another():
    found = [
        f"{path.name}:{line} uses {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in _private_uses(path)
    ]
    assert found == []


def _unused_imports(path):
    """(line, name) of each name a module imports and never reads: not
    as a name anywhere in the module, nor as a string in ``__all__``."""
    tree = ast.parse(path.read_text(), str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.partition(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


def test_no_module_imports_a_name_it_never_uses(monkeypatch):
    # a binding the benchmark's tracer wraps is read through the module
    # from outside, so it counts as used; TRACED is read as
    # test_perfbench_bindings reads it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    monkeypatch.delitem(sys.modules, "checks", raising=False)
    traced = {(module, attr) for module, attr, _, _ in importlib.import_module("spans").TRACED}
    found = [
        f"{path.name}:{line} imports {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in _unused_imports(path)
        if (f"fibtrace.{path.stem}", name) not in traced
    ]
    assert found == []


def _declared_all(tree):
    """The names of a module's ``__all__``, or None if it declares none."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return None


def test_all_lists_every_public_function_and_class():
    # the command-line module is a program, not an API, and has no __all__
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "cli":
            continue
        tree = ast.parse(path.read_text(), str(path))
        listed = _declared_all(tree)
        if listed is None:
            found.append(f"{path.name} declares no __all__")
            continue
        found += [
            f"{path.name}:{node.lineno} {node.name} is not in __all__"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in listed
        ]
        module = importlib.import_module(
            "fibtrace" if path.stem == "__init__" else f"fibtrace.{path.stem}")
        found += [f"{path.name} lists {name}, which it does not define"
                  for name in listed if not hasattr(module, name)]
    assert found == []
