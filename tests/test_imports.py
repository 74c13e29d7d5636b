import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fibtrace"


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
