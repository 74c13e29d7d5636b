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


def _traced(monkeypatch):
    """(module, attribute) of each binding the benchmark's tracer wraps;
    TRACED is read as test_perfbench_bindings reads it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    monkeypatch.delitem(sys.modules, "checks", raising=False)
    return {(module, attr) for module, attr, _, _ in importlib.import_module("spans").TRACED}


def test_no_module_imports_a_name_it_never_uses(monkeypatch):
    # a binding the benchmark's tracer wraps is read through the module
    # from outside, so it counts as used
    traced = _traced(monkeypatch)
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


#: public functions that nothing under src/fibtrace calls, kept on purpose,
#: each with the program use it is kept for; the references the tests
#: compare the program against live in tests/oracles.py
REFERENCE = {
    ("tracemap", "trace_step"):
        "the map T itself, which trace_orbit equals bit for bit; perfbench "
        "traces it where empirical imports it",
    ("tracemap", "fricke"): "the invariant G, for the run-time check that G is "
                            "conserved (ROADMAP item 4)",
    ("torus", "semiconj"): "the semiconjugacy F, which the periodic-orbit "
                           "dimension reads (ROADMAP item 6)",
    ("spectrum", "trace_sequence"): "the half-trace recursion that criterion 02 checks",
    # ROADMAP item 2 decides whether it stays
    ("boxdim", "local_dimension"): "the dimension of a window of a band set",
}


def _names_read(tree):
    """Every name a module reads, as a name or an attribute, outside the
    definition of a top-level function or class of that name."""
    for top in tree.body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)) and name != own:
                yield name


def test_every_public_function_has_a_caller(monkeypatch):
    # the names in __init__ are re-exports, which call nothing
    traced = _traced(monkeypatch)
    modules = {path.stem: ast.parse(path.read_text(), str(path))
               for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}
    read = {name for tree in modules.values() for name in _names_read(tree)}
    public = set()
    for stem, tree in modules.items():
        defined = {node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        public |= {(stem, name) for name in _declared_all(tree) or () if name in defined}
    found = [
        f"{stem}.{name} has no caller in src/fibtrace"
        for stem, name in sorted(public)
        if name not in read and (f"fibtrace.{stem}", name) not in traced
        and (stem, name) not in REFERENCE
    ]
    found += [f"REFERENCE names {stem}.{name}, which is not public"
              for stem, name in sorted(REFERENCE.keys() - public)]
    assert found == []


#: defaulted parameters and dataclass fields that no call in src/fibtrace
#: or perfbench's program modules sets, kept on purpose; those of
#: REFERENCE functions are all kept
UNSET_DEFAULTS = {
    ("intervals", "BandSet", "generation"):
        "set after the back-off by spectrum_cover; ROADMAP item 15 removes it",
}


def _parameters(fn, skip):
    """(name, slot) of each defaulted parameter of a function, its slot
    being its position in a call once the first ``skip`` are bound (self
    of a method); a keyword-only parameter has slot None."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    yield from ((p.arg, i - skip) for i, p in enumerate(positional) if i >= first)
    yield from ((p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                if d is not None)


def _is_dataclass(cls):
    return any(getattr(d, "id", None) == "dataclass"
               or getattr(getattr(d, "func", None), "id", None) == "dataclass"
               for d in cls.decorator_list)


def _fields(cls):
    """(name, slot) of each defaulted field of a dataclass, its slot being
    its position in the constructor; ``field()`` without a default or a
    default_factory gives none."""
    fields = [s for s in cls.body
              if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
    for slot, f in enumerate(fields):
        v = f.value
        if v is None or (isinstance(v, ast.Call) and getattr(v.func, "id", None) == "field"
                         and not {"default", "default_factory"} & {k.arg for k in v.keywords}):
            continue
        yield f.target.id, slot


def _defaults(tree, public):
    """(reported name, called name, parameter, slot) of every defaulted
    parameter of a public function or of a public method of a public
    class, and of every defaulted field of a public dataclass."""
    for node in tree.body:
        if getattr(node, "name", None) not in public:
            continue
        if isinstance(node, ast.FunctionDef):
            yield from ((node.name, node.name, p, i) for p, i in _parameters(node, 0))
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    yield from ((f"{node.name}.{fn.name}", fn.name, p, i)
                                for p, i in _parameters(fn, 1))
            if _is_dataclass(node):
                yield from ((node.name, node.name, p, i) for p, i in _fields(node))


def _arguments_passed(paths):
    """(callee name, keyword) for every argument a call passes by keyword,
    and (callee name, i) for its i-th positional one before any *args."""
    passed = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    break
                passed.add((name, i))
            passed.update((name, k.arg) for k in node.keywords if k.arg)
    return passed


def _program():
    """The modules of src/fibtrace and perfbench's program modules; the
    benchmark's own tests are not part of the program."""
    return sorted(PACKAGE.glob("*.py")) + [
        path for path in sorted(PERFBENCH.glob("*.py")) if not path.name.startswith("test_")]


def test_every_defaulted_parameter_is_set_by_some_call():
    # a default that no caller overrides is a knob that does nothing, and
    # a field default that no constructor call overrides is a placeholder
    passed = _arguments_passed(_program())
    unset = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        public = set(_declared_all(tree) or ()) - {
            name for stem, name in REFERENCE if stem == path.stem}
        unset |= {(path.stem, name, p) for name, called, p, slot in _defaults(tree, public)
                  if (called, p) not in passed and (called, slot) not in passed}
    found = [f"{stem}.{name}: no call sets {param}"
             for stem, name, param in sorted(unset - UNSET_DEFAULTS.keys())]
    found += [f"UNSET_DEFAULTS names {stem}.{name}'s {param}, which is not an unset default"
              for stem, name, param in sorted(UNSET_DEFAULTS.keys() - unset)]
    assert found == []


#: public members of public classes that nothing in src/fibtrace or
#: perfbench's program modules reads, kept on purpose
UNREAD_MEMBERS = {
    ("certify", "SingularEigenData", "eigenvalues"):
        "the spectrum of the singular differential, which criterion 04 checks",
    ("empirical", "EmpiricalReport", "per_sample_ratios"):
        "every used sample's ratio, which the whole-array engine tests pin bit for bit",
}


def _members(cls):
    """Names of the public methods, properties and annotated fields of a class."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            name = node.name
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            name = node.target.id
        else:
            continue
        if not name.startswith("_"):
            yield name


def _strings(node):
    """The strings of a string constant or of a literal tuple or list."""
    elts = node.elts if isinstance(node, (ast.Tuple, ast.List)) else [node]
    return [e.value for e in elts if isinstance(e, ast.Constant) and isinstance(e.value, str)]


def _attributes_read(tree):
    """Every attribute a module loads, and every name it passes to
    ``getattr``: a string, or each string of the literal tuple or list,
    given in place or by a name assigned it, that the name is looped over."""
    literals, loops = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Assign):
            literals.update((t.id, node.value) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.For, ast.comprehension)) and isinstance(node.target, ast.Name):
            loops.setdefault(node.target.id, []).append(node.iter)
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
                and len(node.args) > 1):
            continue
        name = node.args[1]
        for source in loops.get(name.id, []) if isinstance(name, ast.Name) else [name]:
            if isinstance(source, ast.Name):
                source = literals.get(source.id, source)
            yield from _strings(source)


def test_every_public_member_has_a_reader():
    # a method, property or field that the program never reads is code or
    # state that only the tests reach; cli is a program, not an API
    read = {name for path in _program()
            for name in _attributes_read(ast.parse(path.read_text(), str(path)))}
    members = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "cli":
            continue
        tree = ast.parse(path.read_text(), str(path))
        public = set(_declared_all(tree) or ())
        members |= {(path.stem, node.name, name) for node in tree.body
                    if isinstance(node, ast.ClassDef) and node.name in public
                    for name in _members(node)}
    unread = {member for member in members if member[2] not in read}
    found = [f"{stem}.{cls}.{name} has no reader in the program"
             for stem, cls, name in sorted(unread - UNREAD_MEMBERS.keys())]
    found += [f"UNREAD_MEMBERS names {stem}.{cls}.{name}, which is read or is not "
              "a public member" for stem, cls, name in sorted(UNREAD_MEMBERS.keys() - unread)]
    assert found == []
