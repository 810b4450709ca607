"""Guards against orphaned imports and private functions in the package modules."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "novikov")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    with open(os.path.join(SRC, module), "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert not unused, "imported but never used: %s" % unused


@pytest.mark.parametrize("module", MODULES)
def test_every_private_definition_is_used(module):
    with open(os.path.join(SRC, module), "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    private = {
        node.name: node.lineno
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in private.items() if name not in used)
    assert not unused, "private but never referenced in its module: %s" % unused


def _library_paths():
    """The package modules and the benchmark's. The package's __init__ is left
    out: a name it re-exports is not thereby called by the library."""
    bench = os.path.join(SRC, os.pardir, os.pardir, "perfbench")
    paths = [os.path.join(SRC, f) for f in MODULES]
    return paths + [os.path.join(bench, f) for f in os.listdir(bench) if f.endswith(".py")]


def _names_used(paths):
    """Every identifier read as a name, an attribute or an import alias."""
    used = set()
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name)
    return used


def test_every_public_definition_is_called_by_the_library():
    """A public function, class or method that nothing in the package's
    modules or the benchmark names is test-only code; it belongs in the test
    helpers. An export from __init__ is not a use."""
    used = _names_used(_library_paths())
    defined = []
    for module in MODULES:
        with open(os.path.join(SRC, module), "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            if isinstance(node, ast.ClassDef):
                defined.extend(
                    (module, "%s.%s" % (node.name, item.name))
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
                )
    unused = [
        (module, name)
        for module, name in defined
        if not name.split(".")[-1].startswith("_") and name.split(".")[-1] not in used
    ]
    assert not unused, "defined but never named in src/ or perfbench/: %s" % unused


def _attributes_read(paths):
    """Every attribute read in load context, or named as a getattr string."""
    read = set()
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
    return read


def test_every_slot_is_read_by_the_library():
    """A slot that nothing in the package or the benchmark reads is stored
    for the tests alone; they derive the same fact from what the library
    does read."""
    read = _attributes_read(_library_paths())
    unread = []
    for module in MODULES:
        with open(os.path.join(SRC, module), "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.Assign) and [t.id for t in item.targets] == ["__slots__"]:
                    unread.extend(
                        (module, "%s.%s" % (node.name, slot.value))
                        for slot in item.value.elts
                        if slot.value not in read
                    )
    assert not unread, "stored but never read in src/ or perfbench/: %s" % unread


def _calls_by_function(tree, names):
    """(enclosing function, callee) for every call to one of names."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in names):
            found.append((function, node.func.id))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_no_library_module_calls_a_lift_checker():
    """A closed form is decided by its hypotheses, a pull-back by the
    reduction, and decide's candidates and the lift reduction_lift is handed
    by the product checks; the lift systems are the test suite's references."""
    calls = []
    for module in MODULES:
        with open(os.path.join(SRC, module), "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        calls += [(module[:-3],) + call
                  for call in _calls_by_function(tree, {"check_lift_lsa", "check_lift_novikov"})]
    assert calls == []
