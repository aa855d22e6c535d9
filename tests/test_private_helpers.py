"""Every module-level function of the package has a reader: a private one
in the package, a public one in the package, ``scripts/`` or
``perfbench/``. So does every method and property of a package class,
by the same rule. A function that only tests or ``__init__``'s
re-exports reach is dead code, and its checks belong on the code that
replaced it. A decorated module-level function counts as read: click's
``@main.command()`` registers ``cli.simulate``, which nothing else names.
Dunder functions and methods are left out: Python calls them."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "feecalib"


def _parse(paths):
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(paths)}


def _defined(trees, private, methods=False):
    """(path, node) of each private (or public) undecorated module-level
    function of the trees or, with ``methods``, of each method of their
    module-level classes, decorated ones (properties) too."""
    for path, tree in trees.items():
        bodies = ([node.body for node in tree.body
                   if isinstance(node, ast.ClassDef)] if methods
                  else [tree.body])
        for body in bodies:
            for node in body:
                if (isinstance(node, ast.FunctionDef)
                        and node.name.startswith("_") == private
                        and not node.name.startswith("__")
                        and (methods or not node.decorator_list)):
                    yield path, node


def _unread(defined, readers):
    """``path: name`` of each of the ``defined`` functions that no name in
    the ``readers`` trees reads; a read from inside the function's own
    definition does not count."""
    # every name read, as (node id, name)
    reads = [(id(node), node.id if isinstance(node, ast.Name) else node.attr)
             for tree in readers.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))]
    unused = []
    for path, node in defined:
        own = {id(inner) for inner in ast.walk(node)}
        if not any(name == node.name and where not in own
                   for where, name in reads):
            unused.append(f"{path.name}: {node.name}")
    return unused


def _outside_readers():
    """The trees of ``scripts/`` and of ``perfbench/`` but its tests."""
    return _parse([*(ROOT / "scripts").glob("*.py"),
                   *(path for path in (ROOT / "perfbench").glob("*.py")
                     if not path.name.startswith("test_"))])


def test_every_private_function_has_a_caller_in_the_package():
    trees = _parse(PACKAGE.glob("*.py"))
    assert _unread(_defined(trees, private=True), trees) == []


def test_every_public_function_has_a_reader_outside_the_tests():
    package = _parse(path for path in PACKAGE.glob("*.py")
                     if path.name != "__init__.py")
    assert _unread(_defined(package, private=False),
                   {**package, **_outside_readers()}) == []


def test_every_method_has_a_reader_outside_the_tests():
    trees = _parse(PACKAGE.glob("*.py"))
    readers = {**trees, **_outside_readers()}
    assert _unread(_defined(trees, private=True, methods=True), trees) == []
    assert _unread(_defined(trees, private=False, methods=True),
                   readers) == []
