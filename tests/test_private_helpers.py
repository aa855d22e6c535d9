"""Every module-level function of the package has a reader: a private one
in the package, a public one in the package, ``scripts/`` or
``perfbench/``. A function that only tests or ``__init__``'s re-exports
reach is dead code, and its checks belong on the code that replaced it.
A decorated function counts as read: click's ``@main.command()``
registers ``cli.simulate``, which nothing else names."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "feecalib"


def _parse(paths):
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(paths)}


def _unread(functions, readers, private):
    """The private (or public) undecorated module-level functions of the
    ``functions`` trees that no name in the ``readers`` trees reads; a
    read from inside the function's own definition does not count."""
    # every name read, as (node id, name)
    reads = [(id(node), node.id if isinstance(node, ast.Name) else node.attr)
             for tree in readers.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))]
    unused = []
    for path, tree in functions.items():
        for node in tree.body:
            if not (isinstance(node, ast.FunctionDef)
                    and node.name.startswith("_") == private
                    and not node.name.startswith("__")
                    and not node.decorator_list):
                continue
            own = {id(inner) for inner in ast.walk(node)}
            if not any(name == node.name and where not in own
                       for where, name in reads):
                unused.append(f"{path.name}: {node.name}")
    return unused


def test_every_private_function_has_a_caller_in_the_package():
    trees = _parse(PACKAGE.glob("*.py"))
    assert _unread(trees, trees, private=True) == []


def test_every_public_function_has_a_reader_outside_the_tests():
    package = _parse(path for path in PACKAGE.glob("*.py")
                     if path.name != "__init__.py")
    others = _parse([*(ROOT / "scripts").glob("*.py"),
                     *(path for path in (ROOT / "perfbench").glob("*.py")
                       if not path.name.startswith("test_"))])
    assert _unread(package, {**package, **others}, private=False) == []
