"""Every private module-level function of the package has a caller in the
package: a helper that only tests reach is dead code, and its checks
belong on the code that replaced it."""

import ast
from pathlib import Path

import feecalib

PACKAGE = Path(feecalib.__file__).parent


def test_every_private_function_has_a_caller_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    # every name read in the package, as (node id, name)
    reads = [(id(node), node.id if isinstance(node, ast.Name) else node.attr)
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))]
    unused = []
    for file, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, ast.FunctionDef)
                    and node.name.startswith("_")
                    and not node.name.startswith("__")):
                continue
            # a call from inside its own definition does not count
            own = {id(inner) for inner in ast.walk(node)}
            if not any(name == node.name and where not in own
                       for where, name in reads):
                unused.append(f"{file}: {node.name}")
    assert unused == []
