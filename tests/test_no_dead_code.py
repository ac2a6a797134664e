"""Every public function and method of the package has a use.

A function defined at the top level of a module in ``src/milnorfibre`` and
not starting with an underscore must be referenced somewhere in the package
outside its own definition and the package's re-export in ``__init__.py``
(a call, an attribute access or an import).  Failing that, it must be
exported through ``milnorfibre.__all__`` and named in README.md, as the
start of a code span, which documents its use.  Tests and scripts do not
count as callers.  The functions kept by that exception are listed in
README_ONLY, so a new one is a change to this file, not a README line
alone.

A method of a package class not starting with an underscore must be
accessed as an attribute, or named in a string (the benchmark's tracer
names the methods it wraps by string), somewhere in ``src/``, ``tests/``,
``scripts/`` or ``perfbench/``.

A private function at the top level of a module, or a private method of a
package class (a name starting with one underscore, dunders left out), must
be read somewhere in ``src/`` outside its own definition: an import alone
does not count, and neither do tests, scripts or the benchmark.  Code the
package keeps only for the test oracles belongs in ``tests/oracles.py``.
"""

import ast
import re
from pathlib import Path

import milnorfibre

PACKAGE = Path(milnorfibre.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "scripts", "perfbench")


def _references(tree: ast.AST, skip: ast.AST | None = None, imports: bool = True) -> set[str]:
    """Names read, attributes accessed and, with imports, names imported in
    tree, leaving out the subtree skip."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif imports and isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return out


# public functions with no caller in the package, exported and documented
# in README.md for library use
README_ONLY = {"homology.smith_normal_form"}


def uncalled_functions() -> dict[str, bool]:
    """Each public function with no caller in the package, and whether it
    is exported and named in README.md."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    exported = set(milnorfibre.__all__)
    readme = (ROOT / "README.md").read_text()
    uncalled = {}
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            used = any(
                node.name in _references(other, skip=node)
                for stem, other in trees.items()
                if stem != "__init__"
            )
            if not used:
                documented = node.name in exported and re.search(rf"`{node.name}\b", readme)
                uncalled[f"{module}.{node.name}"] = bool(documented)
    return uncalled


def test_every_public_function_has_a_caller():
    assert [name for name, documented in uncalled_functions().items() if not documented] == []


def test_only_the_listed_functions_are_kept_by_the_readme():
    assert set(uncalled_functions()) == README_ONLY


def unreferenced_methods() -> list[str]:
    used = set()
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    used.add(node.value)
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (
                    isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("_")
                    and node.name not in used
                ):
                    missing.append(f"{path.stem}.{cls.name}.{node.name}")
    return missing


def test_every_public_method_has_a_use():
    assert unreferenced_methods() == []


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unreferenced_private_functions() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    missing = []
    for module, tree in trees.items():
        defs = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                defs += [
                    (f"{cls.name}.{node.name}", node)
                    for node in cls.body
                    if isinstance(node, ast.FunctionDef)
                ]
        for label, node in defs:
            if _private(node.name) and not any(
                node.name in _references(other, skip=node, imports=False)
                for other in trees.values()
            ):
                missing.append(f"{module}.{label}")
    return missing


def test_every_private_function_has_a_caller_in_the_package():
    assert unreferenced_private_functions() == []
