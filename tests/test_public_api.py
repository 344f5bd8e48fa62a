"""The public surface of plateflow holds only what the program uses.

Every public module-level function, class and constant of `src/plateflow`
must be referenced by name outside its own definition: by another part of
the package or by the benchmark in `perfbench/`.  Being listed in
`plateflow.__all__` does not count as a use, and neither does an import, so
neither keeps a name alive: a name that only tests use belongs in `tests/`.
`test_all_names_resolve` checks that every name in `__all__` exists.
"""

import ast
import re
from pathlib import Path

import plateflow

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "plateflow"
BENCHMARK = ROOT / "perfbench"


def names_read(node) -> set:
    """The names and attribute names that a statement reads."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def names_defined(node) -> list:
    """The module-level names that a def, a class or an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def unused_public_names(kinds) -> list:
    """The public names bound by top-level statements of the given kinds that
    nothing in the package or the benchmark uses."""
    statements = []      # (module, top-level statement), imports left out
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        statements += [(path.stem, node) for node in tree.body
                       if not isinstance(node, (ast.Import, ast.ImportFrom))]
    benchmark = "\n".join(p.read_text() for p in sorted(BENCHMARK.glob("*.py")))
    unused = []
    for module, node in statements:
        if not isinstance(node, kinds):
            continue
        for name in names_defined(node):
            if name.startswith("_"):
                continue
            if any(other is not node and name in names_read(other)
                   for _, other in statements):
                continue
            if re.search(rf"\b{name}\b", benchmark):
                continue
            unused.append(f"{module}.{name}")
    return unused


def test_every_public_definition_has_a_user():
    unused = unused_public_names((ast.FunctionDef, ast.ClassDef))
    assert not unused, f"public names that nothing in the program uses: {unused}"


def test_every_public_constant_has_a_user():
    unused = unused_public_names((ast.Assign, ast.AnnAssign))
    assert not unused, f"public constants that nothing in the program uses: {unused}"


def test_all_names_resolve():
    assert not set(plateflow.__all__) - set(dir(plateflow))
