"""Every name that `fairstream` exports has a caller outside the tests.

The package exports what a run, an audit or the command line calls.  This
parses the package's modules (all but `__init__.py`), `scripts/` and
`perfbench/`, and asserts that each name `fairstream/__init__.py` imports
is read somewhere there (as a name or an attribute) outside the `def` or
`class` that defines it, so an export that only the tests call shows here.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fairstream"


def _exports() -> list:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _reads(node, skip=None) -> set:
    """The names and attributes read under `node`, leaving out the body of
    any `def` or `class` whose name is `skip`."""
    out = set()
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and node.name == skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_every_export_is_read_outside_the_tests():
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = [ast.parse(p.read_text()) for p in files]
    unread = [name for name in _exports()
              if not any(name in _reads(tree, skip=name) for tree in trees)]
    assert unread == [], unread
