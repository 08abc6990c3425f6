"""Every name that ``perron`` exports is used by the program or by the
benchmark, so the package carries no name that only its tests call.

A name counts as used when ``src/perron`` refers to it outside its own
definition and outside ``__init__.py``, or when ``perfbench`` imports,
calls or traces it.  References are read with ``ast``: names, attribute
accesses, imported names, and the ``perron.module:attr`` paths of the
benchmark's trace targets.
"""

import ast
import re
import types
from pathlib import Path

import perron as pr

ROOT = Path(__file__).resolve().parent.parent
TRACE_PATH = re.compile(r"perron(?:\.\w+)*:([\w.]+)")


def references(path: Path) -> list:
    """(name, names of the enclosing definitions) for every reference in path."""
    found = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name):
            found.append((node.id, inside))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, inside))
        elif isinstance(node, ast.alias):
            found.append((node.name.rsplit(".", 1)[-1], inside))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = TRACE_PATH.fullmatch(node.value)
            if match:
                found.extend((part, inside) for part in match.group(1).split("."))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text()), frozenset())
    return found


def test_every_export_is_used_outside_the_tests():
    files = [p for p in sorted((ROOT / "src" / "perron").glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    used = {name for path in files for name, inside in references(path) if name not in inside}
    exported = [name for name in pr.__all__
                if not isinstance(getattr(pr, name), types.ModuleType)]
    assert [name for name in exported if name not in used] == []
