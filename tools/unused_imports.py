"""Unused imports, the way ruff's F401 reports them — standard library only.

    python3 tools/unused_imports.py src tests tools examples

``pyproject.toml`` selects F401 for ``ruff check``, which CI runs; this
is the same check for a machine where ``ruff`` is not installed. A name
bound by ``import`` or ``from ... import`` is reported unless the module

* reads it — as a name, as the root of an attribute chain, or inside a
  string annotation (``"Session"``, ``Optional["Task"]``);
* re-exports it: lists it in ``__all__`` (an assignment or ``+=`` of a
  literal list or tuple) or imports it under a redundant alias
  (``import x as x``, ``from m import x as x``);
* marks the line ``# noqa`` or ``# noqa: F401``.

``from __future__`` imports and ``from m import *`` bind nothing to
check. One simplification against ruff: a module is one scope, so a
function-local import counts as used when *any* function reads that
name.

Prints ``path:line: F401 `name` imported but unused`` per finding;
the exit status is 1 when there is one.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Iterable, Iterator

NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


def _imports(tree: ast.AST) -> Iterator[tuple[str, str, int]]:
    """``(bound name, display name, line)`` of every checkable import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is None:
                    # ``import a.b`` binds ``a``.
                    yield alias.name.split(".")[0], alias.name, alias.lineno
                elif alias.asname != alias.name:
                    yield alias.asname, alias.name, alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*" and alias.asname != alias.name:
                    source = f"{'.' * node.level}{node.module or ''}.{alias.name}"
                    yield alias.asname or alias.name, source, alias.lineno


def _annotations(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names_read(tree: ast.AST) -> set[str]:
    """Every name the module loads, string annotations included."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        if annotation is None:
            continue
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                read.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return read


def _exported(tree: ast.Module) -> set[str]:
    """The string elements of the module's ``__all__``."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets, value = [node.target], node.value
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets) and isinstance(
            value, (ast.List, ast.Tuple)
        ):
            names.update(
                element.value
                for element in value.elts
                if isinstance(element, ast.Constant) and isinstance(element.value, str)
            )
    return names


def _suppressed(line: str) -> bool:
    match = NOQA.search(line)
    if match is None:
        return False
    codes = match.group("codes")
    return codes is None or "F401" in codes.upper()


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, display name)`` of each unused import in ``source``."""
    tree = ast.parse(source)
    # An import statement stores its names without an ``ast.Name`` node, so
    # every ``Name`` in the tree is a use (or an assignment shadowing it —
    # counted as a use, erring on the quiet side).
    used = _names_read(tree) | _exported(tree)
    lines = source.splitlines()
    return sorted(
        (line, shown)
        for bound, shown, line in _imports(tree)
        if bound not in used and not _suppressed(lines[line - 1])
    )


def python_files(paths: Iterable[str]) -> Iterator[Path]:
    for path in map(Path, paths):
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def check(paths: Iterable[str]) -> list[str]:
    """One ``path:line: F401 ...`` message per unused import under ``paths``."""
    return [
        f"{path}:{line}: F401 `{shown}` imported but unused"
        for path in python_files(paths)
        for line, shown in unused_imports(path.read_text(encoding="utf-8"))
    ]


def main(argv=None) -> int:
    paths = (sys.argv[1:] if argv is None else argv) or ["."]
    findings = check(paths)
    print("\n".join(findings) if findings else "no unused imports")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
