#!/usr/bin/env python
"""Lint: the back-end names are listed once, in ``repro.api.BACKENDS``.

Reads the table's keys out of ``src/repro/api.py`` (by ``ast``, nothing
is imported) and flags every list, tuple, set or dict literal elsewhere
under ``src/`` that spells out more than three of them — the
``choices=[...]`` / ``ALL_BACKENDS = (...)`` / ``backend in (...)``
copies that used to drift apart.  Read ``BACKENDS`` instead.  (Three
names are allowed: the fuzzer's default trio is a real, smaller list.)

Usable as a library (``find_literals``) by the test suite and as a
script by CI: exits 1 listing any copies.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

TABLE = Path("src/repro/api.py")
ALLOWED = 3


def backend_names(root: Path) -> set[str]:
    """The keys of the ``BACKENDS`` dict literal in ``repro/api.py``."""
    for node in ast.walk(ast.parse((root / TABLE).read_text())):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "BACKENDS"
                   for t in targets) and isinstance(node.value, ast.Dict):
                return {k.value for k in node.value.keys
                        if isinstance(k, ast.Constant)}
    raise SystemExit(f"no BACKENDS dict literal in {TABLE}")


def find_literals(root: str | Path) -> list[tuple[str, int, list[str]]]:
    """``(file, line, names)`` for every offending literal under
    ``root/src``."""
    root = Path(root)
    names = backend_names(root)
    found = []
    for path in sorted((root / "src").rglob("*.py")):
        if path == root / TABLE:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
                items = node.elts
            elif isinstance(node, ast.Dict):
                items = node.keys
            else:
                continue
            hit = sorted({e.value for e in items
                          if isinstance(e, ast.Constant)
                          and e.value in names})
            if len(hit) > ALLOWED:
                found.append((str(path.relative_to(root)), node.lineno, hit))
    return found


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path.cwd()
    found = find_literals(root)
    for file, line, hit in found:
        print(f"{file}:{line}: back-end list literal {hit}; "
              "read repro.api.BACKENDS instead")
    if not found:
        print("back-end names are listed once, in repro.api.BACKENDS")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
