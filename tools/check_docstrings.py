#!/usr/bin/env python
"""Docstring lint for the language and transformation layers.

Checks, over ``src/repro/lang``, ``src/repro/transform`` and
``src/repro/passes``:

* every module has a docstring;
* every *public* top-level class and function, and every public method
  of a public class, has a docstring (names starting with ``_`` are
  private; ``__dunder__`` methods are exempt);
* every module's documentation (module docstring plus its public
  classes'/functions' docstrings) anchors the code to the paper: at
  least one rule reference — ``R0``, ``R1``, ``R2``/``R2a``–``R2f``,
  ``T1`` — or a section reference (``§4.5``, ``§6``, "section 4.5", ...)
  must appear, so a reader can always get from a transformation module
  back to the rule it implements.

Usable as a library (``find_violations``) by the test suite and as a
script by CI: exits 1 listing any violations.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

CHECKED_PACKAGES = ("src/repro/lang", "src/repro/transform", "src/repro/passes")

#: paper-rule anchors: transformation rules R0/R1/R2(a-f), lemma T1, and
#: section references in either spelling
ANCHOR_RE = re.compile(r"\bR[0-2][a-f]?\b|\bT1\b|§\s*\d|[Ss]ection\s+\d")


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _doc(node) -> str:
    return ast.get_docstring(node) or ""


def _check_function(path, cls, fn, violations):
    label = f"{cls.name}.{fn.name}" if cls else fn.name
    if fn.name.startswith("__") and fn.name.endswith("__"):
        return
    if not _is_public(fn.name):
        return
    if not _doc(fn):
        violations.append((str(path), fn.lineno,
                           f"public function {label!r} has no docstring"))


def check_file(path: Path) -> tuple[list[tuple[str, int, str]], str]:
    """Lint one module; returns (violations, all public documentation
    text) — the caller applies the paper-anchor check to the text."""
    tree = ast.parse(path.read_text(), filename=str(path))
    violations: list[tuple[str, int, str]] = []
    texts = [_doc(tree)]
    if not _doc(tree):
        violations.append((str(path), 1, "module has no docstring"))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _check_function(path, None, node, violations)
            texts.append(_doc(node))
        elif isinstance(node, ast.ClassDef) and _is_public(node.name):
            if not _doc(node):
                violations.append((str(path), node.lineno,
                                   f"public class {node.name!r} has no "
                                   "docstring"))
            texts.append(_doc(node))
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    _check_function(path, node, sub, violations)
                    texts.append(_doc(sub))
    return violations, "\n".join(texts)


def find_violations(root: str | Path) -> list[tuple[str, int, str]]:
    """All docstring-lint violations under ``root`` as
    (file, line, message) triples."""
    root = Path(root)
    out: list[tuple[str, int, str]] = []
    for pkg in CHECKED_PACKAGES:
        for path in sorted((root / pkg).glob("*.py")):
            violations, text = check_file(path)
            out.extend(violations)
            if path.name != "__init__.py" and not ANCHOR_RE.search(text):
                out.append((str(path), 1,
                            "module documentation never anchors to a "
                            "paper rule (R0/R1/R2a-R2f/T1/§4.5/...)"))
    return out


def main() -> int:
    root = Path(__file__).resolve().parents[1]
    violations = find_violations(root)
    for f, line, msg in violations:
        print(f"{f}:{line}: {msg}")
    if violations:
        print(f"{len(violations)} docstring violation(s)")
        return 1
    print("docstring lint: all public APIs documented and rule-anchored")
    return 0


if __name__ == "__main__":
    sys.exit(main())
