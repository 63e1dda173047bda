#!/usr/bin/env python
"""Lint: two tables are listed once — the back-end names, in
``repro.api.BACKENDS``, and the primitive names, in the catalog
``repro.lang.builtins``.

Reads each table's names out of its module (by ``ast``, nothing is
imported) and flags every literal elsewhere under ``src/`` that spells
out several of them:

* **back ends** — any list, tuple, set or dict literal that names two or
  more: the ``choices=[...]`` / ``ALL_BACKENDS = (...)`` /
  ``backend in (...)`` copies that used to drift apart.  Read
  ``BACKENDS`` (or a row's columns) instead; with three back ends, any
  list of them is most of the table.
* **primitives** — any list, tuple or set literal that names more than
  three: a class of primitives
  (the elementwise ones, the folds, the comparisons) restated beside the
  catalog.  Read the catalog's rows instead (``op_class``, ``fold``,
  ``result_kind``, ``elementwise``, ``shape``).  Dict literals are left
  alone outside ``repro/analysis/`` and ``repro/guard/``: there a
  primitive-keyed dict is one lane's implementation (the interpreter's
  ``PRIM_IMPLS``, the NumPy ``UFUNCS`` and ``KERNELS``) or surface syntax
  (the pretty-printer's operators), while the analyses and the guard
  implement no primitive, so a dict of them there is a class restated
  (read ``shape`` for which kernels compute descriptors from data).
  Two literals are exempt, by file and owner (the function or
  module-level name they sit in):

  - ``fuzz/gen.py`` ``gen_seq``: the fuzzer's vocabulary — what a
    generated program may draw, with its weights — is a choice of test
    inputs, not a class of primitives;
  - ``analysis/verify.py`` ``_VIEW_OPS``: the ops whose result a
    transformed program legitimately reads one frame level deeper is a
    fact of the transformation's output forms (it includes ``__iter``,
    which is not a primitive), checked only by the verifier.

Usable as a library (``find_literals`` for the back ends,
``find_primitive_literals`` for the primitives) by the test suite and as
a script by CI: exits 1 listing any copies.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

TABLE = Path("src/repro/api.py")
CATALOG = Path("src/repro/lang/builtins.py")
#: the most names of each table one literal may spell out
BACKENDS_ALLOWED = 1
PRIMITIVES_ALLOWED = 3
EXEMPT = {("src/repro/fuzz/gen.py", "gen_seq"),
          ("src/repro/analysis/verify.py", "_VIEW_OPS")}
#: where a primitive-keyed dict literal is a restated class too
DICT_CHECKED = ("src/repro/analysis/", "src/repro/guard/")


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


def primitive_names(root: Path) -> set[str]:
    """Every name the catalog defines: the first argument of each
    ``_def(...)`` call in ``repro/lang/builtins.py``, or the names of the
    ``for`` loop it is called in (none when there is no catalog)."""
    if not (root / CATALOG).exists():
        return set()
    tree = ast.parse((root / CATALOG).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            names.update(e.value for e in node.iter.elts
                         if isinstance(e, ast.Constant))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "_def" \
                and isinstance(node.args[0], ast.Constant):
            names.add(node.args[0].value)
    return names


def _owned(node: ast.AST, owner: str = ""):
    """``(node, owner)`` below ``node``: the owner is the innermost
    function or class around it, or the module-level name it is bound
    to."""
    for child in ast.iter_child_nodes(node):
        name = owner
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            name = child.name
        elif not owner and isinstance(child, (ast.Assign, ast.AnnAssign)):
            target = child.targets[0] if isinstance(child, ast.Assign) \
                else child.target
            name = target.id if isinstance(target, ast.Name) else owner
        yield child, name
        yield from _owned(child, name)


def _copies(root: Path, table: Path, names: set[str],
            dicts: tuple[str, ...], allowed: int, exempt=frozenset()
            ) -> list[tuple[str, int, list[str]]]:
    """Literals under ``root/src`` naming more than ``allowed`` of
    ``names``; dict literals only in files under a ``dicts`` prefix."""
    found = []
    for path in sorted((root / "src").rglob("*.py")):
        if path == root / table:
            continue
        file = str(path.relative_to(root))
        for node, owner in _owned(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
                items = node.elts
            elif file.startswith(dicts) and isinstance(node, ast.Dict):
                items = node.keys
            else:
                continue
            hit = sorted({e.value for e in items
                          if isinstance(e, ast.Constant)
                          and e.value in names})
            if len(hit) > allowed and (file, owner) not in exempt:
                found.append((file, node.lineno, hit))
    return found


def find_literals(root: str | Path) -> list[tuple[str, int, list[str]]]:
    """``(file, line, names)`` for every back-end list literal under
    ``root/src``."""
    root = Path(root)
    return _copies(root, TABLE, backend_names(root), dicts=("src/",),
                   allowed=BACKENDS_ALLOWED)


def find_primitive_literals(root: str | Path
                            ) -> list[tuple[str, int, list[str]]]:
    """``(file, line, names)`` for every list, tuple or set literal under
    ``root/src`` that restates primitive names, exemptions aside."""
    root = Path(root)
    return _copies(root, CATALOG, primitive_names(root), dicts=DICT_CHECKED,
                   allowed=PRIMITIVES_ALLOWED, exempt=EXEMPT)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path.cwd()
    backends = find_literals(root)
    prims = find_primitive_literals(root)
    for file, line, hit in backends:
        print(f"{file}:{line}: back-end list literal {hit}; "
              "read repro.api.BACKENDS instead")
    for file, line, hit in prims:
        print(f"{file}:{line}: primitive list literal {hit}; "
              "read the repro.lang.builtins catalog instead")
    if not backends:
        print("back-end names are listed once, in repro.api.BACKENDS")
    if not prims:
        print("primitive names are listed once, in repro.lang.builtins")
    return 1 if backends or prims else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
