"""Phase-boundary IR verifier.

The transformation pipeline promises a precise shape for its output at
every phase boundary (docs/PIPELINE.md documents the contract); this
module re-derives those postconditions from the program alone and raises
a stage-named :class:`~repro.errors.AnalysisError` the moment one fails,
with a pretty-printed minimal offending subterm.  The checks:

* **structural** — no :class:`~repro.lang.ast.Iter`,
  :class:`~repro.lang.ast.Lambda` or untransformed
  :class:`~repro.lang.ast.Call` survives elimination; every variable is
  bound; builtin and user applications have the declared arity.

* **frame-depth typing** — every expression is assigned an upper bound
  on the frame depth its value can be consumed at.  View-raising
  primitives (``dist``/``range1``/``restrict``/``combine``) produce
  values re-viewable one level *deeper* than their application depth —
  exactly how the iterator-entry and R2d rebindings work — while
  consumption at any *shallower* depth is always legal (the result of an
  eliminated iterator is its depth-``j+1`` body viewed at depth ``j``).
  Every ``f^j`` application must consume each argument at a depth the
  argument can actually supply **and** have at least one argument at the
  application depth itself — the invariant the parallel-extension
  machinery replicates depth-0 values against (this is what the
  ``transform.R2c.depth-bump`` fault site violates).

* **R2d guard discipline** — transform-*generated* ``combine``s (tagged
  with ``origin`` provenance by the eliminator; user-written ``combine``
  calls are untagged and exempt) must take both arms from emptiness-
  guarded branches: a let-bound ``if __any(mask) then ... else
  __empty(mask)``, with every generated ``restrict`` dominated by such a
  guard's then-arm.  This is the property that makes transformed
  *recursive* functions terminate (paper section 3.3), and it is exactly
  what the ``transform.R2d.drop-guard`` fault site breaks.
"""

from __future__ import annotations

from typing import Callable, Mapping, NoReturn, Optional

from repro.errors import AnalysisError
from repro.lang import ast as A
from repro.lang import builtins as B
from repro.lang.pretty import pretty

__all__ = ["verify_canonical", "verify_def", "verify_transformed"]

#: Primitives whose result is legitimately consumed one frame level
#: deeper than the application depth: the iterator-entry rebindings
#: re-view ``dist^j``/``range1^j`` results as depth-``j+1`` frames, and
#: the R2d form re-views ``restrict^{j-1}``/``combine^{j-1}`` results at
#: depth ``j``.  ``__iter^j`` (the optimize pass's identity-gather view)
#: re-views a sequence at frame depth ``j`` as the depth-``j+1`` frame of
#: its elements.
_VIEW_OPS = frozenset({"combine", "restrict", "dist", "range1", "__iter"})

_SUBTERM_LIMIT = 200


def _subterm(e: A.Expr) -> str:
    s = " ".join(pretty(e).split())
    return s if len(s) <= _SUBTERM_LIMIT else s[:_SUBTERM_LIMIT] + " ..."


def _fail(stage: str, detail: str, e: Optional[A.Expr] = None) -> NoReturn:
    raise AnalysisError(stage, detail, _subterm(e) if e is not None else "")


# ---------------------------------------------------------------------------
# Canonical-form postcondition (after R1 + filter desugaring)
# ---------------------------------------------------------------------------

def verify_canonical(program: A.Program,
                     stage: str = "verify:canonicalize") -> int:
    """Every iterator is in the canonical ``[i <- range(1, e): body]`` form,
    ``range`` the builtin, with no residual filter.  Returns the number of
    defs checked."""
    from repro.transform.canonical import is_canonical_domain
    user_range = "range" in program
    for d in program.defs.values():
        for node in A.walk(d.body):
            if not isinstance(node, A.Iter):
                continue
            if node.filter is not None:
                _fail(stage, f"{d.name}: iterator filter survived "
                             "canonicalization", node)
            if not is_canonical_domain(node.domain, user_range):
                _fail(stage, f"{d.name}: iterator domain is not canonical "
                             "range(1, e)", node)
    return len(program.defs)


# ---------------------------------------------------------------------------
# Transformed-form postconditions (after each of eliminate/optimize/
# simplify/fuse)
# ---------------------------------------------------------------------------

class _DefChecker:
    """Checks one transformed definition; raises on the first violation."""

    def __init__(self, stage: str, fname: str,
                 is_known: Callable[[str], bool],
                 arity_of: Callable[[str], Optional[int]]):
        self.stage = stage
        self.fname = fname
        self.is_known = is_known
        self.arity_of = arity_of

    def fail(self, detail: str, e: Optional[A.Expr] = None) -> NoReturn:
        _fail(self.stage, f"{self.fname}: {detail}", e)

    # -- the frame-depth walk ------------------------------------------------

    def check(self, e: A.Expr, env: Mapping[str, int],
              lets: Mapping[str, A.Expr], in_guard: bool) -> int:
        """Returns an upper bound on the frame depth ``e`` can supply."""
        if isinstance(e, A.Var):
            fd = env.get(e.name)
            if fd is not None:
                return fd
            if self.is_known(e.name):
                return 0  # a function constant
            self.fail(f"unbound variable {e.name!r}", e)
        if isinstance(e, (A.IntLit, A.BoolLit, A.FloatLit)):
            return 0
        if isinstance(e, A.Iter):
            self.fail("residual iterator after elimination", e)
        if isinstance(e, A.Lambda):
            self.fail("lambda survived monomorphization", e)
        if isinstance(e, A.Call):
            self.fail("untransformed application (Call node) after "
                      "elimination", e)
        if isinstance(e, (A.SeqLit, A.TupleLit)):
            for item in e.items:
                self.check(item, env, lets, in_guard)
            return 0
        if isinstance(e, A.TupleExtract):
            self.check(e.tup, env, lets, in_guard)
            return 0
        if isinstance(e, A.Let):
            bfd = self.check(e.bound, env, lets, in_guard)
            env2 = dict(env)
            env2[e.var] = bfd
            lets2 = dict(lets)
            lets2[e.var] = e.bound
            return self.check(e.body, env2, lets2, in_guard)
        if isinstance(e, A.If):
            return self.check_if(e, env, lets, in_guard)
        if isinstance(e, A.ExtCall):
            return self.check_ext(e, env, lets, in_guard)
        if isinstance(e, A.IndirectCall):
            return self.check_indirect(e, env, lets, in_guard)
        self.fail(f"unexpected node {type(e).__name__} after elimination", e)

    def check_if(self, e: A.If, env: Mapping[str, int],
                 lets: Mapping[str, A.Expr], in_guard: bool) -> int:
        self.check(e.cond, env, lets, in_guard)
        if e.origin == "R2d-guard":
            if not (isinstance(e.cond, A.ExtCall) and e.cond.fn == "__any"):
                self.fail("R2d branch guard does not test __any emptiness", e)
            if not (isinstance(e.els, A.ExtCall) and e.els.fn == "__empty"):
                self.fail("R2d branch guard's empty arm is not __empty", e)
            tfd = self.check(e.then, env, lets, True)
            efd = self.check(e.els, env, lets, in_guard)
            return max(tfd, efd)
        tfd = self.check(e.then, env, lets, in_guard)
        efd = self.check(e.els, env, lets, in_guard)
        return max(tfd, efd)

    def check_args(self, e: A.Expr, what: str,
                   arg_fds: list[int], arg_depths: list[int]) -> None:
        if len(arg_fds) != len(arg_depths):
            self.fail(f"{what}: {len(arg_fds)} arguments but "
                      f"{len(arg_depths)} argument depths", e)
        for i, (fd, ad) in enumerate(zip(arg_fds, arg_depths)):
            if ad < 0:
                self.fail(f"{what}: negative argument depth {ad}", e)
            if ad > fd:
                self.fail(f"{what}: argument {i} consumed at frame depth "
                          f"{ad}, but it can supply at most depth {fd}", e)

    def check_ext(self, e: A.ExtCall, env: Mapping[str, int],
                  lets: Mapping[str, A.Expr], in_guard: bool) -> int:
        if e.origin == "R2d-restrict" and not in_guard:
            self.fail("transform-generated restrict is not dominated by an "
                      "__any emptiness guard", e)
        arg_fds = [self.check(a, env, lets, in_guard) for a in e.args]
        what = f"{e.fn}^{e.depth}"
        if e.depth < 0:
            self.fail(f"{what}: negative application depth", e)
        self.check_args(e, what, arg_fds, list(e.arg_depths))
        arity = self.arity_of(e.fn)
        if arity is not None and arity != len(e.args):
            self.fail(f"{what}: expects {arity} arguments, got "
                      f"{len(e.args)}", e)
        if e.depth >= 1 and not any(ad == e.depth for ad in e.arg_depths):
            self.fail(f"{what}: no argument at the application depth "
                      f"(argument depths {list(e.arg_depths)})", e)
        if e.origin == "R2d":
            self.check_r2d_combine(e, lets)
        if e.fn == "__any":
            return 0
        if e.fn in _VIEW_OPS:
            return e.depth + 1
        return e.depth

    def check_r2d_combine(self, e: A.ExtCall,
                          lets: Mapping[str, A.Expr]) -> None:
        if e.fn != "combine" or len(e.args) != 3:
            self.fail("R2d provenance on a non-combine application", e)
        for k in (1, 2):
            arm = e.args[k]
            tgt = lets.get(arm.name) if isinstance(arm, A.Var) else arm
            if not (isinstance(tgt, A.If) and tgt.origin == "R2d-guard"):
                self.fail("R2d combine arm is not an emptiness-guarded "
                          "branch (missing __any guard)", e)

    def check_indirect(self, e: A.IndirectCall, env: Mapping[str, int],
                       lets: Mapping[str, A.Expr], in_guard: bool) -> int:
        fun_fd = self.check(e.fun, env, lets, in_guard)
        arg_fds = [self.check(a, env, lets, in_guard) for a in e.args]
        what = f"apply^{e.depth}"
        if e.depth < 0:
            self.fail(f"{what}: negative application depth", e)
        if e.fun_depth > fun_fd:
            self.fail(f"{what}: function part consumed at frame depth "
                      f"{e.fun_depth}, but it can supply at most depth "
                      f"{fun_fd}", e)
        self.check_args(e, what, arg_fds, list(e.arg_depths))
        if e.depth >= 1 and e.fun_depth != e.depth \
                and not any(ad == e.depth for ad in e.arg_depths):
            self.fail(f"{what}: no argument at the application depth "
                      f"(argument depths {list(e.arg_depths)})", e)
        return e.depth


def verify_def(d: A.FunDef, stage: str,
               is_known: Callable[[str], bool],
               arity_of: Callable[[str], Optional[int]]) -> None:
    """Check one transformed definition against the phase postconditions."""
    chk = _DefChecker(stage, d.name, is_known, arity_of)
    env = {p: 0 for p in d.params}
    chk.check(d.body, env, {}, False)


def verify_transformed(defs: Mapping[str, A.FunDef], stage: str,
                       typed: object) -> int:
    """Check every definition of a (partially) transformed program.

    ``typed`` is the :class:`~repro.lang.typecheck.TypedProgram` used for
    name resolution and user-function arity.  Returns the number of defs
    checked (the per-phase count recorded by ``repro analyze``).
    """
    mono_defs = getattr(typed, "mono_defs", {})

    def is_known(name: str) -> bool:
        return (name in defs or name in mono_defs or B.is_builtin(name)
                or name.startswith("__"))

    def arity_of(name: str) -> Optional[int]:
        if B.is_builtin(name):
            scheme = B.get_builtin(name).scheme()
            return len(scheme.params)
        d = mono_defs.get(name)
        if d is not None:
            return len(d.params)
        return None

    for d in defs.values():
        verify_def(d, stage, is_known, arity_of)
    return len(defs)
