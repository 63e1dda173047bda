"""Static typing for P (section 2: "we require that the types of all
expressions be static and monomorphic").

Two stages:

1. **Inference** — Hindley-Milner style unification per strongly-connected
   component of the call graph (monomorphic recursion), producing a possibly
   polymorphic *scheme* per top-level function.  Overloading in the paper's
   sense is realized as polymorphic schemes instantiated per call site.
2. **Monomorphization** — given an entry function and concrete argument
   types, specialize every reachable function to concrete types (the paper:
   "a polymorphic Proteus function can be instantiated with several different
   monomorphic argument types").  Lambdas are lifted to fresh top-level
   definitions here (legal because P function values are fully
   parameterized), so downstream stages see only named functions.

The result is a :class:`TypedProgram` whose ``instance`` method returns the
mangled name of a monomorphic specialization; every AST node of a
specialized body carries a concrete ``type``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Container, Optional

from repro.errors import TypeCheckError
from repro.lang import ast as A
from repro.lang import builtins as B
from repro.lang import types as T
from repro.lang.prelude import built_image
from repro.lang.types import (
    BOOL, FLOAT, INT, Subst, TFun, TSeq, TTuple, TVar, Type, contains_var,
    fresh_tvar, instantiate, type_str,
)

# ---------------------------------------------------------------------------
# Call graph / SCC ordering
# ---------------------------------------------------------------------------


def _call_graph(prog: A.Program, known: Container[str]
                ) -> dict[str, set[str]]:
    """Who references whom among the definitions not ``known`` yet."""
    g: dict[str, set[str]] = {}
    for d in prog:
        if d.name not in known:
            refs = A.free_vars(d.body, frozenset(d.params))
            g[d.name] = {r for r in refs
                         if r in prog.defs and r not in known}
    return g


def _sccs(graph: dict[str, set[str]]) -> list[list[str]]:
    """Tarjan's SCC algorithm, iterative; components in reverse topological
    order (callees before callers)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    onstack: set[str] = set()
    stack: list[str] = []
    out: list[list[str]] = []
    counter = [0]

    def strongconnect(v0: str) -> None:
        work = [(v0, iter(sorted(graph[v0])))]
        index[v0] = low[v0] = counter[0]
        counter[0] += 1
        stack.append(v0)
        onstack.add(v0)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(sorted(graph[w]))))
                    advanced = True
                    break
                elif w in onstack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)

    for v in sorted(graph):
        if v not in index:
            strongconnect(v)
    return out


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------


class _Inferencer:
    """Infers types within one substitution, for one SCC at a time."""

    def __init__(self, prog: A.Program):
        self.prog = prog
        self.schemes: dict[str, TFun] = {}  # generalized (may contain TVars)
        # tuple projections whose tuple type was unknown when first seen:
        # (node, result tvar) — retried once the whole unit is inferred
        self._deferred: list[tuple[A.TupleExtract, Type]] = []

    def run(self) -> dict[str, TFun]:
        """Infer every definition that has no scheme yet, callees first."""
        graph = _call_graph(self.prog, self.schemes)
        for comp in _sccs(graph):
            self._infer_component(comp)
        return self.schemes

    def _infer_component(self, names: list[str]) -> None:
        subst = Subst()
        placeholders: dict[str, TFun] = {}
        for n in names:
            d = self.prog[n]
            ptypes = []
            for i, p in enumerate(d.params):
                ann = d.param_types[i] if d.param_types else None
                ptypes.append(ann if ann is not None else fresh_tvar())
            res = d.ret_type if d.ret_type is not None else fresh_tvar()
            placeholders[n] = TFun(tuple(ptypes), res)
        for n in names:
            d = self.prog[n]
            sig = placeholders[n]
            env = dict(zip(d.params, sig.params))
            body_t = self._infer(d.body, env, subst, placeholders, n)
            subst.unify(body_t, sig.result, f"result of {n}")
        self._drain_deferred(subst)
        for n in names:
            self.schemes[n] = subst.apply(placeholders[n])  # type: ignore[assignment]

    def _drain_deferred(self, subst: Subst) -> None:
        """Retry tuple projections deferred during inference of this unit."""
        deferred, self._deferred = self._deferred, []
        for e, res in deferred:
            tt = subst.apply(e.tup.type)
            if not isinstance(tt, TTuple):
                raise TypeCheckError(
                    f"tuple projection .{e.index} applied to non-tuple type "
                    f"{type_str(tt)} (annotate the tuple if this is a parameter)",
                    e.line, e.col)
            if not (1 <= e.index <= len(tt.items)):
                raise TypeCheckError(
                    f"tuple index .{e.index} out of range for {type_str(tt)}",
                    e.line, e.col)
            subst.unify(res, tt.items[e.index - 1], "tuple projection")

    def _lookup_fn_scheme(self, name: str, placeholders: dict[str, TFun]) -> Optional[Type]:
        """Type for a reference to a top-level function or builtin."""
        if name in placeholders:
            return placeholders[name]  # monotype within the SCC
        if name in self.schemes:
            return instantiate(self.schemes[name])
        if B.is_builtin(name):
            return B.get_builtin(name).fresh_type()
        return None

    def _infer(self, e: A.Expr, env: dict[str, Type], subst: Subst,
               placeholders: dict[str, TFun], fname: str) -> Type:
        t = self._infer_inner(e, env, subst, placeholders, fname)
        e.type = t
        return t

    def _infer_inner(self, e: A.Expr, env: dict[str, Type], subst: Subst,
                     placeholders: dict[str, TFun], fname: str) -> Type:
        rec = lambda x, en=env: self._infer(x, en, subst, placeholders, fname)

        if isinstance(e, A.IntLit):
            return INT
        if isinstance(e, A.BoolLit):
            return BOOL
        if isinstance(e, A.FloatLit):
            return FLOAT
        if isinstance(e, A.Var):
            if e.origin == A.BUILTIN:
                return B.get_builtin(e.name).fresh_type()
            if e.name in env:
                return env[e.name]
            t = self._lookup_fn_scheme(e.name, placeholders)
            if t is None:
                raise TypeCheckError(f"unbound variable {e.name!r}", e.line, e.col)
            return t
        if isinstance(e, A.SeqLit):
            elem = fresh_tvar()
            for item in e.items:
                subst.unify(rec(item), elem, "sequence literal")
            return TSeq(elem)
        if isinstance(e, A.TupleLit):
            return TTuple(tuple(rec(x) for x in e.items))
        if isinstance(e, A.TupleExtract):
            tt = subst.apply(rec(e.tup))
            if not isinstance(tt, TTuple):
                if contains_var(tt):
                    # the tuple type may become known later in this unit:
                    # defer and retry after the whole unit is inferred
                    res = fresh_tvar()
                    self._deferred.append((e, res))
                    return res
                raise TypeCheckError(
                    f"tuple projection .{e.index} applied to non-tuple type "
                    f"{type_str(tt)}", e.line, e.col)
            if not (1 <= e.index <= len(tt.items)):
                raise TypeCheckError(
                    f"tuple index .{e.index} out of range for {type_str(tt)}",
                    e.line, e.col)
            return tt.items[e.index - 1]
        if isinstance(e, A.Call):
            ft = rec(e.fn)
            args = [rec(a) for a in e.args]
            res = fresh_tvar()
            subst.unify(ft, TFun(tuple(args), res), _call_desc(e))
            return res
        if isinstance(e, A.Lambda):
            # enforce full parameterization: free vars must be params/globals
            free = A.free_vars(e.body, frozenset(e.params))
            for v in sorted(free):
                if v in env and not (v in self.prog.defs or B.is_builtin(v)):
                    raise TypeCheckError(
                        f"function value captures local variable {v!r}; "
                        "P function values must be fully parameterized",
                        e.line, e.col)
            ptypes = [fresh_tvar() for _ in e.params]
            inner = dict(env)
            inner.update(zip(e.params, ptypes))
            body_t = self._infer(e.body, inner, subst, placeholders, fname)
            return TFun(tuple(ptypes), body_t)
        if isinstance(e, A.Let):
            bt = rec(e.bound)
            inner = dict(env)
            inner[e.var] = bt
            return self._infer(e.body, inner, subst, placeholders, fname)
        if isinstance(e, A.If):
            subst.unify(rec(e.cond), BOOL, "condition of if")
            tt = rec(e.then)
            et = rec(e.els)
            subst.unify(tt, et, "branches of if")
            return tt
        if isinstance(e, A.Iter):
            dt = rec(e.domain)
            elem = fresh_tvar()
            subst.unify(dt, TSeq(elem), "iterator domain")
            inner = dict(env)
            inner[e.var] = elem
            if e.filter is not None:
                ft = self._infer(e.filter, inner, subst, placeholders, fname)
                subst.unify(ft, BOOL, "iterator filter")
            body_t = self._infer(e.body, inner, subst, placeholders, fname)
            return TSeq(body_t)
        raise TypeCheckError(
            f"cannot type node {type(e).__name__} (transformed nodes are not "
            "typed by this checker)", getattr(e, "line", 0), getattr(e, "col", 0))


def _call_desc(e: A.Call) -> str:
    if isinstance(e.fn, A.Var):
        return f"call of {e.fn.name}"
    return "call"


# ---------------------------------------------------------------------------
# Monomorphization
# ---------------------------------------------------------------------------


@dataclass
class TypedProgram:
    """Inference results plus a registry of monomorphic specializations."""

    source: A.Program
    schemes: dict[str, TFun]
    mono_defs: dict[str, A.FunDef] = field(default_factory=dict)
    _instances: dict[tuple, str] = field(default_factory=dict)
    _mono_counter: dict[str, int] = field(default_factory=dict)

    # -- public API ----------------------------------------------------------

    def scheme_of(self, name: str) -> TFun:
        """The (generalized) type of top-level function or primitive
        ``name``; a primitive's is freshly instantiated per call."""
        if name in self.schemes:
            return self.schemes[name]
        if B.is_builtin(name):
            return B.get_builtin(name).fresh_type()
        raise TypeCheckError(f"unknown function {name!r}")

    def instance(self, name: str, arg_types: tuple[Type, ...]) -> str:
        """Return the mono-name of ``name`` specialized to ``arg_types``,
        creating (and recursively specializing) it on first use."""
        if name not in self.schemes:
            raise TypeCheckError(f"unknown function {name!r}")
        key = (name, arg_types)
        if key in self._instances:
            return self._instances[key]
        d = self.source[name]
        if len(arg_types) != len(d.params):
            raise TypeCheckError(
                f"{name} expects {len(d.params)} arguments, got {len(arg_types)}")
        # check the argument types against the scheme before committing
        subst = Subst()
        sig = instantiate(self.schemes[name])
        assert isinstance(sig, TFun)
        for at, pt in zip(arg_types, sig.params):
            subst.unify(at, pt, f"specialization of {name}")
        mono = self._mangle(name)
        self._instances[key] = mono
        self._specialize(name, mono, arg_types)
        return mono

    def result_type(self, mono_name: str) -> Type:
        """The result type of monomorphized instance ``mono_name``."""
        return self.mono_defs[mono_name].ret_type

    # -- internals -----------------------------------------------------------

    def _mangle(self, name: str) -> str:
        """A fresh mono-name for ``name``; never a builtin's name, so that
        after monomorphization a call by a builtin's name is the builtin."""
        k = self._mono_counter.get(name, 0)
        self._mono_counter[name] = k + 1
        return name if k == 0 and not B.is_builtin(name) else f"{name}${k}"

    def _lift_lambda(self, lam: A.Lambda, subst: Subst) -> str:
        """Lift a (concretely typed) lambda to a fresh top-level mono def."""
        ft = subst.default_unresolved(subst.apply(lam.type))
        assert isinstance(ft, TFun)
        mono = A.fresh_name("lam")
        d = A.FunDef(name=mono, params=list(lam.params), body=lam.body,
                     param_types=list(ft.params), ret_type=ft.result)
        self.mono_defs[mono] = d
        return mono

    def _specialize(self, name: str, mono: str, arg_types: tuple[Type, ...]) -> None:
        src = self.source[name]
        body = A.clone(src.body)
        subst = Subst()
        env = dict(zip(src.params, arg_types))
        inf = _Inferencer(self.source)
        inf.schemes = self.schemes
        ret_hint = src.ret_type
        bt = inf._infer(body, env, subst, {}, name)
        inf._drain_deferred(subst)
        if ret_hint is not None:
            subst.unify(bt, ret_hint, f"result of {name}")
        # register the def *before* resolving, so recursion terminates
        d = A.FunDef(name=mono, params=list(src.params), body=body,
                     param_types=list(arg_types),
                     ret_type=subst.default_unresolved(subst.apply(bt)),
                     line=src.line, col=src.col)
        self.mono_defs[mono] = d
        d.body = self._resolve(body, subst, set(src.params))

    def _resolve(self, e: A.Expr, subst: Subst, locals_: set[str]) -> A.Expr:
        """Concretize node types and rewrite function references to mono names.

        ``locals_`` tracks in-scope value variables so that a Var naming both
        a local and a top-level function resolves to the local.
        """
        e.type = subst.default_unresolved(subst.apply(e.type))

        if isinstance(e, A.Var):
            if e.name not in locals_ and e.name in self.schemes \
                    and e.origin != A.BUILTIN:
                ft = e.type
                if not isinstance(ft, TFun):
                    raise TypeCheckError(
                        f"top-level function {e.name!r} used as a non-function value")
                mono = self.instance(e.name, ft.params)
                if mono != e.name:
                    v = A.Var(mono)
                    v.type = ft
                    v.line, v.col = e.line, e.col
                    return v
            return e
        if isinstance(e, A.Lambda):
            # resolve the body first (with only the lambda's params in scope)
            e2 = A.Lambda(list(e.params),
                          self._resolve(e.body, subst, set(e.params)))
            e2.type = e.type
            e2.line, e2.col = e.line, e.col
            mono = self._lift_lambda(e2, subst)
            v = A.Var(mono)
            v.type = e.type
            v.line, v.col = e.line, e.col
            return v
        if isinstance(e, A.Let):
            e.bound = self._resolve(e.bound, subst, locals_)
            e.body = self._resolve(e.body, subst, locals_ | {e.var})
            return e
        if isinstance(e, A.Iter):
            e.domain = self._resolve(e.domain, subst, locals_)
            inner = locals_ | {e.var}
            if e.filter is not None:
                e.filter = self._resolve(e.filter, subst, inner)
            e.body = self._resolve(e.body, subst, inner)
            return e
        if isinstance(e, A.Call):
            e.fn = self._resolve(e.fn, subst, locals_)
            e.args = [self._resolve(a, subst, locals_) for a in e.args]
            return e
        if isinstance(e, A.SeqLit):
            e.items = [self._resolve(x, subst, locals_) for x in e.items]
            return e
        if isinstance(e, A.TupleLit):
            e.items = [self._resolve(x, subst, locals_) for x in e.items]
            return e
        if isinstance(e, A.TupleExtract):
            e.tup = self._resolve(e.tup, subst, locals_)
            return e
        if isinstance(e, A.If):
            e.cond = self._resolve(e.cond, subst, locals_)
            e.then = self._resolve(e.then, subst, locals_)
            e.els = self._resolve(e.els, subst, locals_)
            return e
        return e


def typecheck_program(prog: A.Program) -> TypedProgram:
    """Infer schemes for every top-level definition of ``prog``.

    Inference is per SCC, callees first, so a scheme depends only on the
    names its definition transitively references.  One of the prelude
    image's own definitions therefore keeps the image's scheme when
    ``prog`` gives each of those names the image's meaning; when a user
    name shadows into it, it is inferred again like a user definition --
    on a private copy, the image's nodes being shared between programs
    and threads.
    """
    image = built_image()
    ours = [d for d in prog if image.is_canonical(d)]
    # names that do not mean in ``prog`` what they mean in the image
    foreign = ((prog.defs.keys() | image.refs.keys())
               - {d.name for d in ours})
    defs, schemes = dict(prog.defs), {}
    for d in ours:
        if image.refs[d.name].isdisjoint(foreign):
            schemes[d.name] = image.schemes[d.name]
        else:
            defs[d.name] = replace(d, body=A.clone(d.body))
    inf = _Inferencer(A.Program(defs))
    inf.schemes = schemes
    return TypedProgram(source=prog, schemes=inf.run())
