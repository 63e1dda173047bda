"""C code generation for fused elementwise trees and segmented primitives.

Each fused region of a :class:`~repro.transform.fuse.FusionRegistry` becomes
**one** self-contained C translation unit exporting a single ``run``
function: a single loop over the flat value vector with the whole
elementwise tree applied per element.  Two classic vector-compiler
transformations are applied at emission time (docs/NATIVE.md walks through
one emitted kernel line by line):

* **invariant hoisting** — depth-0 operands arrive as *scalar parameters*
  instead of replicated vectors (the NumPy applier materializes a full
  ``n``-element copy of every such operand; the C kernel keeps it in a
  register), and
* **loop unrolling** — the inner loop is unrolled 4x with a remainder
  loop, giving the C compiler straight-line bodies to schedule and
  auto-vectorize.

Bit-identity with the NumPy applier is part of the contract (the fuzzer
runs the native backend differentially):

* integer arithmetic compiles with ``-fwrapv`` so ``long long`` overflow
  wraps exactly like NumPy's ``int64``;
* ``round_`` lowers to C ``rint`` — round-half-to-even, like ``np.rint``;
* ``max2``/``min2`` on doubles propagate NaNs the way ``np.maximum`` /
  ``np.minimum`` do;
* segmented reductions and scans accumulate **sequentially left-to-right
  within each segment**, matching the float semantics of
  :mod:`repro.vector.segments` (and, by wraparound associativity, its
  integer prefix-difference method).

Checked primitives (``div``/``mod``/``fdiv``/``sqrt_``) never appear in a
fused tree (see ``builtins.CHECKED_ELEMENTWISE``), so kernels need no
error paths.
"""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = ["CTYPES", "SEGMENTED_OPS", "render_tree", "tree_kind",
           "used_leaves", "emit_fused_source", "emit_segmented_source",
           "emit_gather_source"]

#: C type per leaf kind (the ``fun`` kind is never compiled).
CTYPES = {"int": "long long", "bool": "unsigned char", "float": "double"}

#: segmented primitives with a native kernel, and the leaf kinds each
#: supports (reductions produce one element per segment; scans are
#: length-preserving)
SEGMENTED_OPS = {
    "sum": ("int", "float"),
    "maxval": ("int", "float"),
    "minval": ("int", "float"),
    "anytrue": ("bool",),
    "alltrue": ("bool",),
    "plus_scan": ("int", "float"),
    "max_scan": ("int", "float"),
}

_BOOL_OUT = {"eq", "ne", "lt", "le", "gt", "ge", "and_", "or_", "not_"}
_CMP = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}


def tree_kind(tree, leaf_kinds: Sequence[Optional[str]]) -> Optional[str]:
    """Result kind of a (sub)tree — the per-node form of
    :func:`repro.transform.fuse.result_kind`; None when a leaf kind is
    unknown."""
    if tree[0] == "arg":
        return leaf_kinds[tree[1]]
    _tag, name, children = tree
    if name in _BOOL_OUT:
        return "bool"
    if name == "real":
        return "float"
    if name in ("trunc_", "round_", "floor_", "ceil_"):
        return "int"
    if name == "__rep":
        return tree_kind(children[1], leaf_kinds)
    return tree_kind(children[0], leaf_kinds)


def used_leaves(tree) -> frozenset:
    """Leaf indices whose *values* the tree reads (a ``__rep`` witness
    contributes only frame shape, never data)."""
    out: set[int] = set()

    def walk(t) -> None:
        if t[0] == "arg":
            out.add(t[1])
            return
        _tag, name, children = t
        if name == "__rep":
            walk(children[1])
            return
        for c in children:
            walk(c)
    walk(tree)
    return frozenset(out)


def render_tree(tree, hoisted: Sequence[bool] = ()) -> str:
    """Compact s-expression rendering of a fused op tree (for comments and
    docs): ``(mul (add a0 s1) a0)`` — ``aK`` is a vector leaf, ``sK`` a
    hoisted scalar leaf."""
    if tree[0] == "arg":
        k = tree[1]
        tag = "s" if (k < len(hoisted) and hoisted[k]) else "a"
        return f"{tag}{k}"
    _tag, name, children = tree
    if name == "__rep":
        return render_tree(children[1], hoisted)
    parts = " ".join(render_tree(c, hoisted) for c in children)
    return f"({name.rstrip('_')} {parts})"


def _expr(tree, leaf_kinds, hoisted, idx: str) -> str:
    """The C expression computing one element of the tree at index ``idx``."""
    if tree[0] == "arg":
        k = tree[1]
        return f"s{k}" if hoisted[k] else f"a{k}[{idx}]"
    _tag, name, children = tree
    if name == "__rep":
        return _expr(children[1], leaf_kinds, hoisted, idx)
    cs = [_expr(c, leaf_kinds, hoisted, idx) for c in children]
    kind = tree_kind(children[0], leaf_kinds) if children else None
    if name == "add":
        return f"({cs[0]} + {cs[1]})"
    if name == "sub":
        return f"({cs[0]} - {cs[1]})"
    if name == "mul":
        return f"({cs[0]} * {cs[1]})"
    if name == "neg":
        return f"(-{cs[0]})"
    if name == "abs_":
        if kind == "float":
            return f"fabs({cs[0]})"
        return f"({cs[0]} < 0 ? -{cs[0]} : {cs[0]})"
    if name == "max2":
        if kind == "float":
            return f"repro_fmax({cs[0]}, {cs[1]})"
        return f"({cs[0]} > {cs[1]} ? {cs[0]} : {cs[1]})"
    if name == "min2":
        if kind == "float":
            return f"repro_fmin({cs[0]}, {cs[1]})"
        return f"({cs[0]} < {cs[1]} ? {cs[0]} : {cs[1]})"
    if name in _CMP:
        return f"(unsigned char)({cs[0]} {_CMP[name]} {cs[1]})"
    if name == "and_":
        return f"(unsigned char)({cs[0]} && {cs[1]})"
    if name == "or_":
        return f"(unsigned char)({cs[0]} || {cs[1]})"
    if name == "not_":
        return f"(unsigned char)(!{cs[0]})"
    if name == "real":
        return f"(double)({cs[0]})"
    if name == "trunc_":
        return f"(long long)trunc({cs[0]})"
    if name == "round_":
        return f"(long long)rint({cs[0]})"  # half-to-even, like np.rint
    if name == "floor_":
        return f"(long long)floor({cs[0]})"
    if name == "ceil_":
        return f"(long long)ceil({cs[0]})"
    raise ValueError(f"no C lowering for primitive {name!r}")


def _needs_nan_minmax(tree) -> bool:
    if tree[0] == "arg":
        return False
    _tag, name, children = tree
    return name in ("max2", "min2") or any(_needs_nan_minmax(c)
                                           for c in children)


_NAN_HELPERS = """\
/* NaN-propagating min/max, matching np.maximum / np.minimum exactly:
 * if either operand is NaN the result is NaN (C's fmax/fmin instead
 * *discard* NaNs, so they cannot be used here). */
static inline double repro_fmax(double a, double b)
{ return (a != a) ? a : ((b != b) ? b : (a > b ? a : b)); }
static inline double repro_fmin(double a, double b)
{ return (a != a) ? a : ((b != b) ? b : (a < b ? a : b)); }
"""


def emit_fused_source(tree, leaf_kinds: Sequence[str],
                      hoisted: Sequence[bool], name: str = "__fused",
                      omp_threads: Optional[int] = None) -> str:
    """The complete C translation unit for one fused elementwise kernel.

    ``leaf_kinds[k]`` is the scalar kind of leaf ``k``; ``hoisted[k]`` is
    True when leaf ``k`` is a loop-invariant (depth-0) operand passed as a
    scalar parameter instead of a vector.  The exported symbol is always
    ``run`` (one kernel per shared object; see :mod:`repro.native.cache`).

    With ``omp_threads`` the same loop is emitted as a static ``span``
    and ``run`` becomes an OpenMP parallel region over a fixed thread
    count in which each thread runs ``span`` on its own contiguous slice
    (the count is baked into the source so it participates in the
    content-address cache key; the caller must compile with
    ``-fopenmp``).  A ``parallel for`` over the elements would be
    outlined into a function that has lost the ``restrict`` qualifiers
    and the unrolling, and ran 8-10% slower per thread than the serial
    kernel.  Every element is computed independently and by the serial
    kernel's own code, so the parallel kernel is bit-identical to the
    serial one by construction (see docs/PARALLEL.md).
    """
    out_kind = tree_kind(tree, leaf_kinds)
    if out_kind not in CTYPES:
        raise ValueError(f"cannot compile result kind {out_kind!r}")
    params = [f"{CTYPES[out_kind]}* restrict out", "long long n"]
    for k, (kind, h) in enumerate(zip(leaf_kinds, hoisted)):
        if kind not in CTYPES:
            raise ValueError(f"cannot compile leaf kind {kind!r}")
        if h:
            params.append(f"{CTYPES[kind]} s{k}")
        else:
            params.append(f"const {CTYPES[kind]}* restrict a{k}")
    body = _expr(tree, list(leaf_kinds), list(hoisted), "j")
    omp = omp_threads is not None
    lines = [
        f"/* repro.native fused kernel {name}"
        + (f" (OpenMP, {omp_threads} threads):" if omp else ":"),
        f" *   {render_tree(tree, hoisted)}",
        " * one loop over the flat value vector; depth-0 operands are",
        " * hoisted scalar parameters (sK); inner loop unrolled 4x. */",
        "#include <math.h>",
        "",
    ]
    if _needs_nan_minmax(tree):
        lines.append(_NAN_HELPERS)
    lines += [
        f"{'static void span' if omp else 'void run'}({', '.join(params)})",
        "{",
        f"#define BODY(j) {body}",
        "    long long i = 0;",
        "    for (; i + 4 <= n; i += 4) {    /* unrolled x4 */",
        "        out[i]     = BODY(i);",
        "        out[i + 1] = BODY(i + 1);",
        "        out[i + 2] = BODY(i + 2);",
        "        out[i + 3] = BODY(i + 3);",
        "    }",
        "    for (; i < n; i++)              /* remainder */",
        "        out[i] = BODY(i);",
        "#undef BODY",
        "}",
    ]
    if omp:
        args = ["out + lo", "hi - lo"] + [
            f"s{k}" if h else f"a{k} + lo" for k, h in enumerate(hoisted)]
        lines += [
            "",
            "#include <omp.h>",
            f"void run({', '.join(params)})",
            "{",
            f"#pragma omp parallel num_threads({omp_threads})",
            "    {",
            "        long long t = omp_get_thread_num();",
            "        long long k = omp_get_num_threads();",
            "        long long lo = n / k * t;",
            "        long long hi = t + 1 < k ? lo + n / k : n;",
            f"        span({', '.join(args)});",
            "    }",
            "}",
        ]
    return "\n".join(lines) + "\n"


def emit_segmented_source(op: str, kind: str,
                          omp_threads: Optional[int] = None) -> str:
    """The C translation unit for one segment-aware kernel.

    Signature: ``run(out, counts, nseg, v)`` — ``counts`` is one
    descriptor level (per-segment lengths), ``v`` the flat value vector.
    Reductions write ``nseg`` outputs, scans write ``sum(counts)``.
    Accumulation is sequential left-to-right within each segment, which is
    exactly the evaluation order the NumPy substrate guarantees (see
    module docstring).  Empty-segment errors for ``maxval``/``minval`` are
    raised by the engine *before* the kernel runs.

    With ``omp_threads`` the signature grows a ``starts`` array of
    per-segment element offsets — ``run(out, counts, starts, nseg, v)`` —
    and the *segment* loop becomes an OpenMP ``parallel for``.  Each
    segment is still folded sequentially left-to-right by exactly the
    same accumulation body, so the result is bit-identical to the serial
    kernel for every thread count (the determinism contract of
    docs/PARALLEL.md); reduction outputs are indexed by segment and scan
    outputs by element offset, so writes never overlap across threads.
    """
    if kind not in SEGMENTED_OPS.get(op, ()):
        raise ValueError(f"no native segmented kernel for {op}/{kind}")
    T = CTYPES[kind]
    if omp_threads is not None:
        head = [
            f"/* repro.native segmented kernel: {op} over {kind} segments",
            f" * (OpenMP, {omp_threads} threads).  Parallel loop over",
            " * segments; each segment folded sequentially from its",
            " * precomputed start offset, matching the serial kernel",
            " * bit for bit. */",
            "",
            f"void run({T}* restrict out, const long long* restrict counts,",
            "         const long long* restrict starts,",
            f"         long long nseg, const {T}* restrict v)",
            "{",
            f"#pragma omp parallel for schedule(static) "
            f"num_threads({omp_threads})",
            "    for (long long s = 0; s < nseg; s++) {",
            "        long long p = starts[s];",
        ]
    else:
        head = [
            f"/* repro.native segmented kernel: {op} over {kind} segments.",
            " * outer loop over segments, inner sequential loop over each",
            " * segment's slice of the flat value vector. */",
            "",
            f"void run({T}* restrict out, const long long* restrict counts,",
            f"         long long nseg, const {T}* restrict v)",
            "{",
            "    long long p = 0;",
            "    for (long long s = 0; s < nseg; s++) {",
        ]
    if op == "sum":
        body = [
            f"        {T} acc = 0;",
            "        for (long long c = counts[s]; c > 0; c--, p++)",
            "            acc += v[p];",
            "        out[s] = acc;",
        ]
    elif op in ("maxval", "minval"):
        if kind == "float":
            # NaN-propagating fold, like np.maximum.reduceat
            win = "x != x || x > acc" if op == "maxval" else \
                  "x != x || x < acc"
        else:
            win = "x > acc" if op == "maxval" else "x < acc"
        body = [
            f"        {T} acc = v[p++];",
            "        for (long long c = counts[s] - 1; c > 0; c--, p++) {",
            f"            {T} x = v[p];",
            f"            if ({win}) acc = x;",
            "        }",
            "        out[s] = acc;",
        ]
    elif op == "anytrue":
        body = [
            "        unsigned char acc = 0;",
            "        for (long long c = counts[s]; c > 0; c--, p++)",
            "            if (v[p]) acc = 1;",
            "        out[s] = acc;",
        ]
    elif op == "alltrue":
        body = [
            "        unsigned char acc = 1;",
            "        for (long long c = counts[s]; c > 0; c--, p++)",
            "            if (!v[p]) acc = 0;",
            "        out[s] = acc;",
        ]
    elif op == "plus_scan":
        body = [
            f"        {T} acc = 0;    /* exclusive scan, identity 0 */",
            "        for (long long c = counts[s]; c > 0; c--, p++) {",
            f"            {T} x = v[p];",
            "            out[p] = acc;",
            "            acc += x;",
            "        }",
        ]
    elif op == "max_scan":
        win = "x != x || x > acc" if kind == "float" else "x > acc"
        body = [
            "        long long c = counts[s];",
            "        if (c > 0) {    /* inclusive running maximum */",
            f"            {T} acc = v[p];",
            "            out[p] = acc;",
            "            p++;",
            "            for (c--; c > 0; c--, p++) {",
            f"                {T} x = v[p];",
            f"                if ({win}) acc = x;",
            "                out[p] = acc;",
            "            }",
            "        }",
        ]
    else:  # pragma: no cover
        raise ValueError(op)
    return "\n".join(head + body + ["    }", "}"]) + "\n"


def emit_gather_source(kind: str) -> str:
    """The C translation unit for the section-4.5 shared-index gather
    (``__seq_index_shared`` over a scalar sequence).

    One fused pass replaces the NumPy path's three (bounds check, index
    shift, fancy gather).  Indices are 1-origin; the kernel returns the
    position of the first out-of-range index, or -1 — the engine raises
    the applier's exact ``seq_index`` error from that position.
    """
    if kind not in CTYPES:
        raise ValueError(f"no native gather for kind {kind!r}")
    T = CTYPES[kind]
    return "\n".join([
        f"/* repro.native gather kernel: shared seq_index over {kind}.",
        " * bounds-checked 1-origin gather in a single pass. */",
        "",
        f"long long run({T}* restrict out, const {T}* restrict v,",
        "               long long m, const long long* restrict idx,",
        "               long long n)",
        "{",
        "    for (long long j = 0; j < n; j++) {",
        "        long long i = idx[j];",
        "        if (i < 1 || i > m)",
        "            return j;    /* first offender, reported by caller */",
        "        out[j] = v[i - 1];",
        "    }",
        "    return -1;",
        "}",
    ]) + "\n"
