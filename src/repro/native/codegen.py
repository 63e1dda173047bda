"""C code generation for fused trees: elementwise, or rooted at a
segmented fold.

Each fused region of a :class:`~repro.transform.fuse.FusionRegistry` becomes
**one** self-contained C translation unit exporting a single ``run``
function, written by one emitter (:func:`emit_fused_source`): a single
loop over the flat value vector with the whole elementwise tree applied
per element, or — when the tree is rooted at a segmented fold — a loop
nest over the segments in which the tree is computed where the fold
consumes it and what the fold reads is never stored.  The plain segmented
kernels are that nest on the identity tree.  The transformations applied
at emission time (docs/NATIVE.md walks through the emitted kernels line
by line):

* **invariant hoisting** — depth-0 operands arrive as *scalar parameters*
  instead of replicated vectors (the NumPy applier materializes a full
  ``n``-element copy of every such operand; the C kernel keeps it in a
  register),
* **loop unrolling** — the elementwise loop is unrolled 4x with a
  remainder loop, giving the C compiler straight-line bodies to schedule
  and auto-vectorize, and
* **lock-step folds** — a fold takes its segments four at a time, four
  independent accumulators advancing together, so the latency of one
  segment's dependent ``acc = acc + x`` chain is hidden behind the other
  three (the unroll-with-renaming of a reduction; the segments of one
  descriptor level are independent iterations).  At ``-O3`` GCC's loop
  vectorizer takes the lock-step loop, its tails and the leftovers of a
  ``sum`` to 16-byte vector code, and ``anytrue`` / ``alltrue``'s
  lock-step and leftover loops; integer multiplies, ``maxval`` /
  ``minval``, the scans and ``sum`` of ``real`` stay scalar
  (``tests/native/test_vectorized.py`` pins which).

Bit-identity with the NumPy applier is part of the contract (the fuzzer
runs the native backend differentially):

* integer arithmetic compiles with ``-fwrapv`` so ``long long`` overflow
  wraps exactly like NumPy's ``int64``;
* ``round_`` lowers to C ``rint`` — round-half-to-even, like ``np.rint``;
* ``max2``/``min2`` on doubles propagate NaNs the way ``np.maximum`` /
  ``np.minimum`` do;
* segmented reductions and scans accumulate **sequentially left-to-right
  within each segment** — in lock-step every accumulator still takes its
  own segment's elements in source order, and without ``-ffast-math``
  the compiler vectorizes the reduction only in order: the tree two-wide,
  the accumulation in source order — matching the float semantics
  of :mod:`repro.vector.segments` (and, by wraparound associativity, its
  integer prefix-difference method).

Checked primitives (``div``/``mod``/``fdiv``/``sqrt_``) never appear in a
fused tree (see ``builtins.CHECKED_ELEMENTWISE``), so kernels need no
error paths.
"""

from __future__ import annotations

from typing import Sequence

from ..lang import builtins as B
from ..transform.fuse import tree_kind

__all__ = ["CTYPES", "SEGMENTED_OPS", "TEAM_SOURCE", "render_tree",
           "plain_fold", "split_fold", "emit_fused_source",
           "emit_segmented_source", "emit_gather_source"]

#: C type per leaf kind (the ``fun`` kind is never compiled).
CTYPES = {"int": "long long", "bool": "unsigned char", "float": "double"}

#: segmented primitives with a native kernel — every fold of the catalog
#: — and the leaf kinds each folds (reductions produce one element per
#: segment; scans are length-preserving)
SEGMENTED_OPS = {name: row.arg_kinds for name, row in B.all_builtins().items()
                 if row.fold is not None}

_CMP = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}


def plain_fold(op: str) -> tuple:
    """The tree of plain segmented primitive ``op``: the fold of the
    identity tree."""
    return ("fold", op, (("arg", 0),))


def split_fold(tree) -> tuple:
    """``(op, body)`` for a tree rooted at segmented fold ``op`` over the
    elementwise tree ``body``; ``(None, tree)`` for an elementwise one."""
    return (tree[1], tree[2][0]) if tree[0] == "fold" else (None, tree)


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


#: how many segments a fold advances together — enough independent
#: accumulators to cover the floating-point adder's latency
_LANES = 4


def _fold_parts(op: str, kind: str) -> tuple[str, str]:
    """``(identity, step)`` of fold ``op`` over ``kind`` elements: the
    accumulator ``r`` starts at the identity and takes each element ``x``
    of its segment in source order; ``j`` is the element's position,
    where a scan stores."""
    if kind not in SEGMENTED_OPS.get(op, ()):
        raise ValueError(f"no native segmented kernel for {op}/{kind}")
    if op == "sum":
        return "0", "r += x;"
    if op == "plus_scan":
        return "0", "out[j] = r; r += x;"     # exclusive, identity 0
    if op == "anytrue":
        return "0", "if (x) r = 1;"
    if op == "alltrue":
        return "1", "if (!x) r = 0;"
    lo, hi = ("-INFINITY", "INFINITY") if kind == "float" else \
             ("LLONG_MIN", "LLONG_MAX")
    ident, cmp = (hi, "<") if op == "minval" else (lo, ">")
    # the float fold propagates NaNs, like np.maximum.reduceat
    win = f"x != x || x {cmp} r" if kind == "float" else f"x {cmp} r"
    store = " out[j] = r;" if op == "max_scan" else ""    # inclusive
    return ident, f"if ({win}) r = x;{store}"


def _fold_nest(op: str, T: str, ident: str, step: str) -> list[str]:
    """The loop nest of a fold: ``_LANES`` segments advance in lock-step
    up to the shortest of them, each tail finishes alone, and the
    ``nseg % _LANES`` leftovers run one by one.  Every accumulator still
    takes its own segment's elements in source order, so the result is
    the one-segment-at-a-time fold's, bit for bit."""
    lanes = range(_LANES)
    seg = ["s"] + [f"s + {k}" for k in lanes[1:]]
    put = [f"out[{seg[k]}] = r{k};" for k in lanes] \
        if B.get_builtin(op).fold == "reduce" else []
    return [
        f"#define STEP(r, j) {{ {T} x = BODY(j); {step} }}",
        "#define TAIL(r, p, c) \\",
        "    for (long long j = p + m; j < p + c; j++) STEP(r, j)",
        "    long long p0 = 0, s = 0;",
        f"    for (; s + {_LANES} <= nseg; s += {_LANES}) {{"
        f"    /* {_LANES} segments in lock-step */",
        "        long long " + ", ".join(
            f"c{k} = counts[{seg[k]}]" for k in lanes) + ";",
        "        long long " + ", ".join(
            f"p{k} = p{k - 1} + c{k - 1}" for k in lanes[1:]) + ";",
        "        long long m = c0;           /* the shortest of them */",
        *[f"        if (c{k} < m) m = c{k};" for k in lanes[1:]],
        f"        {T} " + ", ".join(f"r{k} = {ident}" for k in lanes) + ";",
        "        for (long long j = 0; j < m; j++) {",
        *[f"            STEP(r{k}, p{k} + j)" for k in lanes],
        "        }",
        *[f"        TAIL(r{k}, p{k}, c{k})" for k in lanes],
        *[f"        {line}" for line in put],
        f"        p0 = p{_LANES - 1} + c{_LANES - 1};",
        "    }",
        "    for (; s < nseg; s++) {         /* leftovers, one by one */",
        "        long long c0 = counts[s], m = 0;",
        f"        {T} r0 = {ident};",
        "        TAIL(r0, p0, c0)",
        *[f"        {line}" for line in put[:1]],
        "        p0 += c0;",
        "    }",
        "#undef TAIL",
        "#undef STEP",
    ]


#: pieces a threaded call is cut into per thread: enough that a thread
#: which starts late or runs slow leaves its share to the others
_PIECES = 16


def _team_entry(params: list, fold, hoisted) -> list[str]:
    """The threaded kernel's ``piece`` and ``run`` (after ``span``, the
    serial nest).  ``cur`` is the calling thread's cursor: the segment
    and the element where its last piece ended (a thread claims pieces
    in increasing order), so finding where a piece's elements start costs
    a thread one pass over ``counts`` in all."""
    names = [p.split()[-1] for p in params]
    if fold:
        cut = [f"long long g = a->nseg / {_LANES};",
               f"long long lo = g * c / nc * {_LANES};",
               f"long long hi = c + 1 < nc ? g * (c + 1) / nc * {_LANES}"
               " : a->nseg;",
               "for (; cur[0] < lo; cur[0]++)",
               "    cur[1] += a->counts[cur[0]];"]
        first = "cur[1]"
        scan = B.get_builtin(fold).fold == "scan"
        args = [f"a->out + {first if scan else 'lo'}", "a->counts + lo"]
    else:
        cut = ["long long lo = a->n * c / nc, hi = a->n * (c + 1) / nc;",
               "(void)cur;"]
        first = "lo"
        args = ["a->out + lo"]
    args += ["hi - lo"] + [f"a->s{k}" if h else f"a->a{k} + {first}"
                           for k, h in enumerate(hoisted)]
    return [
        f"struct call {{ {'; '.join(params)}; }};",
        "",
        "static void piece(const void* p, long long c, long long nc,",
        "                  long long* cur)",
        "{",
        "    const struct call* a = p;",
        *[f"    {line}" for line in cut],
        f"    span({', '.join(args)});",
        "}",
        "",
        TEAM_SOURCE,
        f"void run({', '.join(params)}, int nt, team_fn team)",
        "{",
        f"    struct call a = {{{', '.join(names)}}};",
        f"    team(piece, &a, {_PIECES}LL * nt, nt);",
        "}",
    ]


#: The team runtime a threaded kernel hands its pieces to.  Every threaded
#: kernel carries it (so one compile builds both; ``-pthread``), and the
#: engine passes the ``team_run`` of the first the process loads to every
#: threaded call, so a process has one team.  Helpers are started on first
#: use and sleep between calls.  A call's pieces are claimed one at a time
#: from one atomic word, by the calling thread and by every helper that
#: wakes while some are left; the caller waits only for pieces already
#: claimed, never for a helper that has not started, so a helper whose
#: CPU is busy or descheduled costs the call nothing.  A second thread
#: calling while the team is busy runs its pieces itself, and a forked
#: child starts helpers of its own.  Which thread runs a piece never
#: changes what the piece writes.
TEAM_SOURCE = r"""/* the team: a threaded call's pieces, run by the calling thread
 * and up to nt - 1 helpers.  It costs a few atomics a piece, and at -O3
 * it would take as long to compile as the kernel: GCC builds it at -O0. */
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize ("O0")
#endif
#include <pthread.h>
#include <sched.h>
#include <stdatomic.h>

typedef void (*piece_fn)(const void* call, long long c, long long nc,
                         long long* cur);
typedef void (*team_fn)(piece_fn piece, const void* args, long long nc,
                        int nt);

/* gen (24 bits) | pieces (20) | next unclaimed piece (20).  A claim names
 * the call it belongs to, so what it reads next is that call's: the call
 * cannot end while a piece it claimed is running. */
static _Atomic unsigned long long word;
static _Atomic long long finished;
static piece_fn fn;
static const void* call;

static pthread_mutex_t mu = PTHREAD_MUTEX_INITIALIZER;
static pthread_cond_t cv = PTHREAD_COND_INITIALIZER;
static pthread_mutex_t busy = PTHREAD_MUTEX_INITIALIZER;
static unsigned long calls;         /* under mu: calls published */
static int helpers, want, joined;   /* under mu */
static int hooked;

static void work(void)
{
    long long cur[2] = {0, 0};
    unsigned long long w = atomic_load(&word), gen = w >> 40;
    for (;;) {
        unsigned long long nc = (w >> 20) & 0xfffff, c = w & 0xfffff;
        if (w >> 40 != gen || c >= nc)
            return;
        if (atomic_compare_exchange_weak(&word, &w, w + 1)) {
            fn(call, (long long)c, (long long)nc, cur);
            atomic_fetch_add(&finished, 1);
            w = atomic_load(&word);
        }
    }
}

static void* helper(void* arg)
{
    unsigned long seen = (unsigned long)arg;
    pthread_mutex_lock(&mu);
    for (;;) {
        while (calls == seen || joined >= want)
            pthread_cond_wait(&cv, &mu);
        seen = calls;
        joined++;
        pthread_mutex_unlock(&mu);
        work();
        pthread_mutex_lock(&mu);
    }
    return 0;
}

static void child(void)
{
    /* a forked child has only the thread that forked */
    pthread_mutex_t m = PTHREAD_MUTEX_INITIALIZER;
    pthread_cond_t c = PTHREAD_COND_INITIALIZER;
    mu = m;
    busy = m;
    cv = c;
    helpers = 0;
}

void team_run(piece_fn piece, const void* args, long long nc, int nt)
{
    if (nt < 2 || nc > 0xfffff || pthread_mutex_trylock(&busy)) {
        long long cur[2] = {0, 0};
        for (long long c = 0; c < nc; c++)
            piece(args, c, nc, cur);
        return;
    }
    pthread_mutex_lock(&mu);
    if (!hooked)
        hooked = !pthread_atfork(0, 0, child);
    for (pthread_t t; helpers < nt - 1; helpers++) {
        if (pthread_create(&t, 0, helper, (void*)calls))
            break;
        pthread_detach(t);
    }
    fn = piece;
    call = args;
    atomic_store(&finished, 0);
    calls++;
    atomic_store(&word, (unsigned long long)(calls & 0xffffff) << 40
                        | (unsigned long long)nc << 20);
    want = nt - 1;
    joined = 0;
    pthread_cond_broadcast(&cv);
    pthread_mutex_unlock(&mu);
    work();
    while (atomic_load(&finished) < nc)     /* pieces still running */
        sched_yield();
    pthread_mutex_unlock(&busy);
}
"""


def emit_fused_source(tree, leaf_kinds: Sequence[str],
                      hoisted: Sequence[bool], name: str = "__fused",
                      threaded: bool = False) -> str:
    """The complete C translation unit for one fused kernel.

    ``leaf_kinds[k]`` is the scalar kind of leaf ``k``; ``hoisted[k]`` is
    True when leaf ``k`` is a loop-invariant (depth-0) operand passed as a
    scalar parameter instead of a vector.  The exported symbol is always
    ``run`` (one kernel per shared object; see :mod:`repro.native.cache`).

    An elementwise tree is ``run(out, n, <leaves>)``: one loop over the
    flat value vector, unrolled 4x.  A tree rooted at a segmented fold,
    ``("fold", op, (body,))``, is ``run(out, counts, nseg, <leaves>)``:
    ``counts`` is one descriptor level (per-segment lengths), the vector
    leaves are the flat element streams, and ``body`` is computed where
    the fold consumes it — what the fold reads is never stored.
    Reductions write ``nseg`` outputs, scans ``sum(counts)``; the nest is
    :func:`_fold_nest`'s.  Empty-segment errors for ``maxval``/``minval``
    are raised by the engine *before* the kernel runs.

    With ``threaded`` the same nest is emitted as ``span``, the team
    runtime (:data:`TEAM_SOURCE`) follows, and ``run`` takes two more
    arguments, the thread count ``nt`` and the address of a
    ``team_run``.  It packs its arguments into a ``struct call`` and
    hands the team ``16 * nt`` pieces; a ``piece`` is ``span`` on one
    contiguous slice
    of the elements or, under a fold, on whole groups of ``_LANES``
    segments and the elements they own.  The thread count is the call's,
    so one compiled variant serves every count.  Every element and every
    segment is computed by the serial kernel's own code whichever thread
    runs its piece, so the threaded kernel is bit-identical to the serial
    one by construction (see docs/PARALLEL.md).
    """
    fold, body = split_fold(tree)
    out_kind = tree_kind(body, leaf_kinds)
    if out_kind not in CTYPES:
        raise ValueError(f"cannot compile result kind {out_kind!r}")
    T = CTYPES[out_kind]
    if fold:
        ident, step = _fold_parts(fold, out_kind)
        shape = ["const long long* restrict counts", "long long nseg"]
        nest = _fold_nest(fold, T, ident, step)
        what = [f" * outer loop over segments, {_LANES} in lock-step; the tree is",
                " * computed where the fold consumes it, never stored. */",
                "#include <limits.h>"]
    else:
        shape = ["long long n"]
        nest = [
            "    long long i = 0;",
            "    for (; i + 4 <= n; i += 4) {    /* unrolled x4 */",
            "        out[i]     = BODY(i);",
            "        out[i + 1] = BODY(i + 1);",
            "        out[i + 2] = BODY(i + 2);",
            "        out[i + 3] = BODY(i + 3);",
            "    }",
            "    for (; i < n; i++)              /* remainder */",
            "        out[i] = BODY(i);",
        ]
        what = [" * one loop over the flat value vector; depth-0 operands are",
                " * hoisted scalar parameters (sK); inner loop unrolled 4x. */"]
    leaves = []
    for k, (kind, h) in enumerate(zip(leaf_kinds, hoisted)):
        if kind not in CTYPES:
            raise ValueError(f"cannot compile leaf kind {kind!r}")
        leaves.append(f"{CTYPES[kind]} s{k}" if h else
                      f"const {CTYPES[kind]}* restrict a{k}")
    params = [f"{T}* restrict out", *shape, *leaves]
    lines = [
        f"/* repro.native {'fold' if fold else 'fused'} kernel {name}"
        + (" (threaded, pieces on a team of nt):" if threaded else ":"),
        f" *   {render_tree(tree, hoisted)}",
        *what,
        "#include <math.h>",
        "",
    ]
    if _needs_nan_minmax(body):
        lines.append(_NAN_HELPERS)
    lines += [
        *(["/* the serial nest; external, so compiled as the serial run is */"]
          if threaded else []),
        f"{'void span' if threaded else 'void run'}({', '.join(params)})",
        "{",
        f"#define BODY(j) {_expr(body, list(leaf_kinds), list(hoisted), 'j')}",
        *nest,
        "#undef BODY",
        "}",
    ]
    if threaded:
        lines += ["", *_team_entry(params, fold, hoisted)]
    return "\n".join(lines) + "\n"


def emit_segmented_source(op: str, kind: str, threaded: bool = False
                          ) -> str:
    """The C translation unit for one plain segment-aware kernel,
    ``run(out, counts, nseg, v)``: the fold-rooted kernel of
    :func:`emit_fused_source` on the identity tree."""
    return emit_fused_source(plain_fold(op), [kind], [False], name=op,
                             threaded=threaded)


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
