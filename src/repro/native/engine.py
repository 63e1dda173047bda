"""Runtime bridge between the vector :class:`~repro.vexec.apply.Applier`
and compiled C kernels.

The engine is strictly an *accelerator*: every public method either returns
a result **bit-identical** to the NumPy applier's, or returns ``None`` to
make the caller fall through to NumPy (unsupported kind, deep frame,
missing toolchain).  The differential fuzzer runs the native backend
against the other three to enforce this contract.

Fused trees are specialized per *(tree, leaf kinds, hoist mask)*: an
operand that arrives as a depth-0 scalar is compiled into the kernel as a
scalar parameter — the loop-invariant hoist the NumPy path cannot do (it
must materialize an ``n``-element replica).  A tree rooted at a segmented
fold runs as one kernel over the element streams and one descriptor level
that writes the fold's result and nothing else; the plain segmented
reductions and scans are that kernel on the identity tree, so there is one
kernel table and one call path.

A call sizes its own thread count (:meth:`NativeEngine.threads_for`):
the serial kernel below ``THREAD_FLOOR`` elements a thread, else the
tree's one threaded variant, which takes the count as an argument, hands
its pieces to the process's team of helper threads and returns the serial
bits (docs/PARALLEL.md).

Executions are profiled into the ``native`` obs layer with the same
element/byte accounting the NumPy kernels use for the ``kernel`` layer, so
``repro profile`` shows per-kernel native-vs-numpy counts side by side.
The guard's ``after_kernel`` hook fires exactly as it would for the NumPy
kernel (same stage names, same budget charges) — once per kernel, on the
result that exists: under a fold root the mapped vector is never made, so
it is neither validated nor charged.
"""

from __future__ import annotations

import copy
import ctypes
import os
import threading
from typing import NamedTuple, Optional

import numpy as np

from ..guard import runtime as _guard
from ..obs import runtime as _obs
from ..lang import builtins as B
from ..transform.fuse import read_leaves, tree_kind
from ..vector.nested import NestedVector
from ..vector.ops import count_kernel
from ..vector.segments import INT_DTYPE
from ..errors import EvalError, NativeCompileError, VectorError
from . import toolchain
from .cache import CFLAGS, Kernel, KernelCache
from .codegen import (
    _LANES, CTYPES, SEGMENTED_OPS, emit_fused_source, emit_gather_source,
    plain_fold, split_fold,
)

__all__ = ["NativeEngine", "THREAD_FLOOR", "default_threads", "get_engine",
           "reset_engine", "set_default_threads"]

#: Elements a kernel call must give each thread before it adds one: the
#: measured crossover of a 2-thread call against the serial kernel
#: (docs/PARALLEL.md has the table), read also by ``--threads auto``.
THREAD_FLOOR = 65_536

_DEFAULT_THREADS: Optional[int] = None


def set_default_threads(n: Optional[int]) -> None:
    """Set the process's thread cap (the CLI's ``--threads`` lands here
    so serve and fuzz flows pick it up, and a pool worker takes its share
    of the CPUs); None restores auto-detection."""
    global _DEFAULT_THREADS
    _DEFAULT_THREADS = None if n is None else max(1, int(n))


def default_threads() -> int:
    """The most threads one call may use: the :func:`set_default_threads`
    override, else ``$REPRO_THREADS``, else the CPUs this process may run
    on (its affinity mask)."""
    if _DEFAULT_THREADS is not None:
        return _DEFAULT_THREADS
    env = os.environ.get("REPRO_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1

_DTYPES = {"int": np.int64, "bool": np.bool_, "float": np.float64}
_SCALAR_CTYPES = {"int": ctypes.c_longlong, "bool": ctypes.c_ubyte,
                  "float": ctypes.c_double}


def _strip_rep(tree):
    """Drop ``__rep`` wrappers (the witness child is frame shape only; the
    kernel never reads it)."""
    if tree[0] == "arg":
        return tree
    tag, name, children = tree
    if name == "__rep":
        return _strip_rep(children[1])
    return (tag, name, tuple(_strip_rep(c) for c in children))


def _scalar_kind(v) -> Optional[str]:
    """Kind of a hoistable depth-0 scalar, or None."""
    if isinstance(v, (bool, np.bool_)):
        return "bool"
    if isinstance(v, (int, np.integer)):
        # one outside int64 is not hoisted: NumPy's replica refuses it
        return "int" if -2 ** 63 <= v < 2 ** 63 else None
    if isinstance(v, (float, np.floating)):
        return "float"
    return None


def _frame_result(like: Optional[NestedVector], n: int, out: np.ndarray,
                  kind: str) -> NestedVector:
    """A fused tree's output as a depth-1 frame: ``like``'s descriptor (the
    first vector operand's) when there is one, else a fresh ``[n]``."""
    if like is not None:
        return like.with_values(out, kind)
    return NestedVector([np.array([n], dtype=INT_DTYPE)], out, kind)


class _Site(NamedTuple):
    """What one fused tree decides about its calls, whatever arrives."""

    ctree: tuple        #: ``__rep`` stripped, leaves renumbered 0..k-1
    used: tuple         #: the caller's index of each of those leaves
    fold: Optional[str]     #: the segmented fold at the root, if any
    reduction: bool     #: ... which writes one value per segment
    strict: bool        #: ... and refuses an empty one
    #: ``(kinds, hoisted) -> [kernel, out kind, dtype, threaded kernel]``
    variants: dict


class NativeEngine:
    """Compiles and runs native kernels for one process (kernels are shared
    across programs — the cache key is the generated source, not the
    program).  A call is bound once — per tree a :class:`_Site`, per
    ``(kinds, hoisted)`` under it the kernel with the kind and dtype it
    writes — so a warm :meth:`apply_fused` hashes the tree once, takes no
    lock, walks no tree and builds no ctypes value (``argtypes`` convert).
    The records only fill, idempotently; a refusal is never recorded, so a
    missing toolchain is asked about on every call.

    ``threads`` None sizes each call (:meth:`threads_for`); a count runs
    every call on a team of that many (1: serial): ``run(..., threads=t)``.
    A team is the calling thread and up to ``threads - 1`` helpers: a
    helper that has not woken by the time the pieces run out is not
    waited for."""

    def __init__(self, cache: Optional[KernelCache] = None):
        self.cache = cache if cache is not None else KernelCache()
        self.threads: Optional[int] = None
        self._lock = threading.Lock()
        self._sites: dict = {}    # tree -> _Site
        self._fused: dict = {}    # (compact tree, kinds, hoisted) -> Kernel
        self._threaded: dict = {}  # ... -> its threaded variant
        self._gather: dict = {}   # kind -> Kernel
        self._views: dict = {}    # thread count -> at_threads view

    def at_threads(self, threads: int) -> "NativeEngine":
        """This engine — its kernels, records and cache — with every call
        on a team of ``threads`` threads: one view per count, so the
        plans lowered for it are found again (``TransformedProgram.plans``
        is keyed by engine)."""
        t = max(1, int(threads))
        eng = self._views.get(t)
        if eng is None:
            eng = copy.copy(self)
            eng.threads = t
            eng = self._views.setdefault(t, eng)
        return eng

    def threads_for(self, elems: int, nseg: Optional[int] = None) -> int:
        """Threads for a call over ``elems`` elements (in ``nseg``
        segments under a fold): the fixed count, else as many as give
        each thread ``THREAD_FLOOR`` elements and a group of ``_LANES``
        segments, at most :func:`default_threads`."""
        if self.threads is not None:
            return self.threads
        t = elems // THREAD_FLOOR
        if nseg is not None:
            t = min(t, nseg // _LANES)
        return 1 if t < 2 else min(t, default_threads())

    # -- fused trees: elementwise, or rooted at a segmented fold ----------

    def apply_fused(self, name: str, tree, flat: list, raw: list,
                    n: int) -> Optional[NestedVector]:
        """Run fused op ``name`` natively, or return None to fall back.

        ``flat[k]`` is the extracted frame for vector leaf ``k`` (None
        for depth-0 leaves); ``raw[k]`` the original argument.  Depth-0
        scalar leaves are *hoisted* — passed to the kernel as scalar
        parameters, never replicated.  The vector leaves of an
        elementwise tree are depth-1 frames of ``n`` elements; those of a
        tree rooted at a fold are depth-2 frames of ``n`` segments whose
        ``descs[1]`` are the counts, and the kernel writes only the
        fold's result.
        """
        site = self._sites.get(tree)
        if site is None:
            site = self._sites[tree] = _site(tree)
        _ctree, used, fold, reduction, strict, variants = site
        depth = 2 if fold else 1
        kinds: list[str] = []
        hoisted: list[bool] = []
        call_args: list = []
        argv: list = []     # the kernel's scalars and addresses
        held: list = []     # copies it reads, alive until it returns
        first_vec: Optional[NestedVector] = None
        for k in used:
            v = flat[k]
            if v is None:            # depth-0 operand: hoist if scalar
                a = raw[k]
                kind = _scalar_kind(a)
                if kind is None:
                    return None
                kinds.append(kind)
                hoisted.append(True)
                call_args.append(a)
                argv.append(a.item() if isinstance(a, np.generic) else a)
            else:
                if not isinstance(v, NestedVector) or v.kind not in CTYPES \
                        or v.depth != depth:
                    return None
                if first_vec is None:
                    first_vec = v
                    if fold is None and v.values.size != n:
                        return None
                if v.values.size != first_vec.values.size:
                    return None
                kinds.append(v.kind)
                hoisted.append(False)
                call_args.append(v)
                values = v.values
                if not values.flags.c_contiguous:
                    values = np.ascontiguousarray(values)
                    held.append(values)
                argv.append(values.ctypes.data)
        if fold and first_vec is None:
            return None
        key = (tuple(kinds), tuple(hoisted))
        variant = variants.get(key)
        if variant is None:
            variant = self._variant(site, key, name)
            if variant is None:
                return None
        kernel, out_kind, dtype, threaded = variant
        if fold is None:
            shape: tuple = (n,)
            out = np.empty(n, dtype=dtype)
            t = self.threads_for(n)
        else:
            counts = np.ascontiguousarray(first_vec.descs[1],
                                          dtype=INT_DTYPE)
            nseg = counts.size
            if strict and nseg and int(counts.min()) == 0:
                # same message, raised before the kernel runs
                raise VectorError(f"{fold} of an empty sequence")
            shape = (counts.ctypes.data, nseg)
            out = np.empty(nseg if reduction else first_vec.values.size,
                           dtype=dtype)
            t = self.threads_for(first_vec.values.size, nseg)
        if t >= 2 and threaded is None:
            threaded = variant[3] = self._build(site, key, name, True)
        if t >= 2 and threaded is not None:
            threaded.run(out.ctypes.data, *shape, *argv, t, _TEAM[0])
        else:
            if kernel is None:
                kernel = variant[0] = self._build(site, key, name, False)
            kernel.run(out.ctypes.data, *shape, *argv)
        if fold is None:
            result = _frame_result(first_vec, n, out, out_kind)
        else:
            # a reduction keeps the frame level, a scan every level
            result = NestedVector.splice(out, out_kind, first_vec,
                                         1 if reduction else 2)
        if _obs.PROFILER is not None:
            count_kernel(name, n, tuple(call_args), result, "native")
        g = _guard.GUARD
        if g is not None and (g := g.state) is not None:
            g.after_kernel(name, n, result)
        return result

    def _variant(self, site: _Site, key: tuple, name: str
                 ) -> Optional[list]:
        """Bind ``site`` at leaf kinds and hoist mask ``key``, or None
        when there is no kernel to be had: an output kind C has no loop
        for, no toolchain."""
        out_kind = tree_kind(site.ctree, key[0])
        if out_kind not in (SEGMENTED_OPS[site.fold] if site.fold
                            else CTYPES):
            return None
        if not toolchain.available():
            toolchain.warn_unavailable_once()
            return None
        variant = site.variants[key] = [None, out_kind, _DTYPES[out_kind],
                                        None]
        return variant

    def _build(self, site: _Site, key: tuple, name: str, threaded: bool
               ) -> Optional[Kernel]:
        """Compile (or load) ``site``'s kernel at ``key``, once per compact
        tree, on the first call that runs it.  The threaded variant is
        None where it does not build, which answers "no threads" for the
        process (:func:`toolchain.threads_known`)."""
        if threaded and toolchain.threads_known() is False:
            return None
        kinds, hoisted = key
        ck = (site.ctree, kinds, hoisted)
        table = self._threaded if threaded else self._fused
        with self._lock:
            kernel = table.get(ck)
        if kernel is not None:
            return kernel
        # out, then the iteration space: n, or counts and nseg
        argtypes: list = [ctypes.c_void_p, ctypes.c_longlong]
        if site.fold:
            argtypes.insert(1, ctypes.c_void_p)
        for kind, h in zip(kinds, hoisted):
            argtypes.append(_SCALAR_CTYPES[kind] if h else ctypes.c_void_p)
        source = emit_fused_source(site.ctree, kinds, hoisted, name,
                                   threaded=threaded)
        if not threaded:
            kernel = self.cache.get(source, argtypes)
        else:
            try:    # then the thread count and the team's entry
                kernel = self.cache.get(
                    source, [*argtypes, ctypes.c_int, ctypes.c_void_p],
                    extra_flags=("-pthread",))
            except NativeCompileError:
                toolchain.note_threads(False)
                return None
            toolchain.note_threads(True)
        with self._lock:
            table[ck] = kernel
        if threaded:
            with _ENGINE_LOCK:
                if not _TEAM:
                    _TEAM[:] = [ctypes.cast(kernel.lib.team_run,
                                            ctypes.c_void_p).value, kernel]
        return kernel

    # -- shared-index gather (section 4.5 fast path) ----------------------

    def apply_shared_index(self, src, idx) -> Optional[NestedVector]:
        """Run ``__seq_index_shared`` over a scalar sequence natively
        (bounds check + 1-origin gather in one pass), or return None."""
        if not isinstance(src, NestedVector) or src.depth != 1 \
                or src.kind not in CTYPES:
            return None
        if not isinstance(idx, NestedVector) or idx.depth != 1 \
                or idx.kind != "int":
            return None
        kernel = self._gather_kernel(src.kind)
        if kernel is None:
            return None
        iv = np.ascontiguousarray(idx.values)
        sv = np.ascontiguousarray(src.values)
        n = int(iv.size)
        out = np.empty(n, dtype=_DTYPES[src.kind])
        bad = kernel.run(out.ctypes.data, sv.ctypes.data, int(sv.size),
                         iv.ctypes.data, n)
        if bad >= 0:
            # identical first-offender report to the NumPy path
            raise EvalError(
                f"index {int(iv[bad])} out of range 1..{int(sv.size)}")
        result = idx.with_values(out, src.kind)
        if _obs.PROFILER is not None:
            count_kernel("seq_index_shared", n, (src, idx), result,
                         "native")
        return result

    def _gather_kernel(self, kind: str) -> Optional[Kernel]:
        with self._lock:
            if kind in self._gather:
                return self._gather[kind]
        if not toolchain.available():
            toolchain.warn_unavailable_once()
            return None
        source = emit_gather_source(kind)
        argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_longlong,
                    ctypes.c_void_p, ctypes.c_longlong]
        kernel = self.cache.get(source, argtypes,
                                restype=ctypes.c_longlong)
        with self._lock:
            self._gather[kind] = kernel
        return kernel

    # -- segmented reductions and scans -----------------------------------

    def apply_segmented(self, name: str, v) -> Optional[NestedVector]:
        """Run segmented primitive ``name`` over a depth-1 frame of scalar
        sequences natively, or return None to fall back: the fold-rooted
        kernel on the identity tree."""
        if not isinstance(v, NestedVector) or name not in SEGMENTED_OPS:
            return None
        return self.apply_fused(name, plain_fold(name), [v], [v],
                                v.top_length)

    # -- introspection -----------------------------------------------------

    def status(self) -> dict:
        with self._lock:
            # a plain segmented kernel is the fold of the identity tree
            seg = sum(1 for tree, _k, _h in self._fused
                      if tree == plain_fold(tree[1]))
            fused = len(self._fused) - seg
            gather = len(self._gather)
            threaded = len(self._threaded)
        return {"toolchain": toolchain.toolchain_id(),
                "cflags": " ".join(CFLAGS),
                "available": toolchain.available(),
                "fused_kernels": fused, "segmented_kernels": seg,
                "gather_kernels": gather, "threaded_kernels": threaded,
                "cache": self.cache.stats()}


def _site(tree) -> _Site:
    used = read_leaves(tree)
    ctree = _remap_tree(_strip_rep(tree), {k: i for i, k in enumerate(used)})
    fold = split_fold(ctree)[0]
    row = B.get_builtin(fold) if fold else None
    return _Site(ctree, used, fold, bool(row and row.fold == "reduce"),
                 bool(row and row.strict), {})


def _remap_tree(tree, remap: dict):
    if tree[0] == "arg":
        return ("arg", remap[tree[1]])
    tag, name, children = tree
    return (tag, name, tuple(_remap_tree(c, remap) for c in children))


_ENGINE: Optional[NativeEngine] = None
_ENGINE_LOCK = threading.Lock()

#: The process's one team: the address of the ``team_run`` of the first
#: threaded kernel any engine loaded, and that kernel, which keeps its
#: shared object mapped.  Every threaded call of every engine passes it,
#: so helpers are shared and bounded by the largest count ever asked for.
_TEAM: list = []


def get_engine() -> Optional[NativeEngine]:
    """The process-wide engine, or None (with one warning) when there is no
    C toolchain."""
    global _ENGINE
    if not toolchain.available():
        toolchain.warn_unavailable_once()
        return None
    with _ENGINE_LOCK:
        if _ENGINE is None:
            _ENGINE = NativeEngine()
        return _ENGINE


def reset_engine() -> None:
    """Drop the process-wide engine (tests only — pair with
    :func:`repro.native.toolchain.reset`)."""
    global _ENGINE
    with _ENGINE_LOCK:
        _ENGINE = None
