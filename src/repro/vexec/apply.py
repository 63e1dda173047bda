"""Shared application machinery for the vector back ends.

Every vector lane applies depth-``d`` parallel extensions the same way
(rule T1, argument replication, section-4.5 shared paths, group dispatch
over function frames), skipping descriptor surgery where no descriptor
is read: an elementwise op runs on value vectors at every depth, and a
depth-0 ``restrict`` / ``combine`` on the sequence itself.  This module
hosts that logic once; the evaluator supplies a ``call_user(name,
vector_args) -> Value`` callback for user-function bodies and an optional
``observe(op, width)`` hook for the machine simulator.

Application is split in two.  :meth:`Applier.bind` takes the *static* facts
of a call site — the name, the frame depth, which arguments reach it — and
returns a closure of the argument list in which every decision those facts
determine is already taken: the ``__iter`` view, depth 0 against depth 1
against T1, which arguments are extracted, replicated or kept shared, the
kernel object itself (a primitive's kernel, tuple construction, a fused
tree, a native segmented op, the user's ``f^1``) and whether anything is
observed.  The evaluator binds each call site once, when it lowers the
function; :meth:`Applier.apply_named` is the same thing for callers that
meet their call sites at run time (dynamic dispatch) — ``bind(...)(args)``,
memoised per signature — so T1 has one implementation.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import EvalError, VectorError, VMError
from repro.guard import runtime as _guard
from repro.lang import builtins as B
from repro.lang import types as T
from repro.obs import runtime as _obs
from repro.transform.extensions import ext1_name
from repro.transform.fuse import eval_tree, read_leaves, tree_kind
from repro.vector import ops as O
from repro.vector import segments as S
from repro.vector.extract_insert import extract, insert
from repro.vector.nested import (
    FUNTABLE, NestedVector, Value, VFun, VTuple, first_leaf,
)
from repro.vector.segments import INT_DTYPE

#: an application with its static facts decided: argument list -> result
Bound = Callable[[list], Value]


def _first(args: list) -> Value:
    """``__iter``: iteration is a view.  A sequence at frame depth j and the
    frame of its elements at depth j+1 are one representation, so the
    identity gather is literally its argument (no vector op executes, so
    nothing is observed or charged)."""
    return args[0]


def projection(k: int) -> Bound:
    """Component ``k`` (1-origin) of the tuple that is the only argument."""
    def project(args: list) -> Value:
        v, = args
        if not isinstance(v, VTuple) or k > len(v.items):
            raise EvalError(f"bad tuple projection .{k}")
        return v.items[k - 1]
    return project


def _tuple_op(name: str) -> Optional[Bound]:
    """Tuple construction / projection: the same at every depth (tuples of
    frames are frames of tuples), or None for any other name."""
    if name == "__tuple_cons":
        return VTuple
    if name.startswith("__tuple_extract_"):
        return projection(int(name.rsplit("_", 1)[1]))
    return None


def raising(error: type, message: str) -> Bound:
    """A call site (or a ``Fail`` instruction) that cannot run fails when
    it is reached, not when it is bound: an untaken branch may hold one."""
    def fail(_: list) -> Value:
        raise error(message)
    return fail


class Applier:
    """Applies named and dynamic parallel extensions on vector values.

    When a ``native`` engine (see :mod:`repro.native.engine`) is supplied,
    fused elementwise ops and segmented reductions/scans are offered to it
    first; the engine either runs a compiled C kernel (bit-identical by
    contract) or returns None, and the NumPy path below serves the call
    unchanged.  Fused ops are intercepted *before* argument replication so
    depth-0 operands reach the kernel as hoisted scalars.
    """

    def __init__(self, call_user: Callable[[str, list[Value]], Value],
                 is_user: Callable[[str], bool],
                 observe: Optional[Callable[[str, int], None]] = None,
                 fusion=None, native=None):
        self._call_user = call_user
        self._is_user = is_user
        #: the machine simulator's ``(op, width)`` hook, or None
        self.observer = observe
        self._fusion = fusion
        self._native = native
        self._bound: dict[tuple, Bound] = {}

    # -- named extension (ExtCall) ------------------------------------------------

    def apply_named(self, name: str, args: list[Value],
                    arg_depths: Sequence[int], depth: int,
                    node_type: Optional[T.Type]) -> Value:
        """Apply ``name^depth`` (T1 reduces depth >= 2 to the depth-1 form):
        :meth:`bind` on the call's static facts, once per signature."""
        key = (name, tuple(arg_depths), depth, node_type)
        bound = self._bound.get(key)
        if bound is None:
            bound = self._bound[key] = self.bind(name, key[1], depth,
                                                 node_type)
        return bound(args)

    def bind(self, name: str, arg_depths: Sequence[int], depth: int,
             node_type: Optional[T.Type]) -> Bound:
        """``name^depth`` as a function of its argument list, with every
        decision the static facts determine already taken."""
        if name == "__iter":
            return _first
        if self._fusion is not None and name in self._fusion:
            return self._bind_fused(name, arg_depths, depth)
        if depth == 0:
            return self._bind0(name, node_type)
        if name in O.UFUNCS:
            return self._bind_ew(name, arg_depths, depth)
        if name == "__seq_index_segshared":
            return lambda args: self._apply_segshared(args, depth)

        shared = name == "__seq_index_shared"
        if shared:
            name = "seq_index"
        full = tuple(i for i, fd in enumerate(arg_depths) if fd == depth)
        if not full:
            return raising(VMError, f"{name}^{depth}: no full-depth argument")
        src = full[0]
        # section 4.5: a shared source stays shared; every other argument
        # below the frame depth is replicated to the flattened frame
        holes = tuple(i for i, fd in enumerate(arg_depths)
                      if fd != depth and not (shared and i == 0))
        f1 = self._bind1(name, shared)
        t1 = depth >= 2
        seen = self.observer
        # only primitives are vector ops; a user extension's body reports
        # its own ops (charging the call too would double-count)
        observe = seen if (shared or name in O.KERNELS
                           or name.startswith("__tuple")) else None
        if not (t1 or holes or seen is not None):
            return f1  # depth 1 on full frames, unobserved: the kernel

        def run(args: list) -> Value:
            flat = list(args)
            if t1:
                for i in full:
                    flat[i] = extract(args[i], depth)
            n = O.frame_len(flat[src])
            for i in holes:
                flat[i] = rep = O.broadcast_to_count(args[i], n)
                if seen is not None:
                    # replication is a real distribute op in CVL
                    seen("replicate", O.value_size(rep))
            result = f1(flat)
            if observe is not None:
                # an op's width is the larger of its frame length and its
                # output size (producers like range1 touch every element
                # they create)
                observe(name, max(n, O.value_size(result)))
            return insert(result, args[src], depth) if t1 else result
        return run

    def _bind_ew(self, name: str, arg_depths: Sequence[int],
                 depth: int) -> Bound:
        """Elementwise ``name^depth``: its value function on the operands'
        value vectors.  It reads no descriptor, so T1 does not run: the
        result keeps the lead operand's descriptors (what ``insert`` would
        rebuild), and a depth-0 operand is a 0-d array, not a replica.  An
        observer still sees CVL's distribute of each depth-0 operand."""
        full = tuple(i for i, fd in enumerate(arg_depths) if fd == depth)
        if not full:
            return raising(VMError, f"{name}^{depth}: no full-depth argument")
        holes = tuple(i for i, fd in enumerate(arg_depths) if fd != depth)
        src, op = full[0], O.UFUNCS[name]
        # fixed by the row, or the kind its operands share
        fixed, seen = B.get_builtin(name).result_kind, self.observer

        def run(args: list) -> Value:
            lead = args[src]
            n = lead.values.size
            vals = list(args)
            for i in full:
                vals[i] = args[i].values
                if vals[i].size != n:
                    ns = sorted({args[j].values.size for j in full})
                    raise VectorError(f"{name}^1: non-conformable frames "
                                      f"with lengths {ns}")
            for i in holes:
                vals[i] = O.scalar_operand(args[i])[0]
                if seen is not None:
                    seen("replicate", n)
            result = lead.with_values(op(*vals), fixed or lead.kind)
            if _obs.PROFILER is not None:
                # counted as after T1, a scalar as a scalar (as the engine
                # counts it): each frame is its values under one length
                flat = [a if i in holes else NestedVector([[n]], a.values,
                                                          a.kind)
                        for i, a in enumerate((*args, result))]
                O.count_kernel(name, n, tuple(flat[:-1]), flat[-1])
            g = _guard.GUARD
            if g is not None and (g := g.state) is not None:
                g.after_kernel(name, n, result)
            if seen is not None:
                seen(name, n)
            return result
        return run

    def _bind_fused(self, name: str, arg_depths: Sequence[int],
                    depth: int) -> Bound:
        """A fused region at frame depth ``depth``: one vector op.  Its
        element streams are the leaves at the frame depth (an elementwise
        tree), or those :attr:`FusionRegistry.streams` names (a tree rooted
        at a segmented fold: T1 takes them to a depth-2 frame whose
        ``descs[1]`` are the segment counts); every other leaf is a
        per-call scalar.  The engine runs the region as one kernel with the
        scalars hoisted and, under a fold, never stores what the fold
        reads; when it declines (or there is none), NumPy replicates the
        scalars, evaluates the tree and the fold's own segmented kernel
        folds it.  Either way the op is profiled once, with the native
        kernel's accounting, and charged as one step."""
        tree = self._fusion.trees[name]
        fold = tree[0] == "fold"
        if fold:
            _fold, op, (body,) = tree
            streams = self._fusion.streams[name]
            seg_fn = S.FOLDS[op]
            reduction = B.get_builtin(op).fold == "reduce"
        else:
            body = tree
            streams = tuple(i for i, fd in enumerate(arg_depths)
                            if fd == depth)
        reads = read_leaves(tree)
        native, seen, src = self._native, self.observer, streams[0]

        def run(args: list) -> Value:
            flat: list = [None] * len(args)
            for i in streams:
                flat[i] = (extract(args[i], depth) if depth >= 2 else
                           args[i] if depth else O.wrap1(args[i]))
            lead = flat[src]
            n = O.check_conformable([flat[i] for i in streams], name)
            total = lead.values.size
            if fold and any(flat[i].values.size != total for i in streams):
                # what the unfused elementwise op checks of the elements
                sizes = sorted({flat[i].values.size for i in streams})
                raise VectorError(f"{name}^1: non-conformable frames with "
                                  f"lengths {sizes}")
            result = None
            if native is not None:
                result = native.apply_fused(name, tree, flat, args, n)
            if result is None:
                # counted as the engine counts: a scalar as a scalar
                counted = (tuple(args[i] if flat[i] is None else flat[i]
                                 for i in reads)
                           if _obs.PROFILER is not None else None)
                for i, a in enumerate(args):
                    if flat[i] is None:
                        flat[i] = rep = O.broadcast_to_count(a, total)
                        if seen is not None:
                            # replication is a real distribute op in CVL
                            seen("replicate", O.value_size(rep))
                vals = eval_tree(body, [leaf.values for leaf in flat])
                kind = tree_kind(body, [leaf.kind for leaf in flat])
                result = (NestedVector.splice(seg_fn(vals, lead.descs[1]),
                                              kind, lead,
                                              1 if reduction else 2)
                          if fold else lead.with_values(vals, kind))
                if counted is not None:
                    O.count_kernel(name, n, counted, result)
                g = _guard.GUARD
                if g is not None and (g := g.state) is not None:
                    g.after_kernel(name, n, result)
            if seen is not None:
                seen(name, max(total, O.value_size(result)))
            if depth >= 2:
                return insert(result, args[src], depth)
            return result if depth else O.unwrap1(result)
        return run

    def _bind1(self, name: str, shared: bool) -> Bound:
        """``name^1`` on a list of depth-1 frames."""
        native = self._native
        if shared:
            def shared_index(flat: list) -> Value:
                if native is not None:
                    result = native.apply_shared_index(flat[0], flat[1])
                    if result is not None:
                        return result
                return O.k_seq_index_shared(flat[0], flat[1])
            return shared_index
        tuple_op = _tuple_op(name)
        if tuple_op is not None:
            return tuple_op
        if name in O.KERNELS:
            kernel = O.bind_kernel(name)
            if native is None or name not in S.FOLDS:
                return kernel     # only the folds have a native kernel

            def segmented(flat: list) -> Value:
                result = native.apply_segmented(name, flat[0])
                return result if result is not None else kernel(flat)
            return segmented
        call_user, ext1 = self._call_user, ext1_name(name)
        return lambda flat: call_user(ext1, flat)

    def _bind0(self, name: str, node_type: Optional[T.Type]) -> Bound:
        """Depth-0 application: a level-0 kernel on the sequences
        themselves, or the unit-frame round trip through a depth-1 one."""
        tuple_op = _tuple_op(name)
        if tuple_op is not None:
            return tuple_op
        if name == "__seq_cons":
            return lambda args: O.seq_cons0(args, node_type)
        if self._is_user(name):
            call_user = self._call_user
            return lambda args: call_user(name, args)
        if name not in O.KERNELS:
            return raising(VMError, f"no depth-0 implementation for {name!r}")
        level0 = name in O.LEVEL0
        kernel, seen = O.bind_kernel(name, 0 if level0 else 1), self.observer

        def unit(args: list) -> Value:
            result = kernel(args) if level0 else \
                O.unwrap1(kernel([O.wrap1(a) for a in args]))
            if seen is not None:
                # a depth-0 op on a sequence still moves that much data
                seen(name, max([O.value_size(a) for a in args]
                               + [O.value_size(result), 1]))
            return result
        return unit

    def _apply_segshared(self, args: list[Value], depth: int) -> Value:
        """Generalized 4.5: source at frame depth-1, indices at full depth.
        One segmented gather instead of replicating every segment."""
        src, idx = args
        idx_leaf = first_leaf(idx)
        if not isinstance(idx_leaf, NestedVector) or idx_leaf.depth < depth:
            raise VMError("segshared index: malformed index frame")
        seg_counts = idx_leaf.descs[depth - 1]
        flat_idx = extract(idx, depth) if depth >= 2 else idx
        flat_src = extract(src, depth - 1) if depth - 1 >= 2 else src
        result = O.k_seq_index_segshared(flat_src, flat_idx, seg_counts)
        if self.observer is not None:
            self.observer("seq_index",
                          max(O.frame_len(flat_idx), O.value_size(result)))
        if depth >= 2:
            result = insert(result, idx, depth)
        return result

    # -- dynamic dispatch (IndirectCall) --------------------------------------------

    def apply_dynamic(self, fun: Value, args: list[Value],
                      arg_depths: Sequence[int], depth: int, fun_depth: int,
                      node_type: Optional[T.Type]) -> Value:
        if fun_depth == 0:
            if not isinstance(fun, VFun):
                raise EvalError(f"attempt to apply non-function {fun!r}")
            return self.apply_named(fun.name, args, arg_depths, depth, node_type)
        return self._group_dispatch(fun, args, arg_depths, depth, node_type)

    def _group_dispatch(self, fun: Value, args: list[Value],
                        arg_depths: Sequence[int], depth: int,
                        node_type: Optional[T.Type]) -> Value:
        ffr = extract(fun, depth) if depth >= 2 else fun
        if not isinstance(ffr, NestedVector) or ffr.kind != "fun":
            raise EvalError(f"not a frame of function values: {fun!r}")
        n = ffr.top_length
        ids = ffr.values
        seen = self.observer

        flat_args: list[Value] = []
        for a, fd in zip(args, arg_depths):
            if fd == depth:
                flat_args.append(extract(a, depth) if depth >= 2 else a)
            else:
                rep = O.broadcast_to_count(a, n)
                if seen is not None:
                    seen("replicate", O.value_size(rep))
                flat_args.append(rep)

        uniq = np.unique(ids)
        if uniq.size == 0:
            result: Value = O.empty_frame_like(ffr, 1, node_type) \
                if node_type is not None else O.empty_frame_like(ffr, 1, T.INT)
        elif uniq.size == 1:
            result = self._apply_group(FUNTABLE.name_of(int(uniq[0])),
                                       flat_args, n)
        else:
            pieces: list[Value] = []
            positions: list[np.ndarray] = []
            for fid in uniq:
                idx = np.flatnonzero(ids == fid).astype(INT_DTYPE)
                sub = [O.take_elements(a, idx) for a in flat_args]
                pieces.append(self._apply_group(
                    FUNTABLE.name_of(int(fid)), sub, len(idx)))
                positions.append(idx)
            result = merge_groups(pieces, positions, n)
        if seen is not None:
            seen("apply_frame", n)
        if depth >= 2:
            result = insert(result, fun, depth)
        return result

    def _apply_group(self, name: str, flat_args: list[Value], n: int) -> Value:
        if not flat_args:
            val = self.apply_named(name, [], (), 0, None)
            return O.broadcast_to_count(val, n)
        if name in O.KERNELS:
            return O.apply_kernel(name, flat_args)
        if B.is_builtin(name):
            raise VMError(f"builtin {name!r} has no depth-1 kernel")
        return self._call_user(ext1_name(name), flat_args)


def merge_groups(pieces: list[Value], positions: list[np.ndarray], n: int) -> Value:
    """Scatter per-group depth-1 frames back to their original positions."""
    order = np.concatenate(positions)
    inv = np.empty(n, dtype=INT_DTYPE)
    inv[order] = np.arange(len(order), dtype=INT_DTYPE)

    def go(*leaves: NestedVector) -> NestedVector:
        pool = O.item_levels(leaves[0], 1)
        for x in leaves[1:]:
            pool = S.concat_levels(pool, O.item_levels(x, 1))
        got = S.gather_subtrees(pool, inv)
        return NestedVector.from_levels(n, got, leaves[0].kind)

    def zipn(vals):
        if isinstance(vals[0], VTuple):
            return VTuple([zipn([v.items[i] for v in vals])
                           for i in range(len(vals[0].items))])
        return go(*vals)
    return zipn(pieces)
