"""Shared application machinery for the vector back ends.

Both the tree-walking :class:`VectorEvaluator` and the VCODE virtual machine
apply depth-``d`` parallel extensions the same way (rule T1, argument
replication, section-4.5 shared paths, group dispatch over function
frames).  This module hosts that logic once; back ends supply a
``call_user(name, vector_args) -> Value`` callback for user-function bodies
and an optional ``observe(op, width)`` hook for the machine simulator.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.errors import EvalError, VMError
from repro.lang import builtins as B
from repro.lang import types as T
from repro.vector import ops as O
from repro.vector import segments as S
from repro.vector.extract_insert import extract, insert
from repro.vector.nested import (
    FUNTABLE, NestedVector, Value, VFun, VTuple, first_leaf,
)
from repro.vector.segments import INT_DTYPE


#: segmented primitives the native engine may claim (see repro.native)
_NATIVE_SEGMENTED = frozenset(
    ("sum", "maxval", "minval", "anytrue", "alltrue",
     "plus_scan", "max_scan"))


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
        self._observe = observe
        self._fusion = fusion
        self._native = native

    def observe(self, op: str, n: int) -> None:
        if self._observe is not None:
            self._observe(op, n)

    # -- named extension (ExtCall) ------------------------------------------------

    def apply_named(self, name: str, args: list[Value], arg_depths: list[int],
                    depth: int, node_type: Optional[T.Type]) -> Value:
        """Apply ``name^depth`` (T1 reduces depth >= 2 to the depth-1 form)."""
        if name == "__iter":
            # iteration is a view: a sequence at frame depth j and the
            # frame of its elements at depth j+1 are one representation,
            # so the identity gather is literally its argument — returned
            # before any extract/replicate (no vector op executes, so
            # nothing is observed or charged)
            return args[0]
        if depth == 0:
            return self.apply0(name, args, node_type)

        if name == "__seq_index_segshared":
            return self._apply_segshared(args, depth)

        shared = name == "__seq_index_shared"
        if shared:
            name = "seq_index"
        flat: list[Optional[Value]] = []
        frame_src: Optional[Value] = None
        for a, fd in zip(args, arg_depths):
            if fd == depth:
                flat.append(extract(a, depth) if depth >= 2 else a)
                if frame_src is None:
                    frame_src = a
            else:
                flat.append(None)
        if frame_src is None:
            raise VMError(f"{name}^{depth}: no full-depth argument")
        n = O.frame_len(next(f for f in flat if f is not None))
        if self._native is not None and not shared \
                and self._fusion is not None and name in self._fusion:
            # native fused kernel: depth-0 holes in ``flat`` stay scalar
            # (hoisted into the kernel), so no replication is charged
            result = self._native.apply_fused(
                name, self._fusion.trees[name], flat, args, n)
            if result is not None:
                self.observe(name, max(n, O.value_size(result)))
                if depth >= 2:
                    result = insert(result, frame_src, depth)
                return result
        for i, f in enumerate(flat):
            if f is None:
                if shared and i == 0:
                    flat[i] = args[i]  # section 4.5: keep the source shared
                else:
                    flat[i] = O.broadcast_to_count(args[i], n)
                    # replication is a real distribute op in CVL: charge it
                    self.observe("replicate", O.value_size(flat[i]))

        result = self.apply1(name, flat, shared)
        # only primitives are vector ops; a user extension's body reports
        # its own ops (charging the call too would double-count).  An op's
        # width is the larger of its frame length and its output size
        # (producers like range1 touch every element they create).
        if shared or name in O.KERNELS or name.startswith("__tuple") \
                or (self._fusion is not None and name in self._fusion):
            self.observe(name, max(n, O.value_size(result)))
        if depth >= 2:
            result = insert(result, frame_src, depth)
        return result

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
        self.observe("seq_index",
                     max(O.frame_len(flat_idx), O.value_size(result)))
        if depth >= 2:
            result = insert(result, idx, depth)
        return result

    def apply1(self, name: str, flat: list[Value], shared: bool = False) -> Value:
        if shared:
            if self._native is not None:
                result = self._native.apply_shared_index(flat[0], flat[1])
                if result is not None:
                    return result
            return O.k_seq_index_shared(flat[0], flat[1])
        if name == "__tuple_cons":
            return VTuple(flat)
        if name.startswith("__tuple_extract_"):
            k = int(name.rsplit("_", 1)[1])
            v = flat[0]
            if not isinstance(v, VTuple) or k > len(v.items):
                raise EvalError(f"bad tuple projection .{k}")
            return v.items[k - 1]
        if self._fusion is not None and name in self._fusion:
            return self._apply_fused(name, flat)
        if self._native is not None and name in _NATIVE_SEGMENTED:
            result = self._native.apply_segmented(name, flat[0])
            if result is not None:
                return result
        if name in O.KERNELS:
            return O.apply_kernel(name, flat)
        from repro.transform.extensions import ext1_name
        return self._call_user(ext1_name(name), flat)

    def _apply_fused(self, name: str, flat: list[Value]) -> Value:
        """One vector op executing a whole fused elementwise tree."""
        from repro.transform.fuse import eval_tree, result_kind
        tree = self._fusion.trees[name]
        O.check_conformable(flat, name)
        vals = eval_tree(tree, [leaf.values for leaf in flat])
        kind = result_kind(tree, [leaf.kind for leaf in flat])
        return NestedVector(flat[0].descs, vals, kind)

    def apply0(self, name: str, args: list[Value],
               node_type: Optional[T.Type]) -> Value:
        """Depth-0 application: unit-frame round trip through the kernels."""
        if name == "__tuple_cons":
            return VTuple(args)
        if name.startswith("__tuple_extract_"):
            k = int(name.rsplit("_", 1)[1])
            v = args[0]
            if not isinstance(v, VTuple) or k > len(v.items):
                raise EvalError(f"bad tuple projection .{k}")
            return v.items[k - 1]
        if name == "__seq_cons":
            return O.seq_cons0(args, node_type)
        if self._is_user(name):
            return self._call_user(name, args)
        if name in O.KERNELS:
            # a depth-0 op on a sequence still moves that much data in CVL
            wrapped = [O.wrap1(a) for a in args]
            result = O.unwrap1(O.apply_kernel(name, wrapped))
            self.observe(name, max([O.value_size(a) for a in args]
                                   + [O.value_size(result), 1]))
            return result
        raise VMError(f"no depth-0 implementation for {name!r}")

    # -- dynamic dispatch (IndirectCall) --------------------------------------------

    def apply_dynamic(self, fun: Value, args: list[Value], arg_depths: list[int],
                      depth: int, fun_depth: int,
                      node_type: Optional[T.Type]) -> Value:
        if fun_depth == 0:
            if not isinstance(fun, VFun):
                raise EvalError(f"attempt to apply non-function {fun!r}")
            return self.apply_named(fun.name, args, arg_depths, depth, node_type)
        return self._group_dispatch(fun, args, arg_depths, depth, node_type)

    def _group_dispatch(self, fun: Value, args: list[Value],
                        arg_depths: list[int], depth: int,
                        node_type: Optional[T.Type]) -> Value:
        ffr = extract(fun, depth) if depth >= 2 else fun
        if not isinstance(ffr, NestedVector) or ffr.kind != "fun":
            raise EvalError(f"not a frame of function values: {fun!r}")
        n = ffr.top_length
        ids = ffr.values

        flat_args: list[Value] = []
        for a, fd in zip(args, arg_depths):
            if fd == depth:
                flat_args.append(extract(a, depth) if depth >= 2 else a)
            else:
                rep = O.broadcast_to_count(a, n)
                self.observe("replicate", O.value_size(rep))
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
        self.observe("apply_frame", n)
        if depth >= 2:
            result = insert(result, fun, depth)
        return result

    def _apply_group(self, name: str, flat_args: list[Value], n: int) -> Value:
        if not flat_args:
            val = self.apply_named(name, [], [], 0, None)
            return O.broadcast_to_count(val, n)
        if name in O.KERNELS:
            return O.apply_kernel(name, flat_args)
        if B.is_builtin(name):
            raise VMError(f"builtin {name!r} has no depth-1 kernel")
        from repro.transform.extensions import ext1_name
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
