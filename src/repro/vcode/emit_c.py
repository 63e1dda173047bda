"""CVL-style C code emission (the paper's section 5 shows the C that KIDS
generates from the transformed program).

We emit compilable-looking C over an abstract ``vec_p`` handle type and a
``cvl_*`` call per vector operation — the same 1:1 instruction mapping the
vector evaluator executes.  Rule T1 appears literally in the output: every
depth >= 2 primitive is an ``cvl_extract`` / depth-1 call / ``cvl_insert``
triple.  No C toolchain or CVL exists in this environment, so this output
is presentation-level (executed semantics come from the evaluator); its
*shape* is what benchmark E6 checks against the paper.
"""

from __future__ import annotations

from repro.vcode.instructions import (
    Call, CallInd, Const, Copy, Fail, FunConst, Jump, JumpIfNot, Label, Prim,
    Ret, VFunction, VProgram,
)

_HEADER = """\
/* Generated from transformed Proteus program: P -> V translation.
 * vec_p: handle to a flat vector (descriptor or value vector) in the
 * CVL-style vector library; every cvl_* call is one vector operation. */
#include "cvl.h"
"""


def _cname(name: str) -> str:
    """C identifier for a (possibly mangled) function name."""
    return (name.replace("^", "_ext").replace("$", "_v").replace("%", "_u")
            .replace(".", "_"))


def emit_function(f: VFunction, program: VProgram | None = None) -> str:
    user_exts = set()
    if program is not None:
        user_exts = {n[:-2] for n in program.functions if n.endswith("^1")}
    params = ", ".join(f"vec_p r{p}" for p in f.params)
    lines = [f"vec_p {_cname(f.name)}({params})", "{"]
    declared = set(f.params)

    def dst(r: int) -> str:
        if r in declared:
            return f"r{r}"
        declared.add(r)
        return f"vec_p r{r}"

    for i in f.instrs:
        if isinstance(i, Const):
            lines.append(f"  {dst(i.dst)} = cvl_scalar({str(i.value).lower()});")
        elif isinstance(i, FunConst):
            lines.append(f"  {dst(i.dst)} = cvl_funval({_cname(i.name)});")
        elif isinstance(i, Copy):
            lines.append(f"  {dst(i.dst)} = r{i.src};")
        elif isinstance(i, Fail):
            lines.append(f"  {dst(i.dst)} = cvl_fail(\"{i.message}\");")
        elif isinstance(i, Prim):
            lines.extend(_emit_prim(i, dst, user_exts))
        elif isinstance(i, Call):
            args = ", ".join(f"r{a}" for a in i.args)
            lines.append(f"  {dst(i.dst)} = {_cname(i.fname)}({args});")
        elif isinstance(i, CallInd):
            args = ", ".join(f"r{a}" for a in i.args)
            lines.append(
                f"  {dst(i.dst)} = cvl_apply_frame(r{i.fun}, {i.depth}, {args});")
        elif isinstance(i, JumpIfNot):
            lines.append(f"  if (!cvl_bool(r{i.cond})) goto {_label(i.label)};")
        elif isinstance(i, Jump):
            lines.append(f"  goto {_label(i.label)};")
        elif isinstance(i, Label):
            lines.append(f"{_label(i.name)}:;")
        elif isinstance(i, Ret):
            lines.append(f"  return r{i.src};")
    lines.append("}")
    return "\n".join(lines)


def _label(l: str) -> str:
    return "L" + l.strip(".").replace(".", "_")


def _emit_prim(i: Prim, dst, user_exts=frozenset()) -> list[str]:
    args = [f"r{a}" for a in i.args]
    if i.fn == "__seq_index_segshared":
        # generalized 4.5: segmented gather, source one level shallower
        return [f"  {dst(i.dst)} = cvl_seg_index({args[0]}, {args[1]}, "
                f"{i.depth});  /* {i} */"]
    is_user = i.fn in user_exts
    name = _cname(i.fn) + "_ext1" if is_user else f"cvl_{i.fn.strip('_')}"
    if i.depth <= 1:
        call = (f"{name}({', '.join(args)})" if is_user
                else f"{name}_{i.depth}({', '.join(args)})")
        return [f"  {dst(i.dst)} = {call};  /* {i} */"]
    # rule T1, literally: extract to depth 1, apply f^1, insert the frame
    out = []
    flat = []
    frame = None
    for a, fd in zip(args, i.arg_depths):
        if fd == i.depth:
            flat.append(f"cvl_extract({a}, {i.depth})")
            if frame is None:
                frame = a
        else:
            flat.append(f"cvl_replicate({a})")
    call = (f"{name}({', '.join(flat)})" if is_user
            else f"{name}_1({', '.join(flat)})")
    out.append(f"  {dst(i.dst)} = cvl_insert({call}, {frame}, {i.depth});"
               f"  /* {i} via T1 */")
    return out


def _tree_leaf_count(tree) -> int:
    if tree[0] == "arg":
        return tree[1] + 1
    return max((_tree_leaf_count(c) for c in tree[2]), default=0)


def emit_native_kernels(fusion, threads=None) -> str:
    """Real-codegen section: the C kernel the native engine compiles for
    each fused region of a :class:`~repro.transform.fuse.FusionRegistry`
    — an elementwise tree, or one rooted at a segmented fold.

    The engine specializes each kernel at run time to the observed leaf
    kinds and hoisted (loop-invariant scalar) operands; this presentation
    emits the all-``int`` specialization, which is the shape the kernel
    cache stores (see docs/NATIVE.md for a line-by-line reading), with
    the per-call scalars of a fold-rooted region hoisted as they are when
    it runs.  With ``threads`` the kernels are the threaded variants a
    call over enough elements runs; the thread count is their argument
    ``nt`` (docs/PARALLEL.md)."""
    from repro.native.codegen import emit_fused_source, render_tree
    tag = "" if threads is None else f", threaded, nt = {threads}"
    parts = [
        f"/* --- native fused kernels (repro.native real codegen{tag})"
        " --- */"]
    for name, tree in sorted(fusion.trees.items()):
        k = _tree_leaf_count(tree)
        kinds = ["int"] * k
        streams = fusion.streams.get(name, range(k))
        hoisted = [i not in streams for i in range(k)]
        parts.append(f"/* {name}: {render_tree(tree, hoisted)} */")
        parts.append(emit_fused_source(tree, kinds, hoisted, name=name,
                                       threaded=threads is not None))
    return "\n\n".join(parts)


def emit_program(p: VProgram, fusion=None, threads=None) -> str:
    """Full C translation unit for a compiled VCODE program.

    With ``fusion`` (a populated FusionRegistry), the presentation-level
    CVL section is followed by the *compilable* native kernels the fused
    ops lower to — the real-codegen mode of the emitter
    (``threads`` selects their threaded variants)."""
    protos = []
    for f in p.functions.values():
        params = ", ".join(f"vec_p r{x}" for x in f.params)
        protos.append(f"vec_p {_cname(f.name)}({params});")
    bodies = [emit_function(f, p) for f in p.functions.values()]
    out = (_HEADER + "\n" + "\n".join(protos) + "\n\n"
           + "\n\n".join(bodies) + "\n")
    if fusion is not None and fusion.trees:
        out += "\n" + emit_native_kernels(fusion, threads) + "\n"
    return out
