"""Derivation documents — the KIDS story.

The paper's pipeline ran inside KIDS, an interactive program-derivation
system: the user watches the program move through rule applications from
high-level form to vector code.  This module renders that derivation as a
markdown document for any entry point: original source, canonical form
(R1), the rule applications from the trace (R2a-R2f, R0, T1), the
transformed program, the VCODE, and the generated C — the full section-5 presentation for arbitrary
programs.

Used by ``python -m repro derive FILE -e ENTRY -t TYPE ...``.
"""

from __future__ import annotations

from repro.lang.prelude import built_image
from repro.lang.pretty import pretty_def
from repro.lang.types import Type, type_str


def derivation_document(prog, entry: str, arg_types: list[Type]) -> str:
    """Render the full derivation of ``entry`` at ``arg_types``.

    ``prog`` is a :class:`repro.api.CompiledProgram` compiled with
    ``TransformOptions(trace=True)`` (rule applications are listed only if
    the trace was enabled).
    """
    mono, tp = prog.prepare(entry, tuple(arg_types))
    lines: list[str] = []
    w = lines.append

    ats = ", ".join(type_str(t) for t in arg_types)
    w(f"# Derivation of `{entry}({ats})`")
    w("")
    w("Transformation of a data-parallel Proteus program into vector")
    w("operations, following Prins & Palmer (PPoPP 1993).")
    w("")

    w("## 1. Source program (P)")
    w("")
    w("```")
    image = built_image()
    user_defs = [d for d in prog.raw if image.canonical_of(d) is None]
    w("\n\n".join(pretty_def(d) for d in user_defs))
    w("```")
    w("")

    w("## 2. Canonical form (rule R1, filter desugaring)")
    w("")
    w("Every iterator's domain becomes `[1..e]`; filters become")
    w("restrict-of-mask (paper section 2).")
    w("")
    w("```")
    canon = [prog.canonical[d.name] for d in user_defs
             if d.name in prog.canonical.defs]
    w("\n\n".join(pretty_def(d) for d in canon))
    w("```")
    w("")

    if tp.trace.entries:
        w("## 3. Rule applications (tau)")
        w("")
        for e in tp.trace.entries:
            w(f"* **{{{e.rule}}}** in `{e.where}`:")
            w(f"  `{e.before}`")
            w(f"  ⇒ `{e.after}`")
        w("")

    w("## 4. Transformed, iterator-free program")
    w("")
    w("Applications of depth-d parallel extensions are written `f^d`;")
    w("`__seq_index_shared` marks the section-4.5 no-replication path.")
    w("")
    w("```")
    w("\n\n".join(pretty_def(d) for d in tp.defs.values()))
    w("```")
    w("")

    w("## 5. VCODE (the executable notation V)")
    w("")
    w("```")
    from repro.vcode.compile import compile_transformed
    vp = compile_transformed(tp)
    w(str(vp))
    w("```")
    w("")

    w("## 6. Generated CVL-style C (what KIDS would emit)")
    w("")
    w("```c")
    from repro.vcode.emit_c import emit_program
    w(emit_program(vp).rstrip())
    w("```")
    w("")
    return "\n".join(lines)
