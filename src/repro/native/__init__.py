"""Native megakernel backend: fused regions compiled to real C kernels.

The CVL-style emitter in :mod:`repro.vcode.emit_c` is presentation-only;
this package closes the loop to the paper's §5 end state ("C code making
calls to a vector library") by actually *running* generated C:

* :mod:`repro.native.codegen` — one self-contained C kernel per fused
  region (single loop, invariants hoisted, 4x unrolled) and per segmented
  primitive;
* :mod:`repro.native.cache` — disk-backed artifact cache keyed by content
  hash of ABI + toolchain + flags + source (hits are a single ``dlopen``,
  never a recompile).  Kernels compile at ``-O3``, where GCC's loop
  vectorizer turns a fold nest into vector code with the float reduction
  kept in order — the same bits as NumPy; never with ``-ffast-math``,
  which reassociates a sum, nor with ``-march``, which the key does not
  capture, so a shared cache could hand a CPU instructions it lacks;
* :mod:`repro.native.engine` — the runtime bridge the Applier dispatches
  through, falling back to NumPy bit-identically whenever a kernel is
  unavailable;
* :mod:`repro.native.toolchain` — compiler discovery; a machine without a
  C compiler gets the NumPy path and a single warning.

See docs/NATIVE.md for the annotated walkthrough of an emitted kernel,
the serve-layer tiering policy, and the cache layout.
"""

from .cache import ABI_VERSION, Kernel, KernelCache, default_cache_dir
from .codegen import (
    emit_fused_source, emit_segmented_source, render_tree,
)
from .engine import NativeEngine, get_engine, reset_engine
from .toolchain import available, find_cc, toolchain_id

__all__ = [
    "ABI_VERSION", "Kernel", "KernelCache", "default_cache_dir",
    "emit_fused_source", "emit_segmented_source", "render_tree",
    "NativeEngine", "get_engine", "reset_engine",
    "available", "find_cc", "toolchain_id",
]
