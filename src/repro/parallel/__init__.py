"""The multicore backend: real parallel execution of flat vector code.

The paper's section-6 claim — flattening produces vector operations whose
work divides evenly across processors — is measured on the *simulated*
machine by E8/E13.  This package executes it for real, as
``--backend parallel``: the fused and segmented kernels of a transformed
program are re-emitted with ``#pragma omp parallel`` regions
(:mod:`repro.native.codegen` with ``omp_threads``) and compiled with
``-fopenmp``; the thread count is baked into the kernel source, so it
participates in the content-address cache key.  Results are
**bit-identical** to the serial vector and native backends (the
differential conformance suite in ``tests/parallel`` proves it at threads
1, 2, and 4).

Without OpenMP, or at one thread, the lane runs the serial native
engine, and without a C toolchain the NumPy applier — there is no second
runtime (docs/PARALLEL.md).
"""

from repro.parallel.engine import (
    default_threads, get_parallel_engine, reset_engines, set_default_threads,
)

__all__ = ["default_threads", "get_parallel_engine", "reset_engines",
           "set_default_threads"]
