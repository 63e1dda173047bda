"""The multicore backend: real parallel execution of flat vector code.

The paper's section-6 claim — flattening produces vector operations whose
work divides evenly across processors — is measured on the *simulated*
machine by E8/E13.  This package executes it for real, as
``--backend parallel``: every flat vector operation of a transformed
program runs across ``--threads N`` cores, with results **bit-identical**
to the serial vector and native backends (the differential conformance
suite in ``tests/parallel`` proves it at threads 1, 2, and 4).

Two cooperating paths, chosen per process at engine construction:

* **native threading** — when the C toolchain can build OpenMP shared
  objects (:func:`repro.native.toolchain.openmp_available`), fused and
  segmented kernels are re-emitted with ``#pragma omp parallel``
  regions (:mod:`repro.native.codegen` with ``omp_threads``) and compiled
  with ``-fopenmp``; the thread count is baked into the kernel source, so
  it participates in the content-address cache key;
* **pure-Python chunking** — otherwise, the segment-aware partitioner
  (:mod:`repro.vector.partition`) splits the flat value vector into
  contiguous, segment-aligned chunks dispatched to a thread pool of
  GIL-releasing NumPy kernel calls and stitched deterministically.

Either way each segment is folded sequentially by exactly one worker, so
float reductions never reassociate — the determinism contract documented
in docs/PARALLEL.md.
"""

from repro.parallel.engine import (
    MIN_PARALLEL, ParallelEngine, default_threads, get_parallel_engine,
    reset_engines, set_default_threads,
)

__all__ = ["MIN_PARALLEL", "ParallelEngine", "default_threads",
           "get_parallel_engine", "reset_engines", "set_default_threads"]
