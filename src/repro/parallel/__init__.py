"""The multicore backend: real parallel execution of flat vector code.

The paper's section-6 claim — flattening produces vector operations whose
work divides evenly across processors — is measured on the *simulated*
machine by E8/E13.  The native engine executes it for real: a kernel call
over enough elements runs the threaded variant of its kernel
(:mod:`repro.native.codegen` with ``threaded``), which cuts the call into
pieces for the process's team of helper threads and takes the thread
count as an argument, so one artifact serves every count.
``--backend parallel --threads t`` is that engine with every call on
``t`` threads.  Results are **bit-identical**
to the serial vector and native backends (the differential conformance
suite in ``tests/parallel`` proves it at threads 1, 2, and 4).

Where the threaded kernels do not build, or at one thread, the lane runs
the serial native kernels, and without a C toolchain the NumPy applier — there is no
second runtime (docs/PARALLEL.md).
"""

from repro.parallel.engine import (
    default_threads, get_parallel_engine, reset_engines, set_default_threads,
)

__all__ = ["default_threads", "get_parallel_engine", "reset_engines",
           "set_default_threads"]
