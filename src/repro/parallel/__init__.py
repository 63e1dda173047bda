"""Thread counts for ``native``: ``--threads auto``'s pick
(:func:`~repro.parallel.engine.pick_threads`) and the native engine at a
fixed count (:func:`~repro.parallel.engine.get_parallel_engine`).  There
is no second runtime: ``--backend native --threads t`` runs every kernel
call on ``t`` threads, bit-identical to serial (docs/PARALLEL.md)."""

from repro.parallel.engine import (
    get_parallel_engine, pick_threads, reset_engines,
)

__all__ = ["get_parallel_engine", "pick_threads", "reset_engines"]
