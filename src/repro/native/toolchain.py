"""C toolchain discovery for the native kernel backend.

The native backend is strictly optional: when no C compiler is on the
``PATH`` the engine answers "not available" and every caller falls back to
the NumPy applier with **one** process-wide warning (tested by
``tests/native/test_fallback.py``).  Discovery runs once and is cached —
the result also feeds the kernel-cache key, so artifacts compiled by one
compiler version are never loaded under another (see
:mod:`repro.native.cache`).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import tempfile
import threading
import warnings
from typing import Optional

__all__ = ["find_cc", "toolchain_id", "available", "openmp_available",
           "threads_known", "note_threads", "warn_unavailable_once", "reset"]

_lock = threading.Lock()
_cc: Optional[str] = None
_cc_probed = False
_id: Optional[str] = None
_warned = False
_omp: Optional[bool] = None
_threads: Optional[bool] = None

#: The probe translation unit for OpenMP support: it must *compile and
#: link* with ``-fopenmp`` (a compiler that accepts the flag but ships no
#: libgomp fails at the link step, which is exactly what we want to see).
_OMP_PROBE = """\
#include <omp.h>
int probe(void) { int n = 0;
#pragma omp parallel
{
#pragma omp atomic
    n += 1;
}
return n + omp_get_max_threads(); }
"""


def find_cc() -> Optional[str]:
    """Path of the C compiler, or None.  Honours ``$CC``, then looks for
    ``cc``, ``gcc``, ``clang`` on the PATH.  Probed once per process."""
    global _cc, _cc_probed
    with _lock:
        if _cc_probed:
            return _cc
        cand = os.environ.get("CC")
        if cand:
            _cc = shutil.which(cand)
        if _cc is None:
            for name in ("cc", "gcc", "clang"):
                _cc = shutil.which(name)
                if _cc is not None:
                    break
        _cc_probed = True
        return _cc


def available() -> bool:
    """True when a C compiler was found."""
    return find_cc() is not None


def toolchain_id() -> str:
    """A string identifying the toolchain (path + reported version), part
    of every kernel-cache key so a compiler upgrade invalidates cached
    artifacts.  ``"none"`` when no compiler exists."""
    global _id
    cc = find_cc()
    if cc is None:
        return "none"
    with _lock:
        if _id is not None:
            return _id
        try:
            out = subprocess.run([cc, "--version"], capture_output=True,
                                 text=True, timeout=10)
            version = (out.stdout or out.stderr).splitlines()[0].strip() \
                if (out.stdout or out.stderr) else "unknown"
        except (OSError, subprocess.TimeoutExpired, IndexError):
            version = "unknown"
        _id = f"{cc} {version}"
        return _id


def threads_known() -> Optional[bool]:
    """Whether a threaded kernel (``-pthread``, the team runtime inside)
    built or loaded in this process; None until a threaded call asked."""
    return _threads


def note_threads(ok: bool) -> None:
    """Record whether a threaded kernel built (or loaded)."""
    global _threads
    _threads = ok


def openmp_available() -> bool:
    """True when the toolchain can build ``-fopenmp`` shared objects, a
    fact about the host that reports print; no kernel needs OpenMP (the
    threaded kernels run on the engine's own team, docs/PARALLEL.md).
    Probed once per process by compiling a tiny ``#pragma omp``
    translation unit, so a compiler that merely *tolerates* the flag
    without an OpenMP runtime answers False."""
    global _omp
    cc = find_cc()
    if cc is None:
        return False
    with _lock:
        if _omp is not None:
            return _omp
    ok = False
    try:
        with tempfile.TemporaryDirectory(prefix="repro-omp-") as d:
            c_path = os.path.join(d, "probe.c")
            so_path = os.path.join(d, "probe.so")
            with open(c_path, "w") as f:
                f.write(_OMP_PROBE)
            proc = subprocess.run(
                [cc, "-fopenmp", "-shared", "-fPIC", "-o", so_path, c_path],
                capture_output=True, text=True, timeout=30)
            ok = proc.returncode == 0 and os.path.exists(so_path)
    except (OSError, subprocess.TimeoutExpired):
        ok = False
    with _lock:
        _omp = ok
        return _omp


def warn_unavailable_once() -> None:
    """Emit the single fall-back warning the acceptance contract requires:
    native execution was requested, no toolchain exists, NumPy serves the
    request instead.  Subsequent calls are silent."""
    global _warned
    with _lock:
        if _warned:
            return
        _warned = True
    warnings.warn(
        "no C toolchain found (tried $CC, cc, gcc, clang); the native "
        "backend is falling back to the NumPy applier",
        RuntimeWarning, stacklevel=3)


def reset() -> None:
    """Forget every probe result (tests only — e.g. to simulate a machine
    without a compiler by pointing $CC at a nonexistent binary)."""
    global _cc, _cc_probed, _id, _warned, _omp, _threads
    with _lock:
        _cc = None
        _cc_probed = False
        _id = None
        _warned = False
        _omp = None
        _threads = None
