"""Kernel-cache battery (repro.native.cache): thundering-herd compile
deduplication, corrupted-artifact eviction, and key invalidation on ABI /
toolchain / flag changes.

Every test uses a private cache directory (tmp_path) so runs never touch
the user's ``~/.cache/repro-native`` and never see each other's
artifacts.  Skipped entirely when the machine has no C compiler — the
no-toolchain contract is covered by test_fallback.py.
"""

import ctypes
import threading

import numpy as np
import pytest

from repro.native import cache as cache_mod
from repro.native import toolchain
from repro.native.cache import KernelCache, source_key
from repro.native.codegen import emit_fused_source

pytestmark = pytest.mark.skipif(not toolchain.available(),
                                reason="no C toolchain")

#: (a0 + a1) over int vectors — the smallest real fused kernel
TREE = ("prim", "add", (("arg", 0), ("arg", 1)))
ARGTYPES = [ctypes.c_void_p, ctypes.c_longlong, ctypes.c_void_p,
            ctypes.c_void_p]


def add_source() -> str:
    return emit_fused_source(TREE, ["int", "int"], [False, False],
                             name="__fused_test")


def run_add(kernel, a, b):
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    out = np.empty(a.size, dtype=np.int64)
    kernel.run(out.ctypes.data, a.size, a.ctypes.data, b.ctypes.data)
    return out.tolist()


def test_compile_load_run(tmp_path):
    cache = KernelCache(tmp_path)
    k = cache.get(add_source(), ARGTYPES)
    assert run_add(k, [1, 2, 3], [10, 20, 30]) == [11, 22, 33]
    assert k.so_path.exists() and k.c_path.exists()
    assert k.c_path.read_text() == add_source()   # exact source kept
    s = cache.stats()
    assert s["misses"] == 1 and s["compiles"] == 1 and s["hits"] == 0


def test_hits_never_recompile(tmp_path):
    cache = KernelCache(tmp_path)
    k1 = cache.get(add_source(), ARGTYPES)
    k2 = cache.get(add_source(), ARGTYPES)
    assert k1 is k2
    s = cache.stats()
    assert s["compiles"] == 1 and s["hits"] == 1


def test_disk_artifact_reused_across_instances(tmp_path):
    """A second cache (≈ a new process) loads the .so without invoking
    cc — the mtime of the artifact proves no rebuild happened."""
    KernelCache(tmp_path).get(add_source(), ARGTYPES)
    cache2 = KernelCache(tmp_path)
    k = cache2.get(add_source(), ARGTYPES)
    assert run_add(k, [5], [6]) == [11]
    assert cache2.stats()["compiles"] == 0


def test_thundering_herd_compiles_once(tmp_path):
    """N concurrent first requests for one key: exactly one cc run; every
    caller gets the owner's kernel."""
    cache = KernelCache(tmp_path)
    src = add_source()
    kernels: list = [None] * 16
    errors: list = []
    start = threading.Barrier(16)

    def worker(i):
        try:
            start.wait()
            kernels[i] = cache.get(src, ARGTYPES)
        except BaseException as e:  # pragma: no cover - diagnostic
            errors.append(e)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert not errors
    assert all(k is kernels[0] for k in kernels)
    s = cache.stats()
    assert s["compiles"] == 1
    assert s["misses"] == 1 and s["hits"] == 15


def test_corrupted_so_evicted_and_recompiled(tmp_path):
    """A truncated/garbage .so (crashed writer, wrong arch) found on disk
    is evicted and rebuilt — callers never see the corruption.  The
    garbage artifact is planted *before* any load: a loaded .so can only
    be replaced via os.replace (new inode), never scribbled in place."""
    src = add_source()
    key = source_key(src)
    tmp_path.mkdir(exist_ok=True)
    (tmp_path / f"{key}.so").write_bytes(b"not an ELF object")
    cache = KernelCache(tmp_path)
    k = cache.get(src, ARGTYPES)
    assert run_add(k, [1], [2]) == [3]
    s = cache.stats()
    assert s["evictions"] == 1 and s["compiles"] == 1


def test_abi_bump_invalidates_key(tmp_path, monkeypatch):
    """Bumping ABI_VERSION changes every key: old artifacts are simply
    never looked at again."""
    src = add_source()
    cache = KernelCache(tmp_path)
    k_old = cache.get(src, ARGTYPES)
    old_key = source_key(src)
    monkeypatch.setattr(cache_mod, "ABI_VERSION", cache_mod.ABI_VERSION + 1)
    new_key = source_key(src)
    assert new_key != old_key
    cache2 = KernelCache(tmp_path)
    k_new = cache2.get(src, ARGTYPES)
    assert k_new.key == new_key and k_old.key == old_key
    assert cache2.stats()["compiles"] == 1   # disk hit impossible
    assert k_old.so_path.exists()            # old artifact just ages out


def test_toolchain_id_part_of_key():
    src = add_source()
    assert source_key(src, "cc 1.0") != source_key(src, "cc 2.0")


def test_cflags_part_of_key(monkeypatch):
    src = add_source()
    before = source_key(src)
    monkeypatch.setattr(cache_mod, "CFLAGS", cache_mod.CFLAGS + ["-O3"])
    assert source_key(src) != before


def test_fp_contraction_is_pinned_off(tmp_path, monkeypatch):
    """``-ffp-contract=off`` reaches the ``$CC`` command line (so a*b + c
    rounds twice, like NumPy, on an FMA target too) and sits in the key:
    an artifact built with the flags before it is not reused."""
    src = add_source()
    assert "-ffp-contract=off" in cache_mod.CFLAGS
    new_key = source_key(src)
    monkeypatch.setattr(cache_mod, "CFLAGS",
                        ["-O2", "-shared", "-fPIC", "-fwrapv"])
    assert source_key(src) != new_key
    monkeypatch.undo()

    commands = []
    real_run = cache_mod.subprocess.run

    def recording_run(cmd, **kw):
        commands.append(cmd)
        return real_run(cmd, **kw)
    monkeypatch.setattr(cache_mod.subprocess, "run", recording_run)
    k = KernelCache(tmp_path).get(src, ARGTYPES)
    assert k.key == new_key and run_add(k, [1], [2]) == [3]
    assert len(commands) == 1 and "-ffp-contract=off" in commands[0]


def test_failed_compile_not_cached_and_retried(tmp_path):
    """A failing source raises for the owner and every waiter, but the
    failure is not cached: the next call attempts a fresh compile."""
    from repro.errors import NativeCompileError
    cache = KernelCache(tmp_path)
    bad = "void run(void) { this does not compile }"
    with pytest.raises(NativeCompileError):
        cache.get(bad, [])
    with pytest.raises(NativeCompileError):
        cache.get(bad, [])
    assert cache.stats()["misses"] == 2      # both calls became owners
