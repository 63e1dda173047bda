"""Disk-backed artifact cache for compiled native kernels.

Keyed like the serve-layer :class:`~repro.serve.cache.CompileCache`, but the
value is a shared object on disk instead of a program in memory:

* **key** = SHA-256 of ``ABI version + toolchain id + compile flags + C
  source``.  Any change to the calling convention (``ABI_VERSION`` bump),
  the compiler (path or reported version), the flags (``-fwrapv`` is
  load-bearing for bit-identity), or the generated source produces a new
  key, so stale artifacts are never loaded — they are simply ignored and
  age out.
* **layout** — one directory (``$REPRO_NATIVE_CACHE`` or
  ``~/.cache/repro-native``) holding ``<key>.c`` (the exact source, kept
  for inspection and CI artifacts) and ``<key>.so``.
* **hits never recompile** — a hit is a single ``dlopen`` of the cached
  ``.so`` (the loader maps it copy-on-write; pages are shared across
  processes).
* **thundering herd** — concurrent misses on one key compile once: the
  first caller becomes the owner, the rest wait on an event and receive
  the owner's kernel (or its error).  Failures are delivered to waiters
  but never cached, so a transient failure is retried by the next caller.
* **corruption** — a ``.so`` that fails to load (truncated file from a
  crashed writer, wrong architecture) is evicted and recompiled once;
  only a second consecutive failure raises :class:`NativeCompileError`.

Writes are atomic (compile to a per-process temp name in the cache
directory, then ``os.replace``), so a torn ``.so`` is impossible; a
``<key>.lock`` file extends the thundering-herd dedup **across
processes**: one process owns the compile while others wait for the
artifact.  The lock is advisory and crash-safe — a lock whose owner pid
is dead, or older than ``$REPRO_NATIVE_LOCK_TIMEOUT`` (default 120 s),
is *stale* and taken over, so an owner SIGKILLed mid-compile can never
deadlock its waiters (regression-tested by
``tests/native/test_lockfile.py``).  Takeover races at worst duplicate a
compile; the atomic ``os.replace`` keeps that harmless.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional

from ..errors import NativeCompileError
from . import toolchain

__all__ = ["ABI_VERSION", "Kernel", "KernelCache", "default_cache_dir"]

#: Bumped whenever the generated ``run`` signature or calling convention
#: changes; invalidates every cached artifact at once.
ABI_VERSION = 1

#: Flags matter for bit-identity: ``-fwrapv`` makes signed ``long long``
#: overflow wrap like NumPy's int64 instead of being undefined, and
#: ``-ffp-contract=off`` keeps ``a*b + c`` two roundings, as NumPy
#: computes it, on targets where the compiler could fuse them into one.
#: ``-O3`` turns on GCC's loop vectorizer, which takes a fold nest's
#: loops to vector code while keeping a float reduction in order (the
#: tree two elements at a time, each accumulator taking its own
#: segment's elements in source order): the same bits in less time,
#: where at ``-O2`` no emitted loop vectorizes (docs/NATIVE.md has the
#: table and the timings).  Still no ``-ffast-math``: it reassociates the
#: sum and changes bits.  And no ``-march``: the key does not name the
#: CPU, so an artifact built for one could be loaded on another that
#: lacks its instructions.
CFLAGS = ["-O3", "-shared", "-fPIC", "-fwrapv", "-ffp-contract=off"]

#: How often a waiter re-checks the owner's lock and artifact.
LOCK_POLL_S = 0.05


def _lock_timeout_s() -> float:
    """Age past which a compile lock is stale even if its owner pid is
    alive (a wedged compiler); ``$REPRO_NATIVE_LOCK_TIMEOUT`` overrides
    the 120 s default (tests set it very low)."""
    try:
        return float(os.environ.get("REPRO_NATIVE_LOCK_TIMEOUT", "120"))
    except ValueError:
        return 120.0


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_NATIVE_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-native"


def source_key(source: str, toolchain_id: Optional[str] = None,
               extra_flags: tuple = ()) -> str:
    """Cache key for one kernel: content hash of ABI + toolchain + flags
    + source.  ``extra_flags`` (``-pthread`` for the threaded kernels)
    join the flag section of the key, so a threaded build never aliases a
    serial one."""
    if toolchain_id is None:
        toolchain_id = toolchain.toolchain_id()
    h = hashlib.sha256()
    h.update(f"abi{ABI_VERSION}\0{toolchain_id}\0"
             f"{' '.join([*CFLAGS, *extra_flags])}\0".encode())
    h.update(source.encode())
    return h.hexdigest()


@dataclass
class Kernel:
    """A loaded native kernel: the ctypes ``run`` symbol plus provenance."""

    run: Callable
    key: str
    c_path: Path
    so_path: Path
    lib: ctypes.CDLL = field(repr=False, default=None)  # keep the handle alive


class _Entry:
    """In-flight or finished compile slot (same protocol as the serve
    CompileCache): the owner compiles and sets ``done``; waiters block on
    it and read ``kernel`` or re-raise ``error``."""

    __slots__ = ("done", "kernel", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.kernel: Optional[Kernel] = None
        self.error: Optional[BaseException] = None


class KernelCache:
    """Two-level kernel cache: loaded ``Kernel`` objects in memory, compiled
    ``.so`` artifacts on disk."""

    def __init__(self, directory: Optional[Path] = None):
        self.directory = Path(directory) if directory else default_cache_dir()
        self._lock = threading.Lock()
        self._entries: Dict[str, _Entry] = {}
        self.hits = 0          # in-memory or on-disk artifact reused
        self.misses = 0        # key never seen: compile required
        self.compiles = 0      # cc actually invoked
        self.evictions = 0     # corrupted .so removed from disk
        self.lock_waits = 0    # deferred to another process's compile
        self.takeovers = 0     # stale locks broken (dead or wedged owner)

    # -- public -----------------------------------------------------------

    def get(self, source: str, argtypes, restype=None,
            extra_flags: tuple = ()) -> Kernel:
        """The compiled kernel for ``source`` (compiling at most once per
        key across all threads).  ``argtypes`` is the ctypes signature to
        install on the ``run`` symbol; ``extra_flags`` extend ``CFLAGS``
        for this kernel and are part of its cache key."""
        key = source_key(source, extra_flags=extra_flags)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                if entry.done.is_set() and entry.kernel is not None:
                    self.hits += 1
                    return entry.kernel
                if not entry.done.is_set():
                    owner = False
                else:  # previous attempt failed: this caller retries
                    entry = _Entry()
                    self._entries[key] = entry
                    owner = True
            else:
                entry = _Entry()
                self._entries[key] = entry
                owner = True
            if owner:
                self.misses += 1
        if not owner:
            entry.done.wait()
            if entry.error is not None:
                raise entry.error
            self.hits += 1
            return entry.kernel
        try:
            kernel = self._build(key, source, argtypes, restype, extra_flags)
        except BaseException as exc:
            entry.error = exc
            entry.done.set()
            raise
        entry.kernel = kernel
        entry.done.set()
        return kernel

    def stats(self) -> dict:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "compiles": self.compiles, "evictions": self.evictions,
                    "lock_waits": self.lock_waits,
                    "takeovers": self.takeovers,
                    "loaded": sum(1 for e in self._entries.values()
                                  if e.kernel is not None),
                    "directory": str(self.directory)}

    # -- internals --------------------------------------------------------

    def _build(self, key: str, source: str, argtypes, restype,
               extra_flags: tuple = ()) -> Kernel:
        c_path = self.directory / f"{key}.c"
        so_path = self.directory / f"{key}.so"
        if so_path.exists():
            try:
                return self._load(key, c_path, so_path, argtypes, restype)
            except OSError:
                # corrupted / stale artifact: evict, recompile below
                with self._lock:
                    self.evictions += 1
                try:
                    os.remove(so_path)
                except OSError:
                    pass
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise NativeCompileError("cache", f"{self.directory}: {exc}") \
                from exc
        lock_path = self.directory / f"{key}.lock"
        while True:
            if self._acquire_lock(lock_path):
                try:
                    # a concurrent owner may have produced the artifact
                    # while this process queued for the lock
                    if not so_path.exists():
                        self._compile(key, source, c_path, so_path,
                                      extra_flags)
                finally:
                    self._release_lock(lock_path)
                break
            with self._lock:
                self.lock_waits += 1
            self._await_owner(lock_path, so_path)
            if so_path.exists():
                break
            # the owner released (or died) without an artifact — its
            # compile failed; compete for the lock and retry ourselves
        try:
            return self._load(key, c_path, so_path, argtypes, restype)
        except OSError as exc:
            raise NativeCompileError("load", f"{so_path}: {exc}") from exc

    # -- cross-process compile lock ---------------------------------------

    def _acquire_lock(self, lock_path: Path) -> bool:
        """Try to become the compile owner for a key: atomically create
        ``<key>.lock`` holding this pid.  A *stale* existing lock — owner
        pid dead, or older than the lock timeout — is broken and the
        acquisition retried, so a SIGKILLed owner never deadlocks the
        cache.  (Two breakers can race; the loser of the re-create race
        simply waits, and at very worst a compile is duplicated — the
        atomic ``os.replace`` makes that harmless.)"""
        for _ in range(2):
            try:
                fd = os.open(lock_path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            except FileExistsError:
                if not self._lock_stale(lock_path):
                    return False
                with self._lock:
                    self.takeovers += 1
                try:
                    os.remove(lock_path)
                except OSError:
                    pass
                continue
            except OSError:
                return False                 # unwritable dir: just compile
            try:
                os.write(fd, str(os.getpid()).encode())
            finally:
                os.close(fd)
            return True
        return False

    @staticmethod
    def _release_lock(lock_path: Path) -> None:
        try:
            os.remove(lock_path)
        except OSError:
            pass

    @staticmethod
    def _lock_stale(lock_path: Path) -> bool:
        """Is the lock abandoned?  Yes when its recorded owner pid no
        longer exists, or when the lock outlived the takeover timeout
        (a wedged owner that is alive but will never finish)."""
        try:
            raw = lock_path.read_text().strip()
        except OSError:
            return False                     # vanished: owner released it
        if raw.isdigit():
            pid = int(raw)
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return True                  # owner is dead
            except (PermissionError, OSError):
                pass                         # alive (not ours to signal)
        try:
            age = time.time() - lock_path.stat().st_mtime
        except OSError:
            return False
        return age > _lock_timeout_s()

    def _await_owner(self, lock_path: Path, so_path: Path) -> None:
        """Waiter side: block until the owning process releases the lock,
        the artifact appears, or the lock goes stale (the caller then
        re-competes for ownership)."""
        while True:
            if so_path.exists() or not lock_path.exists():
                return
            if self._lock_stale(lock_path):
                return
            time.sleep(LOCK_POLL_S)

    def _compile(self, key: str, source: str, c_path: Path,
                 so_path: Path, extra_flags: tuple = ()) -> None:
        cc = toolchain.find_cc()
        if cc is None:
            raise NativeCompileError("compile", "no C toolchain available")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise NativeCompileError("cache", f"{self.directory}: {exc}") \
                from exc
        tmp_c = self.directory / f".{key}.{os.getpid()}.c"
        tmp_so = self.directory / f".{key}.{os.getpid()}.so"
        try:
            tmp_c.write_text(source)
            proc = subprocess.run(
                [cc, *CFLAGS, *extra_flags, "-o", str(tmp_so), str(tmp_c),
                 "-lm"],
                capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                raise NativeCompileError(
                    "compile",
                    f"{cc} exited {proc.returncode}:\n{proc.stderr.strip()}")
            with self._lock:
                self.compiles += 1
            os.replace(tmp_so, so_path)      # atomic: never a torn .so
            os.replace(tmp_c, c_path)
        except OSError as exc:
            raise NativeCompileError("compile", str(exc)) from exc
        except subprocess.TimeoutExpired as exc:
            raise NativeCompileError("compile", f"{cc} timed out") from exc
        finally:
            for tmp in (tmp_c, tmp_so):
                try:
                    if tmp.exists():
                        os.remove(tmp)
                except OSError:
                    pass

    def _load(self, key: str, c_path: Path, so_path: Path,
              argtypes, restype) -> Kernel:
        lib = ctypes.CDLL(str(so_path))    # dlopen: the .so is mmap'd
        try:
            fn = lib.run
        except AttributeError as exc:
            raise OSError(f"symbol 'run' missing from {so_path}") from exc
        fn.argtypes = list(argtypes)
        fn.restype = restype
        return Kernel(run=fn, key=key, c_path=c_path, so_path=so_path,
                      lib=lib)
