"""Shared-memory arena: cross-process state without pickling.

The serve tier's process executor ships per-batch state stacks to its
shard workers through POSIX shared memory
(``multiprocessing.shared_memory``) instead of pickled copies.
:class:`SharedArena` owns the create/unlink side; :func:`attach_copy` is
the worker (attach) side.

Lifecycle rules, enforced here so every caller inherits them:

* every segment has exactly one **owner** process — the one whose arena
  created it.  Attachers map the segment but never unlink it.
* segment names are **generation-tagged** (``rpro-<pid>-g<gen>-<seq>``):
  a restarted arena, or a second arena in the same process, can never
  collide with (or accidentally adopt) a stale segment.
* the owner unlinks on :meth:`free` / :meth:`close` and, as backstops,
  at interpreter exit via ``atexit`` and on SIGTERM via a chaining
  signal handler (the prior handler still runs; with none installed the
  process re-delivers the signal so its exit status stays ``-SIGTERM``).
  All are idempotent, and all are **fork-safe**: a forked child that
  inherits the arena object is not the owner pid and silently refuses to
  unlink.  Owners killed by SIGKILL never reach any backstop, so every new arena sweeps
  ``/dev/shm`` for segments whose owner pid is dead and reclaims them
  (:func:`reclaim_dead_owner_segments`).
* attachers never register with the ``resource_tracker``: on Python
  < 3.13 the tracker treats any attach as ownership, so a worker exiting
  would otherwise unlink segments it merely mapped (and, under ``fork``,
  confuse the tracker shared with the creator).
* a byte **budget** (``REPRO_SHM_BUDGET``, default 1 GiB) caps the
  arena; :meth:`alloc` raises :class:`ShmBudgetExceeded` and callers fall
  back to private memory + pickle-by-value, trading speed for safety.
"""

from __future__ import annotations

import atexit
import glob
import itertools
import os
import re
import signal
import threading
import weakref
from contextlib import suppress
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

try:  # pragma: no cover - present on every supported platform
    from multiprocessing import resource_tracker
except ImportError:  # pragma: no cover
    resource_tracker = None

__all__ = [
    "ShmBudgetExceeded",
    "ShmHandle",
    "SharedArena",
    "attach_copy",
    "reclaim_dead_owner_segments",
]

#: default arena byte budget (overridden by ``REPRO_SHM_BUDGET``)
DEFAULT_SHM_BUDGET = 1 << 30

#: distinct tag per arena instance within one process
_ARENA_GENERATION = itertools.count()


class ShmBudgetExceeded(RuntimeError):
    """An allocation would push the arena past its byte budget
    (``REPRO_SHM_BUDGET``); the caller falls back to private memory."""


@dataclass(frozen=True)
class ShmHandle:
    """Pickle-light descriptor of an ndarray inside a shared segment.

    ``offset`` supports contiguous views into a larger arena-owned
    buffer.
    """

    name: str
    shape: tuple
    dtype: str
    offset: int = 0

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


_TRACKER_LOCK = threading.Lock()


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach without registering ownership with the resource tracker.

    Pre-3.13 ``SharedMemory`` registers every attach as if it created the
    segment; under ``fork`` the tracker is shared with the creator, whose
    registry is a *set* — duplicate registrations collapse, so any
    unregister choreography leaves the tracker complaining at exit.  The
    clean invariant is one register (creator) + one unregister (unlink):
    suppress the attach-side registration entirely (``track=False`` on
    3.13+, a scoped no-op patch before that).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    if resource_tracker is None:  # pragma: no cover
        return shared_memory.SharedMemory(name=name)
    with _TRACKER_LOCK:
        real_register = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = real_register


_RECLAIM_RE = re.compile(r"^rpro-(\d+)-g\d+-\d+$")


def reclaim_dead_owner_segments() -> int:
    """Unlink ``/dev/shm`` segments whose owner process is gone.

    The atexit backstop never runs when an owner is killed by an
    unhandled signal (SIGKILL, ``timeout``'s SIGTERM), so its segments
    outlive it.  Names carry the owner pid, so any later arena can
    reclaim them; unlink only removes the name — a straggling worker
    still holding a mapping is unaffected.  Returns the count reclaimed.
    """
    reclaimed = 0
    for path in glob.glob("/dev/shm/rpro-*"):
        m = _RECLAIM_RE.match(os.path.basename(path))
        if m is None:
            continue
        pid = int(m.group(1))
        if pid == os.getpid():
            continue
        try:
            os.kill(pid, 0)
            continue  # owner alive
        except PermissionError:  # pragma: no cover - alive, other user
            continue
        except ProcessLookupError:
            pass
        with suppress(OSError):
            os.unlink(path)
            reclaimed += 1
    return reclaimed


#: arenas owned by this process, cleaned up by the SIGTERM backstop
_LIVE_ARENAS: "weakref.WeakSet[SharedArena]" = weakref.WeakSet()
_SIGTERM_LOCK = threading.Lock()
_SIGTERM_INSTALLED = False
_PREV_SIGTERM = None


def _sigterm_cleanup(signum, frame) -> None:
    """Unlink every live arena's segments, then chain to the previous
    handler (or re-deliver with the default disposition, so the process
    still dies with the SIGTERM exit status its supervisor expects)."""
    for arena in list(_LIVE_ARENAS):
        with suppress(Exception):
            arena.close()
    prev = _PREV_SIGTERM
    if callable(prev):
        prev(signum, frame)
    elif prev != signal.SIG_IGN:
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)


def _install_sigterm_backstop() -> None:
    """Install the chaining SIGTERM handler once per process.

    The ``atexit`` backstop never runs on an unhandled SIGTERM (the
    interpreter dies in the C handler), which is exactly how service
    managers and ``timeout(1)`` stop a process — so a clean SIGTERM used
    to orphan every live segment until some later arena swept them.
    Signal handlers can only be set from the main thread; elsewhere the
    dead-owner sweep remains the (eventual) safety net.
    """
    global _SIGTERM_INSTALLED, _PREV_SIGTERM
    with _SIGTERM_LOCK:
        if _SIGTERM_INSTALLED:
            return
        if threading.current_thread() is not threading.main_thread():
            return
        try:
            prev = signal.getsignal(signal.SIGTERM)
            signal.signal(signal.SIGTERM, _sigterm_cleanup)
        except (ValueError, OSError):  # pragma: no cover - exotic embeddings
            return
        # never chain to ourselves (a second install attempt after e.g.
        # someone saved+restored handlers around us)
        _PREV_SIGTERM = None if prev is _sigterm_cleanup else prev
        _SIGTERM_INSTALLED = True


def _shm_budget_from_env() -> int:
    raw = os.environ.get("REPRO_SHM_BUDGET")
    if raw is None or not raw.strip():
        return DEFAULT_SHM_BUDGET
    try:
        return int(float(raw))
    except ValueError as err:
        raise ValueError(
            f"REPRO_SHM_BUDGET must be a byte count, got {raw!r}"
        ) from err


class SharedArena:
    """Owner side of the segment lifecycle: alloc / free / close.

    All methods are thread-safe; the arena is also safe to *inherit*
    across ``fork`` — only the owner pid ever unlinks.
    """

    def __init__(self, tag: str = "arena", budget: int | None = None):
        self.budget = _shm_budget_from_env() if budget is None else int(budget)
        if self.budget <= 0:
            raise ValueError(f"shm budget must be positive, got {self.budget}")
        self.tag = tag
        self.generation = next(_ARENA_GENERATION)
        self._owner_pid = os.getpid()
        self._seq = itertools.count()
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        #: segment name -> (base address, size) for pointer-range lookups
        self._spans: dict[str, tuple[int, int]] = {}
        self._lock = threading.RLock()
        self.bytes = 0
        self.created_segments = 0
        self.freed_segments = 0
        self._closed = False
        atexit.register(self.close)
        _LIVE_ARENAS.add(self)
        _install_sigterm_backstop()
        reclaim_dead_owner_segments()

    # ------------------------------------------------------------------
    def _new_name(self) -> str:
        return f"rpro-{self._owner_pid}-g{self.generation}-{next(self._seq)}"

    def alloc(self, shape, dtype=np.float64) -> np.ndarray:
        """Allocate a zero-filled C-contiguous array in a fresh segment.

        Returns the owner-side view; recover its handle (for shipping to
        workers) with :meth:`handle_of`.  Raises :class:`ShmBudgetExceeded`
        over budget and ``RuntimeError`` after :meth:`close`.
        """
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        with self._lock:
            if self._closed:
                raise RuntimeError("SharedArena is closed")
            if self.bytes + nbytes > self.budget:
                raise ShmBudgetExceeded(
                    f"allocating {nbytes} bytes would exceed the shared-memory "
                    f"budget ({self.bytes}/{self.budget} bytes in use); raise "
                    "REPRO_SHM_BUDGET or let the caller fall back to pickling"
                )
            seg = shared_memory.SharedMemory(
                create=True, name=self._new_name(), size=max(1, nbytes)
            )
            arr = np.ndarray(shape, dtype=dtype, buffer=seg.buf)
            self._segments[seg.name] = seg
            self._spans[seg.name] = (
                arr.__array_interface__["data"][0],
                max(1, nbytes),
            )
            self.bytes += nbytes
            self.created_segments += 1
        return arr

    def handle_of(self, arr: np.ndarray) -> ShmHandle | None:
        """Handle for an array living inside an arena segment, or ``None``.

        Pointer-range based, so contiguous *views* into arena buffers
        (row slices) resolve without any registration.
        """
        if not isinstance(arr, np.ndarray) or not arr.flags["C_CONTIGUOUS"]:
            return None
        ptr = arr.__array_interface__["data"][0]
        with self._lock:
            for name, (base, size) in self._spans.items():
                if base <= ptr and ptr + arr.nbytes <= base + size:
                    return ShmHandle(
                        name=name,
                        shape=arr.shape,
                        dtype=arr.dtype.str,
                        offset=ptr - base,
                    )
        return None

    def free(self, name: str) -> None:
        """Close + unlink one segment; idempotent, owner-pid only.

        ``close`` unmaps immediately — the owner must drop its own views
        first (every internal caller does; attachers in other processes
        are unaffected, their mappings are independent)."""
        if os.getpid() != self._owner_pid:
            return
        with self._lock:
            seg = self._segments.pop(name, None)
            span = self._spans.pop(name, None)
            if seg is None:
                return
            self.bytes -= 0 if span is None else span[1]
            self.freed_segments += 1
        # a still-live owner view keeps the mapping exported; unlink works
        # regardless (POSIX), so the /dev/shm entry is gone either way
        with suppress(BufferError):
            seg.close()
        with suppress(FileNotFoundError):
            seg.unlink()

    def close(self) -> None:
        """Unlink every live segment; idempotent and double-close safe."""
        if os.getpid() != self._owner_pid:
            return
        with self._lock:
            names = list(self._segments)
            self._closed = True
        for name in names:
            self.free(name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SharedArena(tag={self.tag!r}, gen={self.generation}, "
            f"segments={len(self._segments)}, bytes={self.bytes})"
        )


# ----------------------------------------------------------------------
# attach side (worker processes)


def attach_copy(handle: ShmHandle) -> np.ndarray:
    """Private copy of a one-shot segment: attach, copy, detach.

    Used for per-batch payloads (state stacks) whose segment the owner
    frees as soon as the call returns; nothing stays mapped here.
    """
    seg = _attach_segment(handle.name)
    try:
        view = np.ndarray(
            handle.shape,
            dtype=np.dtype(handle.dtype),
            buffer=seg.buf,
            offset=handle.offset,
        )
        out = np.array(view)
        del view
    finally:
        with suppress(BufferError):
            seg.close()
    return out
