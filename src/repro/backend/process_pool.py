"""Process-pool backend: GIL-free block execution over shared memory.

``ProcessPoolBackend`` (``REPRO_BACKEND=process``) keeps a set of
*persistent* worker processes and dispatches the same disjoint output
blocks as :class:`~repro.backend.threaded.ThreadedBackend` — but across
process boundaries, so pure-python portions of the hot path (einsum
planning, CSR scatter, band bookkeeping) scale past the GIL.

The performance contract is **zero-copy warm state**:

* long-lived operands — packed pair tables (allocated through
  :meth:`alloc_shared`), ``ScatterMap`` CSR arrays, band symbolics —
  live once per machine in a :class:`~repro.backend.shm.SharedArena`
  segment; per-call dispatch ships a ~100-byte :class:`ShmHandle`
  instead of re-pickling the array (``ipc_bytes_saved`` counts the
  avoided traffic, ``ipc_bytes_sent`` what actually crossed the pipe);
* per-call operands (batch state columns, CSR data rows) are O(batch)
  and ship by value;
* outputs are written into a scratch shared segment by disjoint blocks,
  so results never ride the pickle channel either.

Worker **affinity**: the backend holds one single-process pool per
worker slot, so block ``k`` of a batch always lands on pool
``k % workers``.  Band LU factors computed by a worker stay resident in
that worker (a module-global factor store keyed by a dispatch token) and
subsequent solves route right-hand sides to the owning process — the
batched-CPU analogue of the paper's persistent per-GPU state.

Determinism: identical block splits and identical per-block numpy
expressions as the threaded backend, disjoint output slices, no racing
accumulation — the ≤ 1e-12 cross-backend equivalence contract holds.

``workers <= 1`` (e.g. ``REPRO_PROCESS_WORKERS=1`` or a 1-CPU host)
degenerates to the serial numpy reference without creating any pools or
segments.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import threading
import weakref
from concurrent.futures import ProcessPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .numpy_backend import NumpyBackend, einsum
from .shm import (
    ATTACH_DROP_HOOKS,
    SharedArena,
    ShmBudgetExceeded,
    ShmHandle,
    attach_array,
)
from .threaded import ThreadedBackend

__all__ = ["ProcessPoolBackend"]


def _default_workers() -> int:
    raw = os.environ.get("REPRO_PROCESS_WORKERS")
    if raw is not None and raw.strip():
        try:
            return max(1, int(float(raw)))
        except ValueError as err:
            raise ValueError(
                f"REPRO_PROCESS_WORKERS must be an integer, got {raw!r}"
            ) from err
    return max(1, min(8, os.cpu_count() or 1))


def _start_method() -> str:
    raw = os.environ.get("REPRO_PROCESS_START", "").strip().lower()
    methods = mp.get_all_start_methods()
    if raw:
        if raw not in methods:
            raise ValueError(
                f"REPRO_PROCESS_START must be one of {methods}, got {raw!r}"
            )
        return raw
    # fork keeps worker spin-up cheap and inherits the import state; the
    # env knob exists for platforms/debuggers that need spawn
    return "fork" if "fork" in methods else methods[0]


# ----------------------------------------------------------------------
# worker-side state and task functions (module-level: picklable by name)

_WORKER_BACKEND = NumpyBackend()

#: band symbolics reconstructed from shared memory, keyed by the perm
#: segment name (unique per publication, immune to id() reuse)
_ST_CACHE: dict[str, object] = {}

#: LU factors resident in this worker: (dispatch token, block id) ->
#: (engine, factors, structure)
_FACTOR_STORE: dict[tuple[int, int], tuple] = {}

#: CSR operators reconstructed over shared arrays, keyed by data segment
_CSR_CACHE: dict[str, object] = {}


def _on_attachment_dropped(name: str) -> None:
    """Attach-cache drop hook: release derived objects holding views of
    the dropped segment so its mapping can actually unmap.  Keyed caches
    use the same segment names as their attachments (CSR -> data segment,
    band structure -> perm segment); sibling segments of the same object
    are dropped by the same sweep, so popping the keyed entry releases
    the whole group."""
    _CSR_CACHE.pop(name, None)
    _ST_CACHE.pop(name, None)


ATTACH_DROP_HOOKS.append(_on_attachment_dropped)


def _resolve_operand(spec):
    """Materialize one shipped operand: attach handles, apply slices."""
    kind, payload, sl = spec
    arr = attach_array(payload) if kind == "h" else payload
    if sl is not None:
        ax, i0, i1 = sl
        key = [slice(None)] * arr.ndim
        key[ax] = slice(i0, i1)
        arr = arr[tuple(key)]
    return arr


def _resolve_csr(csr_spec):
    import scipy.sparse as sp

    data_h, indices_h, indptr_h, shape = csr_spec
    T = _CSR_CACHE.get(data_h.name)
    if T is None:
        T = sp.csr_matrix(
            (
                attach_array(data_h),
                attach_array(indices_h),
                attach_array(indptr_h),
            ),
            shape=shape,
            copy=False,
        )
        _CSR_CACHE[data_h.name] = T
    return T


def _task_matmul(A_spec, B_spec, out_h, c0: int, c1: int) -> None:
    A = _resolve_operand(A_spec)
    Bm = _resolve_operand(B_spec)
    # scratch outputs are one-shot: cache=False unmaps at task end
    out = attach_array(out_h, cache=False)
    np.matmul(A, Bm, out=out[:, c0:c1])


def _task_contract(spec: str, op_specs, out_h, i0: int, i1: int) -> None:
    ops = [_resolve_operand(s) for s in op_specs]
    out = attach_array(out_h, cache=False)
    out[i0:i1] = einsum(spec, *ops)


def _task_scatter(csr_spec, flat_spec, out_h, i0: int, i1: int) -> None:
    T = _resolve_csr(csr_spec)
    flat = _resolve_operand(flat_spec)
    out = attach_array(out_h, cache=False)
    out[i0:i1] = (T @ flat.T).T


def _get_structure(st_spec):
    from ..sparse.band import _BandStructure

    key, B, handles = st_spec
    st = _ST_CACHE.get(key)
    if st is None:
        st = _BandStructure(
            perm=attach_array(handles["perm"]),
            iperm=attach_array(handles["iperm"]),
            B=B,
            pos=attach_array(handles["pos"]),
            indptr=attach_array(handles["indptr"]),
            indices=attach_array(handles["indices"]),
            pos_lapack=(
                attach_array(handles["pos_lapack"])
                if handles.get("pos_lapack") is not None
                else None
            ),
        )
        _ST_CACHE[key] = st
    return st


def _task_band_alloc(st_spec, n: int, count: int, token: int, block: int) -> str:
    st = _get_structure(st_spec)
    engine, factors = _WORKER_BACKEND.banded_alloc(st, n, count)
    _FACTOR_STORE[(token, block)] = (engine, factors, st)
    return engine


def _task_band_factor(
    token: int,
    block: int,
    n: int,
    data: np.ndarray,
    local_rows: np.ndarray,
    pivot_tol: float,
) -> None:
    _engine, factors, st = _FACTOR_STORE[(token, block)]
    _WORKER_BACKEND.banded_factor_many(
        st, n, data, factors, local_rows, pivot_tol=pivot_tol
    )


def _task_band_solve(
    token: int, block: int, rhs_p: np.ndarray, local_rows: np.ndarray
) -> np.ndarray:
    engine, factors, st = _FACTOR_STORE[(token, block)]
    return _WORKER_BACKEND.banded_solve_many(engine, factors, st, rhs_p, local_rows)


def _task_band_solve_one(
    token: int, block: int, local: int, b_p: np.ndarray
) -> np.ndarray:
    engine, factors, st = _FACTOR_STORE[(token, block)]
    return _WORKER_BACKEND.banded_solve_one(engine, factors[local], st, b_p)


def _task_band_free(token: int, nblocks: int) -> None:
    for b in range(nblocks):
        _FACTOR_STORE.pop((token, b), None)


# ----------------------------------------------------------------------
# remote factor bookkeeping (parent side)


@dataclass
class _RemoteFactors:
    """Opaque ``factors`` state for factors resident in worker processes.

    Supports ``len`` and ``[index]`` so :class:`BatchedBandSolver` can
    treat it like the in-process factor list; indexing returns a
    locator consumed by :meth:`ProcessPoolBackend.banded_solve_one`.
    """

    token: int
    blocks: list = field(default_factory=list)  # [(i0, i1)] per block id

    def __len__(self) -> int:
        return self.blocks[-1][1] if self.blocks else 0

    def split(self, rows: np.ndarray):
        """``(block id, selector into rows, block-local slots)`` for
        every block that owns some of the slots ``rows``."""
        for block, (i0, i1) in enumerate(self.blocks):
            sel = np.nonzero((rows >= i0) & (rows < i1))[0]
            if sel.size:
                yield block, sel, rows[sel] - i0

    def __getitem__(self, index: int):
        for block, (i0, i1) in enumerate(self.blocks):
            if i0 <= index < i1:
                return _RemoteFactor(self.token, block, index - i0)
        raise IndexError(index)


@dataclass(frozen=True)
class _RemoteFactor:
    """Locator of one factored matrix inside a worker's factor store."""

    token: int
    block: int
    local: int


def _free_remote_factors(backend_ref, token: int, nblocks: int) -> None:
    """weakref.finalize callback: evict a batch's factors from every
    worker.  Best effort — dead pools / interpreter shutdown are fine."""
    backend = backend_ref()
    if backend is None:
        return
    pools = backend._pools
    if not pools or os.getpid() != backend._pools_pid:
        return
    for pool in pools:
        with suppress(Exception):
            pool.submit(_task_band_free, token, nblocks)


def _drop_published(backend_ref, ref_id: int, names: tuple) -> None:
    """weakref.finalize callback: free the segments backing a published
    array/CSR/structure once the parent-side object dies."""
    backend = backend_ref()
    if backend is None:
        return
    backend._published.pop(ref_id, None)
    backend._published_csr.pop(ref_id, None)
    backend._st_specs.pop(ref_id, None)
    arena = backend._arena
    if arena is not None:
        for name in names:
            with suppress(Exception):
                arena.free(name)


# ----------------------------------------------------------------------


class ProcessPoolBackend(NumpyBackend):
    """Block-parallel execution on persistent worker processes.

    ``num_threads`` follows the :class:`ThreadedBackend` convention:
    values > 1 set the worker count; ``0``/``1`` means "pick for me" —
    ``REPRO_PROCESS_WORKERS`` if set, else ``min(8, cpu_count)``.  A
    resolved worker count of 1 is the serial fallback: no pools, no
    shared memory, bitwise the numpy reference.
    """

    name = "process"

    def __init__(self, num_threads: int = 0):
        self.workers = (
            int(num_threads)
            if num_threads and num_threads > 1
            else _default_workers()
        )
        self._pools: list[ProcessPoolExecutor] | None = None
        self._pools_pid = 0
        self._arena: SharedArena | None = None
        #: thread pool for parallel_for (closures cannot cross process
        #: boundaries; numpy releases the GIL in the table builds)
        self._threads = ThreadedBackend(self.workers) if self.workers > 1 else None
        #: id(array) -> ShmHandle for registered long-lived operands
        self._published: dict[int, ShmHandle] = {}
        #: id(csr) -> (data_h, indices_h, indptr_h, shape)
        self._published_csr: dict[int, tuple] = {}
        #: id(band structure) -> (key, B, handles)
        self._st_specs: dict[int, tuple] = {}
        self._token = itertools.count()
        self._lock = threading.RLock()
        self.ipc_bytes_sent = 0
        self.ipc_bytes_saved = 0
        self.shm_fallbacks = 0
        self.pool_restarts = 0
        self._restart_backoff = None  # built lazily (import cycle)

    # ------------------------------------------------------------------
    @classmethod
    def available(cls) -> bool:
        try:
            from multiprocessing import shared_memory  # noqa: F401
        except ImportError:  # pragma: no cover - no POSIX shm
            return False
        return True

    def _get_arena(self) -> SharedArena:
        if self._arena is None or os.getpid() != self._arena._owner_pid:
            # fresh arena after fork: the inherited one belongs to the
            # parent and must never be unlinked from here
            self._arena = SharedArena(tag="backend")
        return self._arena

    def _get_pools(self) -> list[ProcessPoolExecutor]:
        if self._pools is None or os.getpid() != self._pools_pid:
            ctx = mp.get_context(_start_method())
            self._pools = [
                ProcessPoolExecutor(max_workers=1, mp_context=ctx)
                for _ in range(self.workers)
            ]
            self._pools_pid = os.getpid()
        else:
            self._heal_broken_pools()
        return self._pools

    def _heal_broken_pools(self) -> None:
        """Replace any worker pool whose process died (OOM-kill, crash).

        The in-flight dispatch that hit the dead pool still raises
        ``BrokenProcessPool`` to its caller — the serve tier's supervisor
        owns the batch-level retry — but the *next* dispatch gets a live
        pool instead of an unconditionally broken backend.  Restarts are
        paced by a bounded exponential backoff so a crash-looping worker
        cannot hot-spin fork/exec.
        """
        if self._pools is None:
            return
        # lazy import: repro.resilience pulls in the solver stack, which
        # imports this backend package at module scope
        from ..resilience.supervisor import RestartBackoff

        with self._lock:
            if self._restart_backoff is None:
                self._restart_backoff = RestartBackoff(
                    base_s=0.05, max_s=2.0
                )
            ctx = None
            for slot, pool in enumerate(self._pools):
                if not getattr(pool, "_broken", False):
                    continue
                with suppress(Exception):
                    pool.shutdown(wait=False, cancel_futures=True)
                if ctx is None:
                    ctx = mp.get_context(_start_method())
                self._restart_backoff.sleep()
                self._pools[slot] = ProcessPoolExecutor(
                    max_workers=1, mp_context=ctx
                )
                self.pool_restarts += 1
            if ctx is None:
                self._restart_backoff.reset()

    def close(self) -> None:
        """Shut down worker pools and unlink every owned segment."""
        pools, self._pools = self._pools, None
        if pools and os.getpid() == self._pools_pid:
            for pool in pools:
                with suppress(Exception):
                    pool.shutdown(wait=True, cancel_futures=True)
        arena, self._arena = self._arena, None
        if arena is not None:
            arena.close()
        self._published.clear()
        self._published_csr.clear()
        self._st_specs.clear()

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        with suppress(Exception):
            self.close()

    def ipc_counters(self) -> dict:
        """Pickle-traffic accounting for the scaling study."""
        return {
            "ipc_bytes_sent": int(self.ipc_bytes_sent),
            "ipc_bytes_saved": int(self.ipc_bytes_saved),
            "shm_fallbacks": int(self.shm_fallbacks),
            "pool_restarts": int(self.pool_restarts),
        }

    # ------------------------------------------------------------------
    # shared-state publication
    def alloc_shared(self, shape, dtype=np.float64) -> np.ndarray:
        if self.workers <= 1:
            return np.empty(shape, dtype=dtype)
        try:
            arena = self._get_arena()
            arr = arena.alloc(shape, dtype)
        except (ShmBudgetExceeded, OSError):
            self.shm_fallbacks += 1
            return np.empty(shape, dtype=dtype)
        handle = arena.handle_of(arr)
        assert handle is not None
        # tie the segment to the array's lifetime: a PlanCache eviction
        # dropping an operator releases its table segment too
        weakref.finalize(
            arr, _drop_published, weakref.ref(self), id(arr), (handle.name,)
        )
        return arr

    def register_shared(self, *arrays) -> None:
        if self.workers <= 1:
            return
        for arr in arrays:
            if not isinstance(arr, np.ndarray) or not arr.flags["C_CONTIGUOUS"]:
                continue
            with self._lock:
                if id(arr) in self._published:
                    continue
                arena = self._get_arena()
                if arena.handle_of(arr) is not None:
                    # already arena-backed: handle_of resolves it per call
                    continue
                try:
                    handle = arena.publish(arr)
                except (ShmBudgetExceeded, OSError):
                    self.shm_fallbacks += 1
                    continue
                self._published[id(arr)] = handle
                weakref.finalize(
                    arr,
                    _drop_published,
                    weakref.ref(self),
                    id(arr),
                    (handle.name,),
                )

    # ------------------------------------------------------------------
    # operand shipping
    def _handle_for(self, arr: np.ndarray) -> ShmHandle | None:
        handle = self._published.get(id(arr))
        if handle is None and self._arena is not None:
            handle = self._arena.handle_of(arr)
        return handle

    def _ship_full(self, arr: np.ndarray):
        handle = self._handle_for(arr)
        if handle is not None:
            self.ipc_bytes_saved += arr.nbytes
            return ("h", handle, None)
        arr = np.ascontiguousarray(arr)
        self.ipc_bytes_sent += arr.nbytes
        return ("v", arr, None)

    def _ship_block(self, arr: np.ndarray, ax: int, i0: int, i1: int):
        handle = self._handle_for(arr)
        if handle is not None:
            nbytes = arr.nbytes // max(1, arr.shape[ax]) * (i1 - i0)
            self.ipc_bytes_saved += nbytes
            return ("h", handle, (ax, i0, i1))
        key = [slice(None)] * arr.ndim
        key[ax] = slice(i0, i1)
        block = np.ascontiguousarray(arr[tuple(key)])
        self.ipc_bytes_sent += block.nbytes
        return ("v", block, None)

    def _alloc_scratch(self, shape, dtype):
        """Scratch output segment, or ``None`` on budget fallback."""
        try:
            arena = self._get_arena()
            out = arena.alloc(shape, dtype)
        except (ShmBudgetExceeded, OSError):
            self.shm_fallbacks += 1
            return None, None, None
        return arena, out, arena.handle_of(out)

    @staticmethod
    def _gather_scratch(arena, out, out_h, futures):
        """Await the block futures, copy the scratch output out of shared
        memory and free its segment (also on error)."""
        try:
            for fut in futures:
                fut.result()
            result = out.copy()
        finally:
            del out
            arena.free(out_h.name)
        return result

    # ------------------------------------------------------------------
    # parallel-for: closures cannot cross process boundaries, so the
    # block-parallel builds run on the internal thread pool (the tensor
    # kernels release the GIL)
    def parallel_for(
        self, tasks: Sequence[tuple], fn: Callable[..., None]
    ) -> bool:
        if self._threads is not None:
            return self._threads.parallel_for(tasks, fn)
        return super().parallel_for(tasks, fn)

    # ------------------------------------------------------------------
    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        n_cols = B.shape[1]
        blocks = self.batch_blocks(n_cols)
        if self.workers <= 1 or len(blocks) <= 1:
            return super().matmul(A, B)
        arena, out, out_h = self._alloc_scratch(
            (A.shape[0], n_cols), np.result_type(A, B)
        )
        if out is None:
            return super().matmul(A, B)
        A_spec = self._ship_full(A)
        pools = self._get_pools()
        futures = [
            pools[k % self.workers].submit(
                _task_matmul, A_spec, self._ship_block(B, 1, c0, c1), out_h, c0, c1
            )
            for k, (c0, c1) in enumerate(blocks)
        ]
        return self._gather_scratch(arena, out, out_h, futures)

    def contract(self, spec: str, *ops: np.ndarray) -> np.ndarray:
        """Partition along the output's leading axis (same split rule as
        :class:`ThreadedBackend`); the first block runs inline to size
        the output, the rest fan out over the worker pools."""
        if self.workers <= 1:
            return super().contract(spec, *ops)
        inputs, out_sub = spec.replace(" ", "").split("->")
        in_subs = inputs.split(",")
        if not out_sub:
            return super().contract(spec, *ops)
        axis_letter = out_sub[0]
        n = None
        for sub, op in zip(in_subs, ops):
            if axis_letter in sub:
                n = op.shape[sub.index(axis_letter)]
                break
        blocks = self.batch_blocks(n) if n is not None else []
        if len(blocks) <= 1:
            return super().contract(spec, *ops)

        def _sliced(op, sub, i0, i1):
            if axis_letter not in sub:
                return op
            ax = sub.index(axis_letter)
            key = [slice(None)] * op.ndim
            key[ax] = slice(i0, i1)
            return op[tuple(key)]

        i0, i1 = blocks[0]
        first = einsum(
            spec, *[_sliced(op, sub, i0, i1) for sub, op in zip(in_subs, ops)]
        )
        arena, out, out_h = self._alloc_scratch((n,) + first.shape[1:], first.dtype)
        if out is None:
            return super().contract(spec, *ops)
        out[i0:i1] = first
        pools = self._get_pools()
        futures = []
        for k, (j0, j1) in enumerate(blocks[1:], start=1):
            op_specs = [
                (
                    self._ship_block(op, sub.index(axis_letter), j0, j1)
                    if axis_letter in sub
                    else self._ship_full(op)
                )
                for sub, op in zip(in_subs, ops)
            ]
            futures.append(
                pools[k % self.workers].submit(
                    _task_contract, spec, op_specs, out_h, j0, j1
                )
            )
        return self._gather_scratch(arena, out, out_h, futures)

    def scatter_apply(self, T, flat: np.ndarray) -> np.ndarray:
        X = flat.shape[0]
        blocks = self.batch_blocks(X)
        if self.workers <= 1 or len(blocks) <= 1:
            return super().scatter_apply(T, flat)
        csr_spec = self._ship_csr(T)
        if csr_spec is None:
            return super().scatter_apply(T, flat)
        arena, out, out_h = self._alloc_scratch((X, T.shape[0]), float)
        if out is None:
            return super().scatter_apply(T, flat)
        pools = self._get_pools()
        futures = [
            pools[k % self.workers].submit(
                _task_scatter,
                csr_spec,
                self._ship_block(flat, 0, i0, i1),
                out_h,
                i0,
                i1,
            )
            for k, (i0, i1) in enumerate(blocks)
        ]
        return self._gather_scratch(arena, out, out_h, futures)

    def _ship_csr(self, T):
        """Publish a CSR operator's arrays once; ship its spec per call."""
        with self._lock:
            spec = self._published_csr.get(id(T))
            if spec is not None:
                self.ipc_bytes_saved += (
                    T.data.nbytes + T.indices.nbytes + T.indptr.nbytes
                )
                return spec
            arena = self._get_arena()
            try:
                spec = (
                    arena.publish(T.data),
                    arena.publish(T.indices),
                    arena.publish(T.indptr),
                    T.shape,
                )
            except (ShmBudgetExceeded, OSError):
                self.shm_fallbacks += 1
                return None
            self._published_csr[id(T)] = spec
            weakref.finalize(
                T,
                _drop_published,
                weakref.ref(self),
                id(T),
                tuple(h.name for h in spec[:3]),
            )
            return spec

    # ------------------------------------------------------------------
    # banded factor / solve with worker-resident factors
    def _ship_structure(self, st, n: int):
        with self._lock:
            spec = self._st_specs.get(id(st))
            if spec is not None:
                self.ipc_bytes_saved += sum(
                    h.nbytes for h in spec[2].values() if h is not None
                )
                return spec
            from ..sparse.band import _HAVE_GBTRF

            if _HAVE_GBTRF:
                # materialize before publishing so the workers' engine
                # choice sees the same lazy field
                st.lapack_positions(n)
            arena = self._get_arena()
            try:
                handles = {
                    k: arena.publish(getattr(st, k))
                    for k in ("perm", "iperm", "pos", "indptr", "indices")
                }
                handles["pos_lapack"] = (
                    arena.publish(st.pos_lapack)
                    if st.pos_lapack is not None
                    else None
                )
            except (ShmBudgetExceeded, OSError):
                self.shm_fallbacks += 1
                return None
            spec = (handles["perm"].name, st.B, handles)
            self._st_specs[id(st)] = spec
            weakref.finalize(
                st,
                _drop_published,
                weakref.ref(self),
                id(st),
                tuple(h.name for h in handles.values() if h is not None),
            )
            return spec

    def banded_alloc(self, st, n: int, count: int) -> tuple[str, object]:
        """Slot ranges are dealt to the workers in contiguous blocks;
        each worker allocates, fills and solves against its own range."""
        blocks = self.batch_blocks(count)
        if self.workers <= 1 or len(blocks) <= 1:
            return super().banded_alloc(st, n, count)
        st_spec = self._ship_structure(st, n)
        if st_spec is None:
            return super().banded_alloc(st, n, count)
        token = next(self._token)
        pools = self._get_pools()
        futures = [
            pools[k % self.workers].submit(
                _task_band_alloc, st_spec, n, i1 - i0, token, k
            )
            for k, (i0, i1) in enumerate(blocks)
        ]
        engines = [fut.result() for fut in futures]
        factors = _RemoteFactors(token=token, blocks=list(blocks))
        weakref.finalize(
            factors, _free_remote_factors, weakref.ref(self), token, len(blocks)
        )
        return engines[0], factors

    def banded_factor_many(
        self,
        st,
        n: int,
        data: np.ndarray,
        factors,
        rows: np.ndarray,
        pivot_tol: float = 0.0,
    ) -> None:
        if not isinstance(factors, _RemoteFactors):
            return super().banded_factor_many(
                st, n, data, factors, rows, pivot_tol=pivot_tol
            )
        pools = self._get_pools()
        futures = []
        for k, sel, local in factors.split(rows):
            block = np.ascontiguousarray(data[sel])
            self.ipc_bytes_sent += block.nbytes
            futures.append(
                pools[k % self.workers].submit(
                    _task_band_factor, factors.token, k, n, block, local, pivot_tol
                )
            )
        for fut in futures:
            fut.result()

    def banded_solve_many(
        self, engine: str, factors, st, rhs_p: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        if not isinstance(factors, _RemoteFactors):
            return super().banded_solve_many(engine, factors, st, rhs_p, rows)
        out = np.empty_like(rhs_p)
        pools = self._get_pools()
        futures = []
        for k, sel, local in factors.split(rows):
            block = np.ascontiguousarray(rhs_p[sel])
            self.ipc_bytes_sent += block.nbytes
            futures.append(
                (
                    sel,
                    pools[k % self.workers].submit(
                        _task_band_solve, factors.token, k, block, local
                    ),
                )
            )
        for sel, fut in futures:
            out[sel] = fut.result()
        return out

    def banded_solve_one(self, engine: str, factor, st, b_p: np.ndarray) -> np.ndarray:
        if not isinstance(factor, _RemoteFactor):
            return super().banded_solve_one(engine, factor, st, b_p)
        pools = self._get_pools()
        self.ipc_bytes_sent += b_p.nbytes
        return pools[factor.block % self.workers].submit(
            _task_band_solve_one,
            factor.token,
            factor.block,
            factor.local,
            np.ascontiguousarray(b_p),
        ).result()
