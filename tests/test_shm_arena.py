"""Shared-memory arena lifecycle: segment ownership (create / attach /
unlink, no orphans in ``/dev/shm``), the byte budget, generation tags
and the dead-owner sweep that the serve tier's process executor relies
on.
"""

import glob
import multiprocessing as mp
import os
import pickle
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.backend import SharedArena, ShmBudgetExceeded, ShmHandle
from repro.backend.shm import (
    DEFAULT_SHM_BUDGET,
    attach_copy,
    reclaim_dead_owner_segments,
)

#: seconds any helper process gets before the test fails instead of hangs
CHILD_TIMEOUT = 60


def _own_segments() -> set[str]:
    """This process's arena segments currently visible in /dev/shm.

    Compared as before/after deltas, never against emptiness: arenas
    owned by other test modules' live services may still hold segments.
    """
    return set(glob.glob(f"/dev/shm/rpro-{os.getpid()}-*"))


def _segment_exists(name: str) -> bool:
    return os.path.exists(f"/dev/shm/{name}")


def _child_attach_sum(handle, conn) -> None:
    """Worker side of the serve executor's state shipping: attach by
    handle, copy, detach, report."""
    conn.send(float(attach_copy(handle).sum()))
    conn.close()


def _child_close_arena(arena, name) -> None:
    """A forked child that inherited an arena tries to tear it down."""
    arena.free(name)
    arena.close()


def _run_forked(target, *args) -> int:
    child = mp.get_context("fork").Process(target=target, args=args)
    child.start()
    child.join(CHILD_TIMEOUT)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail(f"forked child running {target.__name__} hung")
    return child.exitcode


def _run_script(body: str) -> subprocess.CompletedProcess:
    """Run ``body`` in a fresh interpreter that imports this checkout."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(body)],
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
    )


class TestSharedArena:
    def test_alloc_and_handle_roundtrip(self):
        before = _own_segments()
        arena = SharedArena(tag="t")
        try:
            arr = arena.alloc((4, 6))
            arr[...] = np.arange(24.0).reshape(4, 6)
            h = arena.handle_of(arr)
            assert h is not None and h.offset == 0
            assert np.array_equal(attach_copy(h), arr)
        finally:
            arena.close()
        assert _own_segments() <= before

    def test_handle_of_resolves_contiguous_views(self):
        arena = SharedArena(tag="t")
        try:
            arr = arena.alloc((5, 3, 3))
            arr[...] = np.arange(45.0).reshape(5, 3, 3)
            # a contiguous sub-block resolves to an offset into its segment
            plane = arr[2]
            h = arena.handle_of(plane)
            assert h is not None and h.offset == 2 * 9 * 8
            assert np.array_equal(attach_copy(h), plane)
            # non-contiguous views do not resolve
            assert arena.handle_of(arr[:, :, 0]) is None
        finally:
            arena.close()

    def test_free_is_idempotent_and_close_is_double_safe(self):
        before = _own_segments()
        arena = SharedArena(tag="t")
        arr = arena.alloc((16,))
        h = arena.handle_of(arr)
        arena.free(h.name)
        arena.free(h.name)  # second free is a no-op
        assert arena.freed_segments == 1
        arena.close()
        arena.close()  # double close is safe
        assert _own_segments() <= before
        with pytest.raises(RuntimeError, match="closed"):
            arena.alloc((4,))

    def test_budget_exceeded_raises(self):
        arena = SharedArena(tag="t", budget=1024)
        try:
            with pytest.raises(ShmBudgetExceeded, match="REPRO_SHM_BUDGET"):
                arena.alloc((1024,))  # 8 KiB > 1 KiB budget
            small = arena.alloc((64,))  # within budget still works
            assert small.nbytes == 512
        finally:
            arena.close()

    def test_budget_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_BUDGET", "2048")
        arena = SharedArena(tag="t")
        try:
            assert arena.budget == 2048
        finally:
            arena.close()
        monkeypatch.setenv("REPRO_SHM_BUDGET", "lots")
        with pytest.raises(ValueError, match="REPRO_SHM_BUDGET"):
            SharedArena(tag="t")

    def test_dead_owner_segments_reclaimed(self):
        """A SIGKILLed owner never runs its atexit unlink; the next arena
        construction sweeps its leftovers out of /dev/shm."""
        import multiprocessing as mp

        child = mp.get_context("fork").Process(target=lambda: None)
        child.start()
        child.join()
        dead_pid = child.pid
        leftover = f"/dev/shm/rpro-{dead_pid}-g0-0"
        with open(leftover, "wb") as fh:
            fh.write(b"\0" * 8)
        try:
            arena = SharedArena(tag="t")
            arena.close()
            assert not os.path.exists(leftover)
        finally:
            with pytest.raises(FileNotFoundError):
                os.unlink(leftover)

    def test_generation_tags_keep_names_unique(self):
        a1 = SharedArena(tag="t")
        a2 = SharedArena(tag="t")
        try:
            n1 = a1.handle_of(a1.alloc((2,))).name
            n2 = a2.handle_of(a2.alloc((2,))).name
            assert n1 != n2
        finally:
            a1.close()
            a2.close()

    @pytest.mark.parametrize(
        "dtype", ["float64", "float32", "int32", "complex128"]
    )
    def test_attach_copy_roundtrip_dtypes(self, dtype):
        arena = SharedArena(tag="t")
        try:
            arr = arena.alloc((3, 7), dtype)
            assert arr.dtype == np.dtype(dtype)
            assert not arr.any(), "fresh segments are zero-filled"
            arr[...] = (np.arange(21) - 4).reshape(3, 7).astype(dtype)
            h = arena.handle_of(arr)
            assert h.dtype == arr.dtype.str and h.nbytes == arr.nbytes
            out = attach_copy(h)
            assert out.dtype == arr.dtype and out.shape == arr.shape
            assert np.array_equal(out, arr)
        finally:
            arena.close()

    def test_attach_copy_is_private(self):
        """The worker's copy outlives the owner's writes and its free."""
        arena = SharedArena(tag="t")
        try:
            arr = arena.alloc((6,))
            arr[...] = 3.0
            h = arena.handle_of(arr)
            out = attach_copy(h)
            arr[...] = -1.0
            out[0] = 9.0
            assert np.array_equal(arr, np.full(6, -1.0))
            del arr  # free unmaps: the owner drops its views first
            arena.free(h.name)
            assert not _segment_exists(h.name)
            assert np.array_equal(out, [9.0, 3.0, 3.0, 3.0, 3.0, 3.0])
        finally:
            arena.close()

    def test_handle_of_foreign_and_freed_arrays(self):
        arena = SharedArena(tag="t")
        other = SharedArena(tag="t")
        try:
            arr = arena.alloc((4,))
            assert arena.handle_of(np.zeros(4)) is None
            assert arena.handle_of([0.0, 0.0]) is None
            assert arena.handle_of(other.alloc((4,))) is None
            h = arena.handle_of(arr)
            arena.free(h.name)
            assert arena.handle_of(arr) is None
        finally:
            arena.close()
            other.close()

    def test_handle_is_pickle_light(self):
        """Only the descriptor crosses the process boundary: its pickle
        does not grow with the array it names."""
        arena = SharedArena(tag="t")
        try:
            small = arena.handle_of(arena.alloc((2,)))
            big = arena.handle_of(arena.alloc((64, 1024)))
            assert len(pickle.dumps(big)) < 512
            assert len(pickle.dumps(big)) - len(pickle.dumps(small)) < 32
            assert pickle.loads(pickle.dumps(big)) == big
            assert isinstance(big, ShmHandle) and big.nbytes == 64 * 1024 * 8
        finally:
            arena.close()

    def test_freed_bytes_return_to_budget(self):
        arena = SharedArena(tag="t", budget=1024)
        try:
            a = arena.alloc((96,))  # 768 of 1024 bytes
            assert arena.bytes == 768
            with pytest.raises(ShmBudgetExceeded):
                arena.alloc((96,))
            arena.free(arena.handle_of(a).name)
            del a
            assert arena.bytes == 0
            b = arena.alloc((96,))
            assert arena.bytes == 768 and b.nbytes == 768
            assert arena.created_segments == 2 and arena.freed_segments == 1
        finally:
            arena.close()
        assert arena.bytes == 0 and arena.freed_segments == 2

    def test_nonpositive_budget_rejected(self, monkeypatch):
        for budget in (0, -8):
            with pytest.raises(ValueError, match="budget must be positive"):
                SharedArena(tag="t", budget=budget)
        monkeypatch.setenv("REPRO_SHM_BUDGET", "0")
        with pytest.raises(ValueError, match="budget must be positive"):
            SharedArena(tag="t")

    @pytest.mark.parametrize(
        "raw, expected",
        [
            pytest.param("", DEFAULT_SHM_BUDGET, id="empty"),
            pytest.param("   ", DEFAULT_SHM_BUDGET, id="blank"),
            pytest.param("4096", 4096, id="int"),
            pytest.param("1e6", 1_000_000, id="float"),
        ],
    )
    def test_budget_env_parsing(self, monkeypatch, raw, expected):
        monkeypatch.setenv("REPRO_SHM_BUDGET", raw)
        arena = SharedArena(tag="t")
        try:
            assert arena.budget == expected
        finally:
            arena.close()

    def test_attach_from_child_process(self):
        """A worker process attaches by handle; its exit neither unlinks
        the owner's segment nor corrupts it."""
        arena = SharedArena(tag="t")
        try:
            arr = arena.alloc((5, 4))
            arr[...] = np.arange(20.0).reshape(5, 4)
            h = arena.handle_of(arr[1:3])
            recv, send = mp.get_context("fork").Pipe(duplex=False)
            assert _run_forked(_child_attach_sum, h, send) == 0
            assert recv.poll(CHILD_TIMEOUT)
            assert recv.recv() == float(arr[1:3].sum())
            assert _segment_exists(h.name)
            assert np.array_equal(attach_copy(h), arr[1:3])
        finally:
            arena.close()
        assert not _segment_exists(h.name)

    def test_forked_child_never_unlinks(self):
        """Only the owner pid unlinks: an inherited arena's free/close in
        a forked child is a no-op."""
        arena = SharedArena(tag="t")
        try:
            arr = arena.alloc((8,))
            arr[...] = 2.5
            h = arena.handle_of(arr)
            assert _run_forked(_child_close_arena, arena, h.name) == 0
            assert _segment_exists(h.name)
            assert np.array_equal(attach_copy(h), np.full(8, 2.5))
            assert arena.freed_segments == 0
        finally:
            arena.close()
        assert not _segment_exists(h.name)

    def test_reclaim_spares_live_owners_and_foreign_names(self):
        """The dead-owner sweep only touches ``rpro-<pid>-g<gen>-<seq>``
        names whose pid is gone."""
        live = f"/dev/shm/rpro-{os.getppid()}-g999999-0"
        foreign = f"/dev/shm/rpro-{os.getpid()}-notanarena"
        for path in (live, foreign):
            with open(path, "wb") as fh:
                fh.write(b"\0" * 8)
        try:
            reclaim_dead_owner_segments()
            assert os.path.exists(live) and os.path.exists(foreign)
        finally:
            for path in (live, foreign):
                os.unlink(path)


class TestSigtermBackstop:
    """SIGTERM, the way service managers stop a process, skips
    ``atexit``; the arena's handler unlinks first and then lets the
    signal have its usual effect."""

    def test_unlinks_and_keeps_exit_status(self):
        proc = _run_script(
            """
            import os, signal, time
            from repro.backend.shm import SharedArena

            arena = SharedArena(tag="t")
            arr = arena.alloc((8,))
            print(arena.handle_of(arr).name, flush=True)
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(30)
            """
        )
        name = proc.stdout.strip()
        assert name.startswith("rpro-"), proc.stderr
        assert proc.returncode == -signal.SIGTERM
        assert not _segment_exists(name)

    def test_chains_to_previous_handler(self):
        proc = _run_script(
            """
            import os, signal, time
            from repro.backend.shm import SharedArena

            def prev(signum, frame):
                print("prev", flush=True)
                os._exit(7)

            signal.signal(signal.SIGTERM, prev)
            arena = SharedArena(tag="t")
            arr = arena.alloc((8,))
            print(arena.handle_of(arr).name, flush=True)
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(30)
            """
        )
        name, marker = proc.stdout.split()
        assert proc.returncode == 7, proc.stderr
        assert marker == "prev"
        assert not _segment_exists(name)
