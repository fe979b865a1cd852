"""One field-response build per velocity space.

The response tables depend on the space's quadrature geometry alone, so
every cached :class:`LandauOperator` on one space —
batched, sequential, retry, reference — shares one read-only build.  The
space's registry holds the build weakly and the operators hold it, so it
is freed with the last operator; the first build runs under the space's
lock, which a forked child replaces rather than inherits.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.core import (
    AssemblyOptions,
    BatchedVertexSolver,
    ImplicitLandauSolver,
    LandauOperator,
)
from repro.core import operator as operator_module
from repro.fem import FunctionSpace
from repro.serve import PlanCache, SolvePlan


@pytest.fixture()
def fresh_fs(small_mesh) -> FunctionSpace:
    """A space no other test has built on (Q2: N = 180, builds fast)."""
    return FunctionSpace(small_mesh, order=2)


@pytest.fixture()
def builds(monkeypatch) -> list:
    """Records every response build (the operator's N, not the operator,
    which would keep its tables alive)."""
    calls = []
    build = LandauOperator._build_response

    def counted(self):
        calls.append(self.N)
        return build(self)

    monkeypatch.setattr(LandauOperator, "_build_response", counted)
    return calls


class TestOneBuildPerSpace:
    def test_every_operator_on_a_space_shares_one_build(
        self, fresh_fs, electron_species, ed_species, builds
    ):
        """Species, collision frequency and budget differ; the tables
        are one object, built once."""
        ops = [
            LandauOperator(fresh_fs, electron_species, options=AssemblyOptions()),
            LandauOperator(fresh_fs, ed_species, nu0=0.5, options=AssemblyOptions()),
            BatchedVertexSolver(
                fresh_fs, electron_species, options=AssemblyOptions()
            ).op,
            LandauOperator(
                fresh_fs,
                electron_species,
                options=AssemblyOptions(memory_budget=10**9),
            ),
        ]
        ImplicitLandauSolver(ops[1])  # the retry path wraps an operator
        assert len(builds) == 1
        R_D, R_K = ops[0].response_tables
        for op in ops[1:]:
            assert op.response_tables[0] is R_D and op.response_tables[1] is R_K

    def test_the_shared_build_is_the_upper_half(
        self, fresh_fs, electron_species, ed_species, builds
    ):
        """The space has a z-reflection: every operator on it reads the
        one build of the upper half's tables."""
        a = LandauOperator(fresh_fs, electron_species, options=AssemblyOptions())
        b = LandauOperator(fresh_fs, ed_species, options=AssemblyOptions())
        assert len(builds) == 1
        n, N = fresh_fs.ndofs, a.N
        assert [R.shape for R in a.response_tables] == [(n, 3 * N // 2), (n, N)]
        assert b.response_tables[0] is a.response_tables[0]
        assert a._mirror is b._mirror is operator_module.dof_reflection(fresh_fs)

    def test_on_the_fly_operators_build_nothing(
        self, fresh_fs, electron_species, builds
    ):
        """An operator that launches its fields on the fly, by choice or
        under a budget the build does not fit, neither builds the
        tables nor holds a build another operator made."""
        cached = LandauOperator(fresh_fs, electron_species, options=AssemblyOptions())
        for options in (
            AssemblyOptions(cache_pair_tables=False),
            AssemblyOptions(memory_budget=100_000),
        ):
            op = LandauOperator(fresh_fs, electron_species, options=options)
            assert not op.pair_tables_cached and op.response_tables is None
        assert len(builds) == 1 and cached.pair_tables_cached

    def test_spaces_build_apart(self, fresh_fs, small_mesh, electron_species, builds):
        """Equal geometry is not enough: the build belongs to the space
        object, as the scatter map does."""
        twin = FunctionSpace(small_mesh, order=2)
        a = LandauOperator(fresh_fs, electron_species, options=AssemblyOptions())
        b = LandauOperator(twin, electron_species, options=AssemblyOptions())
        assert len(builds) == 2
        assert np.array_equal(a.response_tables[0], b.response_tables[0])
        assert not np.shares_memory(a.response_tables[0], b.response_tables[0])

    def test_shared_tables_are_read_only(self, fresh_fs, electron_species):
        op = LandauOperator(fresh_fs, electron_species, options=AssemblyOptions())
        for R in op.response_tables:
            with pytest.raises(ValueError, match="read-only"):
                R[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                R *= 2.0


class TestLifetime:
    def test_freed_with_the_last_operator(self, fresh_fs, electron_species, builds):
        a = LandauOperator(fresh_fs, electron_species, options=AssemblyOptions())
        b = LandauOperator(fresh_fs, electron_species, options=AssemblyOptions())
        refs = [weakref.ref(R) for R in a.response_tables]
        del a
        gc.collect()
        assert all(ref() is not None for ref in refs)  # b still holds them
        del b
        gc.collect()
        assert all(ref() is None for ref in refs)
        # a later operator builds afresh
        LandauOperator(fresh_fs, electron_species, options=AssemblyOptions())
        assert len(builds) == 2

    def test_plan_eviction_frees_the_space(self, fresh_fs, fs_q3, electron_species):
        """The plan cache's runtimes are the only holders: evicting the
        last plan on a space frees its tables."""
        cache = PlanCache(budget=1)  # every new plan evicts the old ones
        rt = cache.get(SolvePlan(fs=fresh_fs, species=electron_species, dt=0.3))
        refs = [weakref.ref(R) for R in rt.op.response_tables]
        del rt
        cache.get(SolvePlan(fs=fs_q3, species=electron_species, dt=0.3))
        assert cache.evictions == 1
        gc.collect()
        assert all(ref() is None for ref in refs)


class TestConcurrency:
    def test_concurrent_first_builds_build_once(
        self, fresh_fs, electron_species, builds
    ):
        n = 4
        start = threading.Barrier(n, timeout=30)
        ops = [None] * n
        errors = []

        def construct(i):
            try:
                start.wait()
                ops[i] = LandauOperator(
                    fresh_fs, electron_species, options=AssemblyOptions()
                )
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=construct, args=(i,)) for i in range(n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the lookups finely
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors and all(op is not None for op in ops)
        assert len(builds) == 1
        assert all(op.response_tables[0] is ops[0].response_tables[0] for op in ops)

    def test_forked_child_constructs_on_a_built_space(
        self, fresh_fs, electron_species
    ):
        """The parent forks while holding the registry lock and the
        space's build lock (as a parent thread mid-lookup would); the
        child makes its own locks and reuses the inherited build."""
        op = LandauOperator(fresh_fs, electron_species, options=AssemblyOptions())
        R_D = op.response_tables[0]
        ctx = mp.get_context("fork")

        def child(conn):
            got = LandauOperator(fresh_fs, electron_species, options=AssemblyOptions())
            conn.send(got.response_tables[0] is R_D)

        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=child, args=(send,))
        _, space_lock, _ = operator_module._space_entry(fresh_fs)
        with operator_module._RESPONSES_LOCK, space_lock:
            proc.start()
        got = recv.recv() if recv.poll(30) else None
        proc.join(10)
        if proc.is_alive():
            proc.kill()
            proc.join()
        assert got is True, "operator construction in a forked child hung"
        assert proc.exitcode == 0
