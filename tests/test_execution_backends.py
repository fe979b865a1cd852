"""The execution-backend layer: registry/env selection, cross-backend
numerical equivalence on a two-species quench vertex, and the
launch-reduction zero-launch regression."""

import numpy as np
import pytest

from repro.backend import (
    BACKEND_NAMES,
    NumpyBackend,
    ThreadedBackend,
    get_backend,
    resolve_backend_name,
)
from repro.core import LandauOperator
from repro.core.batch import BatchedVertexSolver, BatchStats
from repro.core.maxwellian import maxwellian_rz, species_maxwellian
from repro.core.options import AssemblyOptions
from repro.fem import FunctionSpace
from repro.serve.shard import ShardWorker
from repro.sparse.band import CachedBandSolverFactory

TOL = 1e-12

@pytest.fixture(scope="module")
def quench_fields(ed_fs, ed_species):
    """A thermal-quench vertex: electrons cooled to 70% of their thermal
    speed with a small flow, cold bulk deuterium unchanged."""
    e, d = ed_species[0], ed_species[1]
    fe = ed_fs.interpolate(
        lambda r, z: maxwellian_rz(r, z - 0.1, 1.0, 0.7 * e.thermal_velocity)
    )
    fd = ed_fs.interpolate(species_maxwellian(d))
    return [fe, fd]


def _operator(fs, species, backend_name):
    return LandauOperator(
        fs,
        species,
        options=AssemblyOptions.from_env(
            backend=backend_name,
            num_threads=2 if backend_name != "numpy" else 0,
        ),
    )


class TestRegistry:
    def test_auto_resolution(self):
        assert resolve_backend_name("auto", num_threads=1) == "numpy"
        assert resolve_backend_name("auto", num_threads=4) == "threaded"
        assert resolve_backend_name(None, num_threads=1) == "numpy"
        assert resolve_backend_name("", num_threads=2) == "threaded"
        # case and whitespace are normalised before "auto" is recognised
        assert resolve_backend_name("Auto", num_threads=1) == "numpy"
        assert resolve_backend_name(" auto ", num_threads=2) == "threaded"
        assert AssemblyOptions(backend="AUTO").resolved_backend() == "numpy"

    def test_unknown_name_lists_valid_choices(self):
        with pytest.raises(ValueError, match="auto, numpy, threaded$"):
            resolve_backend_name("cupy")
        assert BACKEND_NAMES == ("numpy", "threaded")

    @pytest.mark.parametrize(
        "raw, threads, expected",
        [
            pytest.param("Auto", 1, "numpy", id="auto-title"),
            pytest.param(" auto ", 2, "threaded", id="auto-padded"),
            pytest.param("AUTO\t", 4, "threaded", id="auto-upper-tab"),
            pytest.param("Numpy ", 4, "numpy", id="numpy-title-padded"),
            pytest.param(" THREADED", 1, "threaded", id="threaded-upper-padded"),
        ],
    )
    def test_names_normalised_before_lookup(self, raw, threads, expected):
        """Case and surrounding whitespace never change the outcome, on
        the registry and through the options that carry the name."""
        assert resolve_backend_name(raw, num_threads=threads) == expected
        opts = AssemblyOptions(backend=raw, num_threads=threads)
        assert opts.resolved_backend() == expected
        assert opts.execution_backend().name == expected

    @pytest.mark.parametrize(
        "raw",
        [
            pytest.param("process", id="lower"),
            pytest.param("Process", id="title"),
            pytest.param(" PROCESS ", id="upper-padded"),
            pytest.param("numba", id="numba-lower"),
            pytest.param("Numba", id="numba-title"),
            pytest.param(" NUMBA ", id="numba-upper-padded"),
        ],
    )
    def test_removed_process_backend_fails_fast(self, raw, monkeypatch):
        """Every spelling of a deleted backend (the process pool, numba)
        is an unknown name at each entry point, never a silent fallback."""
        match = f"'{raw.strip().lower()}'.*auto, numpy, threaded$"
        with pytest.raises(ValueError, match=match):
            resolve_backend_name(raw, num_threads=2)
        with pytest.raises(ValueError, match=match):
            get_backend(raw, num_threads=2)
        with pytest.raises(ValueError, match=match):
            AssemblyOptions(backend=raw, num_threads=2)
        monkeypatch.setenv("REPRO_BACKEND", raw)
        with pytest.raises(ValueError, match=match):
            AssemblyOptions.from_env()

    def test_instances_are_cached(self):
        assert get_backend("numpy") is get_backend("numpy")
        assert get_backend("threaded", num_threads=3) is get_backend(
            "threaded", num_threads=3
        )

    def test_options_reject_bad_backend(self):
        with pytest.raises(ValueError, match="execution backend"):
            AssemblyOptions(backend="bogus")

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "threaded")
        assert AssemblyOptions.from_env().backend == "threaded"
        monkeypatch.setenv("REPRO_BACKEND", "Numpy ")
        assert AssemblyOptions.from_env().resolved_backend() == "numpy"
        monkeypatch.setenv("REPRO_BACKEND", "cuda")
        with pytest.raises(ValueError, match="REPRO_BACKEND"):
            AssemblyOptions.from_env()


class TestBackendPrimitives:
    """The small ops every backend must reproduce from the reference."""

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_matmul_contract_scatter(self, name):
        ref = NumpyBackend()
        be = get_backend(name, num_threads=4)
        rng = np.random.default_rng(11)
        A = rng.normal(size=(37, 23))
        Bm = rng.normal(size=(23, 41))
        assert np.allclose(be.matmul(A, Bm), ref.matmul(A, Bm), atol=TOL)
        X = rng.normal(size=(5, 7, 3))
        Y = rng.normal(size=(7, 3))
        got = be.contract("bij,ij->bi", X, Y)
        assert np.allclose(got, ref.contract("bij,ij->bi", X, Y), atol=TOL)

    def test_contraction_planned_once_per_key(
        self, fs_q2, fs_q3, electron_species, monkeypatch
    ):
        """The assembly contractions plan their path once per (spec,
        operand shapes) and give what the planning call gives."""
        from repro.backend import numpy_backend

        numpy_backend._einsum_path.cache_clear()
        planned = []
        real = np.einsum_path

        def counting(spec, *ops, **kw):
            planned.append((spec, tuple(op.shape for op in ops)))
            return real(spec, *ops, **kw)

        monkeypatch.setattr(np, "einsum_path", counting)
        limit = numpy_backend.EINSUM_INTERMEDIATE_LIMIT
        rng = np.random.default_rng(5)
        keys = set()
        for fs in (fs_q2, fs_q3):
            sm = _operator(fs, electron_species, "numpy").scatter_map
            ne, nq = fs.qweights.shape
            w, g = fs.qweights, sm.gphys
            for X in (1, 5, 8, 5, 1):
                G_D = rng.normal(size=(X, ne, nq, 2, 2))
                G_K = rng.normal(size=(X, ne, nq, 2))
                for spec, ops in (
                    ("eq,eqad,xeqdc,eqbc->xeab", (w, g, G_D, g)),
                    ("eq,eqad,xeqd,qb->xeab", (w, g, G_K, fs.B)),
                ):
                    keys.add((spec, tuple(o.shape for o in ops)))
                    got = numpy_backend.einsum(spec, *ops)
                    ref = np.einsum(spec, *ops, optimize=("greedy", limit))
                    assert np.array_equal(got, ref)
        assert sorted(planned) == sorted(keys) and len(keys) == 12

    def test_parallel_for_covers_all_blocks(self):
        be = ThreadedBackend(num_threads=4)
        hits = np.zeros(97, dtype=int)

        def fill(i0, i1):
            hits[i0:i1] += 1

        be.parallel_for(be.batch_blocks(97), fill)
        assert np.all(hits == 1)

    def test_threaded_pool_survives_fork(self):
        """A forked child (a serve shard worker) inherits the pool object
        but none of its threads; its first launch must build its own."""
        import multiprocessing as mp
        import threading

        be = ThreadedBackend(num_threads=2)
        A = np.arange(12.0).reshape(3, 4)
        Bm = np.ones((4, 64))
        # both pool threads alive in the parent: the child's copy of the
        # pool is then full and never starts a thread of its own
        both = threading.Barrier(2, timeout=30)
        assert be.parallel_for([(), ()], both.wait)
        assert len(be._get_pool()._threads) == 2

        def child(conn):
            conn.send(bool(np.array_equal(be.matmul(A, Bm), A @ Bm)))

        recv, send = mp.get_context("fork").Pipe(duplex=False)
        proc = mp.get_context("fork").Process(target=child, args=(send,))
        proc.start()
        got = recv.recv() if recv.poll(30) else None
        proc.join(10)
        if proc.is_alive():
            proc.kill()
            proc.join()
        assert got is True, "threaded launch in a forked child hung"
        assert proc.exitcode == 0


class TestQuenchEquivalence:
    """Every backend matches the numpy reference to <= 1e-12 on the
    two-species quench vertex: Jacobian, implicit step, band solves.
    References run on a new space of the same mesh, so no leg compares
    a field-response build with itself."""

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_jacobian_matches(self, ed_fs, ed_species, quench_fields, name):
        ref = _operator(FunctionSpace(ed_fs.mesh, order=3), ed_species, "numpy")
        op = _operator(ed_fs, ed_species, name)
        assert not np.shares_memory(op.response_tables[0], ref.response_tables[0])
        J_ref = ref.jacobian(quench_fields)
        J = op.jacobian(quench_fields)
        for a in range(len(ed_species)):
            scale = np.abs(J_ref[a].data).max()
            assert (
                np.abs((J[a] - J_ref[a]).toarray()).max() <= TOL * scale
            ), f"species {a} Jacobian diverges on backend {name}"

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_batched_step_matches(self, ed_fs, ed_species, quench_fields, name):
        states = np.stack(
            [
                np.stack(quench_fields),
                np.stack([0.9 * quench_fields[0], quench_fields[1]]),
            ]
        )
        kw = dict(rtol=1e-9)
        ref = BatchedVertexSolver(
            FunctionSpace(ed_fs.mesh, order=3),
            ed_species,
            options=AssemblyOptions.from_env(backend="numpy"),
            **kw,
        )
        bs = BatchedVertexSolver(
            ed_fs,
            ed_species,
            options=AssemblyOptions.from_env(backend=name, num_threads=2),
            **kw,
        )
        out_ref = ref.step(states, dt=0.05)
        out = bs.step(states, dt=0.05)
        assert np.all(bs.last_converged)
        scale = np.abs(out_ref).max()
        assert np.abs(out - out_ref).max() <= TOL * scale

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_batched_band_solve_matches(
        self, ed_fs, ed_species, quench_fields, name
    ):
        op = _operator(ed_fs, ed_species, "numpy")
        M = op.mass_matrix.tocsr()
        L = op.jacobian(quench_fields)[0].tocsr()
        template = (M - 0.05 * L).tocsr()
        rng = np.random.default_rng(3)
        X = 4
        data = np.stack(
            [template.data * (1.0 + 0.01 * x) for x in range(X)]
        )
        rhs = rng.normal(size=(X, template.shape[0]))

        ref_solver = CachedBandSolverFactory().factor_batch(
            template, data, backend=NumpyBackend()
        )
        solver = CachedBandSolverFactory().factor_batch(
            template, data, backend=get_backend(name, num_threads=2)
        )
        out_ref = ref_solver.solve_many(rhs)
        out = solver.solve_many(rhs)
        scale = np.abs(out_ref).max()
        assert np.abs(out - out_ref).max() <= TOL * scale
        one = solver.solve(2, rhs[2])
        assert np.abs(one - out_ref[2]).max() <= TOL * scale


class TestLaunchReductionRegression:
    """field_launches == 0 must report a reduction of 0.0, not divide."""

    def test_batch_stats_zero_launches(self):
        assert BatchStats().launch_reduction == 0.0
        st = BatchStats(field_launches=4, equivalent_unbatched_launches=12)
        assert st.launch_reduction == 3.0

    def test_shard_aggregate_zero_launches(self):
        agg = ShardWorker(shard_id=0).solver_counters()
        assert agg["field_launches"] == 0
        assert agg["launch_reduction"] == 0.0
