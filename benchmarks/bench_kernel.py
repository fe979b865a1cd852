"""Honest wall-clock benchmarks of our Python kernels (Algorithm 1 paths).

These are *measured* times of this reproduction's NumPy implementation —
reported as such, never conflated with the modelled device times.  They are
the numbers a user of this library actually experiences:

* pair-table construction (the O(N^2) elliptic-integral tensors),
* the D/K field computation (seven dense matvecs on cached tables),
* the per-species Jacobian assembly,
* the full CUDA-model kernel (recomputes tensors on the fly + counters),
* one implicit time step.
"""

import numpy as np

from repro.core import AssemblyOptions, ImplicitLandauSolver, LandauOperator
from repro.core.kernel_cuda import CudaLandauJacobian
from repro.gpu import CudaMachine


def test_pair_table_build(benchmark, ed_system):
    fs, spc, op, fields = ed_system
    options = AssemblyOptions(cache_pair_tables=True)
    result = benchmark(lambda: LandauOperator(fs, spc, options=options))
    assert result.pair_tables_cached


def test_field_computation(benchmark, ed_system):
    fs, spc, op, fields = ed_system
    G_D, G_K = benchmark(op.fields, fields)
    assert G_D.shape == (fs.n_integration_points, 2, 2)


def test_jacobian_build(benchmark, ed_system):
    fs, spc, op, fields = ed_system
    blocks = benchmark(op.jacobian, fields)
    assert len(blocks) == len(spc)


def test_cuda_model_kernel(benchmark, ed_system):
    """The instrumented Algorithm 1 — slower than the cached CPU path by
    design (it recomputes the tensors on the fly, as the GPU does)."""
    fs, spc, op, fields = ed_system
    ck = CudaLandauJacobian(fs, spc, machine=CudaMachine())
    J = benchmark.pedantic(ck.build, args=(fields,), rounds=2, iterations=1)
    assert np.isfinite(J).all()


def test_implicit_step(benchmark, ed_system):
    fs, spc, op, fields = ed_system
    solver = ImplicitLandauSolver(op, rtol=1e-6)
    out = benchmark.pedantic(
        solver.step, args=(fields, 0.5), kwargs={"efield": 0.01}, rounds=2, iterations=1
    )
    assert len(out) == len(spc)
