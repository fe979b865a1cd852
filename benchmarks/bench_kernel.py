"""Honest wall-clock benchmarks of our Python kernels (Algorithm 1 paths).

These are *measured* times of this reproduction's NumPy implementation —
reported as such, never conflated with the modelled device times.  They are
the numbers a user of this library actually experiences:

* pair-table construction (the O(N^2) elliptic-integral tensors),
* the D/K field computation (seven dense matvecs on cached tables),
* the on-the-fly field launch (the tensors re-evaluated every call, the
  paper's regime),
* the per-species Jacobian assembly,
* the full CUDA-model kernel (recomputes tensors on the fly + counters),
* one implicit time step.
"""

import numpy as np
import pytest

from repro.amr import landau_mesh
from repro.core import (
    AssemblyOptions,
    ImplicitLandauSolver,
    LandauOperator,
    SpeciesSet,
    deuterium,
    electron,
)
from repro.core.kernel_cuda import CudaLandauJacobian
from repro.core.maxwellian import maxwellian_rz
from repro.fem import FunctionSpace
from repro.gpu import CudaMachine


@pytest.fixture(scope="module")
def ed_q2_launch():
    """An on-the-fly operator on the e+D Q2 space (N = 504) and 16
    Maxwellian vertex states of spread temperatures."""
    spc = SpeciesSet([electron(), deuterium()])
    fs = FunctionSpace(landau_mesh([s.thermal_velocity for s in spc]), order=2)
    op = LandauOperator(fs, spc, options=AssemblyOptions(cache_pair_tables=False))
    states = np.stack(
        [
            [
                fs.interpolate(
                    lambda r, z, v=(0.8 + 0.025 * k) * s.thermal_velocity: (
                        maxwellian_rz(r, z, 1.0, v)
                    )
                )
                for s in spc
            ]
            for k in range(16)
        ]
    )
    return op, states


def test_pair_table_build(benchmark, ed_system):
    fs, spc, op, fields = ed_system
    options = AssemblyOptions(cache_pair_tables=True)
    result = benchmark(lambda: LandauOperator(fs, spc, options=options))
    assert result.pair_tables_cached


def test_field_computation(benchmark, ed_system):
    fs, spc, op, fields = ed_system
    G_D, G_K = benchmark(op.fields, fields)
    assert G_D.shape == (fs.n_integration_points, 2, 2)


def test_on_the_fly_launch(benchmark, ed_q2_launch):
    """The launch an on-the-fly plan runs every sweep: 16 states' fields
    with the pair tensors re-evaluated (``fields_batch``, the point
    values given)."""
    op, states = ed_q2_launch
    values = op.point_values_batch(states)
    G_D, G_K = benchmark(op.fields_batch, states, values)
    assert not op.pair_tables_cached
    assert G_D.shape == (16, op.N, 2, 2) and np.isfinite(G_K).all()


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
