"""The paper's performance test problem and its per-iteration work profile.

Section V: "The test problem is similar to the deuterium plasma ... but with
an additional eight species of Tungsten with different ionization states
... and with 80 Q3 elements, run for 100 time steps."  This module builds
exactly that problem, runs the functional kernel simulator once to obtain
the Jacobian/mass work counters, factors the real (block-diagonal) Jacobian
with the band solver to count factor/solve flops, and packages everything
as per-Newton-iteration work — the input to the node/pipeline models.

Calibration notes (documented deviations recorded in EXPERIMENTS.md):

* The production launch has only 80 blocks — one per V100 SM — so the
  kernel runs far from the full-occupancy throughput Table IV measures on
  the 320-cell problem.  ``BLOCKS_PER_SM_FOR_FULL_OCCUPANCY`` and
  ``SMALL_LAUNCH_LATENCY`` model that gap (together they land the V100
  Jacobian+mass near the paper's ~1.4 ms/iteration).
* Our AMR meshes give an RCM bandwidth of ~150-200 (the deep tungsten-scale
  refinement couples widely separated dofs), larger than the paper's grid
  appears to have; the factor-to-kernel time ratio is correspondingly
  larger here.  The flop counts are real, from our band factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..amr import landau_mesh
from ..fem.function_space import FunctionSpace
from ..gpu.counters import Counters
from ..gpu.device import DeviceSpec
from ..gpu.machine import CudaMachine
from ..gpu.profiler import profile_kernel
from ..sparse.band import BandSolver
from .nodes import CoreSpec
from ..core.kernel_cuda import CudaLandauJacobian
from ..core.maxwellian import species_maxwellian
from ..core.operator import LandauOperator
from ..core.species import SpeciesSet, deuterium, electron, tungsten_states

#: measured share of the Landau matrix-construction time spent on CPU
#: metadata (Table VII: Landau 3.3 s vs kernel 2.9 s on Summit/CUDA);
#: modelled as work proportional to the matrix nonzeros.
METADATA_OPS_PER_NNZ = 16.0
#: non-Landau, non-solver work (vector ops, TS control) as a fraction of
#: the factor+solve time (Table VII: 14.3 - 3.3 - 8.4 - 0.8 = 1.8 s).
OTHER_FRACTION_OF_SOLVER = 0.20
#: blocks per SM needed to hide latency at full throughput.
BLOCKS_PER_SM_FOR_FULL_OCCUPANCY = 4
#: residual slowdown of a small, latency-exposed launch relative to the
#: occupancy-scaled roofline time (calibrated to the paper's per-iteration
#: kernel time on V100).
SMALL_LAUNCH_LATENCY = 2.25
#: Newton iterations per time step at production tolerances (the paper's
#: run performs ~2000 iterations in 100 steps).
DEFAULT_NEWTON_PER_STEP = 20


def build_paper_species() -> SpeciesSet:
    """e + D + eight tungsten charge states, quasineutral."""
    w_states = tungsten_states()
    zw = sum(s.charge * s.density for s in w_states)
    return SpeciesSet(
        [electron(density=1.0 + zw), deuterium(density=1.0)] + w_states
    )


@dataclass
class LandauWorkload:
    """Per-Newton-iteration work profile of one Landau vertex solve."""

    species: SpeciesSet
    fs: FunctionSpace
    jacobian_counters: Counters
    mass_counters: Counters
    factor_flops: float
    solve_flops: float
    metadata_flops: float
    band_width: int
    newton_per_step: int = DEFAULT_NEWTON_PER_STEP
    time_steps: int = 100

    @property
    def iterations_per_run(self) -> int:
        return self.newton_per_step * self.time_steps

    # --- GPU side ------------------------------------------------------------
    def occupancy(self, device: DeviceSpec) -> float:
        """Fraction of device throughput reachable at this launch size."""
        blocks = self.fs.nelem
        full = device.sm_count * BLOCKS_PER_SM_FOR_FULL_OCCUPANCY
        return min(1.0, blocks / full)

    def kernel_time(self, device: DeviceSpec, overhead: float = 1.0) -> float:
        """Jacobian + mass kernel time per Newton iteration on ``device``.

        Occupancy and small-launch latency scale the roofline *body* only;
        the atomic serialization tail and launch overheads do not shrink
        with occupancy.
        """
        occ = self.occupancy(device)
        t = 0.0
        for name, counters in (
            ("Jacobian", self.jacobian_counters),
            ("Mass", self.mass_counters),
        ):
            p = profile_kernel(name, counters, device, launches=1)
            body = max(p.t_compute, p.t_dram, p.t_l1)
            t += (
                body * SMALL_LAUNCH_LATENCY / occ + p.t_atomic
            ) / device.software_efficiency + device.kernel_launch_us * 1e-6
        return overhead * t

    def host_kernel_time(
        self, core: CoreSpec, nthreads: int, device: DeviceSpec
    ) -> float:
        """Kernel time on host cores (Kokkos-OpenMP on A64FX).

        League members map to OpenMP threads (ideal thread scaling, Table VI
        top row).  The GNU/Kokkos toolchain fails to engage the SVE lanes,
        so each core sustains the *scalar* slot rate — peak issue slots per
        core divided by the ``warp_size`` vector width — degraded further by
        the device's residual ``software_efficiency`` and pipe utilization.
        """
        c = self.jacobian_counters
        cm = self.mass_counters
        slots = c.issue_slots + cm.issue_slots
        per_core = (
            device.peak_issue_slots
            / device.sm_count
            / device.warp_size
            * device.software_efficiency
            * device.pipe_utilization
        )
        return slots / (nthreads * per_core)

    # --- CPU side ------------------------------------------------------------
    def factor_time(self, core: CoreSpec, threads_per_core: int = 1) -> float:
        return (
            self.factor_flops
            * core.slowdown(threads_per_core)
            / (core.effective_gflops * 1e9)
        )

    def solve_time(self, core: CoreSpec, threads_per_core: int = 1) -> float:
        return (
            self.solve_flops
            * core.slowdown(threads_per_core)
            / (core.effective_gflops * 1e9)
        )

    def metadata_time(self, core: CoreSpec, threads_per_core: int = 1) -> float:
        """CPU metadata share of the Landau matrix construction."""
        return (
            self.metadata_flops
            * core.slowdown(threads_per_core)
            / (core.effective_gflops * 1e9)
        )

    def other_time(self, core: CoreSpec, threads_per_core: int = 1) -> float:
        return OTHER_FRACTION_OF_SOLVER * (
            self.factor_time(core, threads_per_core)
            + self.solve_time(core, threads_per_core)
        )

    def cpu_time(self, core: CoreSpec, threads_per_core: int = 1) -> float:
        """All per-iteration CPU work: factor + solve + metadata + other."""
        return (
            self.factor_time(core, threads_per_core)
            + self.solve_time(core, threads_per_core)
            + self.metadata_time(core, threads_per_core)
            + self.other_time(core, threads_per_core)
        )


def build_paper_workload(
    newton_per_step: int = DEFAULT_NEWTON_PER_STEP,
    time_steps: int = 100,
    order: int = 3,
) -> LandauWorkload:
    """Build the 10-species / ~80-cell Q3 problem and profile one iteration."""
    species = build_paper_species()
    mesh = landau_mesh([s.thermal_velocity for s in species])
    fs = FunctionSpace(mesh, order=order)
    fields = [fs.interpolate(species_maxwellian(s)) for s in species]

    mach_j = CudaMachine()
    CudaLandauJacobian(fs, species, machine=mach_j).build(fields)
    mach_m = CudaMachine()
    CudaLandauJacobian(fs, species, machine=mach_m).build_mass(1.0)

    # real Jacobian -> band factor/solve flop counts (all S blocks share
    # the single-species pattern: the I_S (x) A_1 structure)
    op = LandauOperator(fs, species)
    L = op.species_matrices(*op.fields(fields))[0]
    A = (op.mass_matrix - 0.1 * L).tocsr()
    counter: dict = {}
    solver = BandSolver(A, work_counter=counter)
    S = len(species)
    factor_flops = counter["flops"] * S
    solve_flops = S * 4.0 * A.shape[0] * (solver.B + 1)
    metadata_flops = METADATA_OPS_PER_NNZ * A.nnz * S

    return LandauWorkload(
        species=species,
        fs=fs,
        jacobian_counters=mach_j.counters,
        mass_counters=mach_m.counters,
        factor_flops=float(factor_flops),
        solve_flops=float(solve_flops),
        metadata_flops=float(metadata_flops),
        band_width=solver.B,
        newton_per_step=newton_per_step,
        time_steps=time_steps,
    )
