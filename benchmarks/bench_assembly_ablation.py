"""Assembly-path ablation (section III-F).

Three contention-resolution strategies for GPU finite element assembly —
atomics, graph coloring, domain decomposition — plus PETSc's two-phase
MatSetValues and the preallocated COO path.  This bench measures our
implementations of the first two and both insertion interfaces, and checks
they all produce the same matrix; ``test_jacobian_structure_cached`` times
the operator's repeated ``jacobian()`` build through the cached scatter
structure.
"""

import numpy as np
import scipy.sparse as sp

from repro.core import LandauOperator
from repro.fem.assembly import assemble_mass, element_mass_blocks
from repro.sparse import CooAssembler, PetscLikeMat, colored_assembly_plan


def _element_blocks(fs):
    return element_mass_blocks(fs)


def test_matsetvalues_two_phase(benchmark, ed_system):
    """Phase-2 (pattern frozen) reassembly — the amortized GPU path."""
    fs, spc, op, fields = ed_system
    blocks = _element_blocks(fs)
    nodes = fs.dofmap.cell_nodes
    M = PetscLikeMat(fs.dofmap.n_full)
    for e in range(fs.nelem):
        M.set_values(nodes[e], nodes[e], blocks[e])
    M.assemble()  # CPU first pass freezes the pattern

    def reassemble():
        M.zero_entries()
        for e in range(fs.nelem):
            M.set_values(nodes[e], nodes[e], blocks[e])
        return M.assemble()

    A = benchmark(reassemble)
    ref = assemble_mass(fs)
    assert abs(fs.dofmap.reduce_matrix(A) - ref).max() < 1e-12


def test_coo_preallocated(benchmark, ed_system):
    """The COO path: no CPU pattern pass, value scatter + reduce-by-key."""
    fs, spc, op, fields = ed_system
    blocks = _element_blocks(fs)
    coo = CooAssembler.from_element_blocks(fs.dofmap.n_full, fs.dofmap.cell_nodes)
    A = benchmark(coo.assemble, blocks)
    ref = assemble_mass(fs)
    assert abs(fs.dofmap.reduce_matrix(A) - ref).max() < 1e-12


def test_atomic_scatter(benchmark, ed_system):
    """Atomic adds into a dense global matrix (the released PETSc path)."""
    fs, spc, op, fields = ed_system
    blocks = _element_blocks(fs)
    nodes = fs.dofmap.cell_nodes
    n = fs.dofmap.n_full

    def scatter():
        out = np.zeros((n, n))
        for e in range(fs.nelem):
            np.add.at(out, np.ix_(nodes[e], nodes[e]), blocks[e])
        return out

    A = benchmark(scatter)
    ref = assemble_mass(fs)
    assert abs(fs.dofmap.reduce_matrix(sp.csr_matrix(A)) - ref).max() < 1e-12


def test_colored_assembly(benchmark, ed_system):
    """Graph-coloring batches: contention-free scatter, one pass per color."""
    fs, spc, op, fields = ed_system
    blocks = _element_blocks(fs)
    nodes = fs.dofmap.cell_nodes
    n = fs.dofmap.n_full
    plan = colored_assembly_plan(nodes)

    def scatter():
        out = np.zeros((n, n))
        for batch in plan:
            # within a color no two elements share a node: plain adds
            for e in batch:
                out[np.ix_(nodes[e], nodes[e])] += blocks[e]
        return out

    A = benchmark(scatter)
    ref = assemble_mass(fs)
    assert abs(fs.dofmap.reduce_matrix(sp.csr_matrix(A)) - ref).max() < 1e-12
    print(f"\ncolors used: {len(plan)} for {fs.nelem} elements")


def test_jacobian_structure_cached(benchmark, ed_system):
    """Repeated jacobian through the cached structure and packed tables."""
    fs, spc, op, fields = ed_system
    op = LandauOperator(fs, spc)
    op.jacobian(fields)
    benchmark(op.jacobian, fields)
