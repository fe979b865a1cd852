"""Configuration of the operator-assembly pipeline.

The assembly has one shape: the element→CSR scatter map is built once per
mesh (:class:`repro.fem.assembly.ScatterMap`) so every Jacobian/mass build
is a pure ``data`` update, and a cached operator contracts the five
distinct components of ``U^D``/``U^K`` (the rz-symmetries ``U^K_rz ==
U^D_rz`` and ``U^K_zz == U^D_zz`` leave no more) with the basis into
``(n, N)`` field-response tables once, row block by row block, without
ever holding an ``N x N`` table.  Every kernel runs serially on the one
executor, :class:`repro.backend.NumpyBackend`.
:class:`AssemblyOptions` bundles what is selectable:

* **memory budgeting** — a single byte budget replaces the hard-coded
  ``5e7`` chunk constant: it sizes the on-the-fly row chunks and guards
  the cached build's peak (:meth:`AssemblyOptions.cached_build_bytes`)
  with a clear error instead of a ``MemoryError``.
* **table caching** — build the response tables once or recompute the
  tensors on the fly every launch (the paper's regime).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .landau_tensor import PAIR_BLOCK_PLANES

__all__ = ["AssemblyOptions", "PairTableMemoryError"]

#: default cap on a cached build's peak memory (bytes); above this the
#: field computation falls back to chunked on-the-fly tensor evaluation.
DEFAULT_MEMORY_BUDGET = 400 * 1024 * 1024

#: scratch bytes per evaluated point pair of one row block of the O(N^2)
#: kernels: the float64 planes :func:`~repro.core.landau_tensor.
#: pair_block_tensors` holds live (it allocates exactly these; the two
#: index masks on top are one byte per pair while they exist).
ONTHEFLY_BYTES_PER_PAIR = PAIR_BLOCK_PLANES * 8


class PairTableMemoryError(RuntimeError):
    """Raised when a forced response-table build's peak
    (:meth:`AssemblyOptions.cached_build_bytes`: the response tables, the
    mirror images still owed and one row block) would exceed the memory
    budget.

    Raised *before* any allocation so the caller gets a clear, actionable
    message instead of a ``MemoryError`` mid-build.
    """


@dataclass(frozen=True)
class AssemblyOptions:
    """Knobs of the operator-assembly pipeline.

    Parameters
    ----------
    memory_budget:
        byte budget for the cached build's peak
        (:meth:`cached_build_bytes`: the response tables, the mirror
        images still owed to later row blocks and one row block's rows
        and scratch) and on-the-fly chunk sizing.  It
        guards a *new* build and is checked as if the operator were
        making one: within budget it reuses the space's existing build
        when there is one; over budget it stays on the fly (or raises)
        even when another operator has built the tables.
    cache_pair_tables:
        force (True/False) or auto-decide (None, cache when
        :meth:`cached_build_bytes` fits ``memory_budget``) the use of
        the field-response tables, the O(N^2) pair tensors contracted
        with the basis block by block (once per space, shared by every
        cached operator on the space); a forced True whose build exceeds
        ``memory_budget`` raises :class:`PairTableMemoryError`.
    """

    memory_budget: int = DEFAULT_MEMORY_BUDGET
    cache_pair_tables: bool | None = None

    def __post_init__(self):
        # an integral float (``2e9``) is taken as its int; a fractional
        # or non-finite one is rejected, never truncated or let escape
        # from row_chunk as an OverflowError
        budget = self.memory_budget
        if not (
            isinstance(budget, numbers.Real)
            and not isinstance(budget, bool)
            and math.isfinite(budget)
            and budget == int(budget)
        ):
            raise ValueError(f"memory_budget must be an integer, got {budget!r}")
        object.__setattr__(self, "memory_budget", int(budget))
        if self.memory_budget <= 0:
            raise ValueError(
                f"memory_budget must be positive, got {self.memory_budget}"
            )

    # ------------------------------------------------------------------
    def cached_build_bytes(
        self, n_ip: int, n_dofs: int, reflected: bool = False
    ) -> int:
        """Peak bytes of a cached build, what ``memory_budget`` guards:
        the five ``(n_dofs, N)`` float64 response tables, the mirror
        images still owed to later row blocks (at most ``5 N^2 / 4``
        entries, owed by the first half of the rows to the second) and
        the widest row block of
        :meth:`~repro.core.operator.LandauOperator._build_response`: its
        kernel scratch and, per row, eight ``N``-wide float64 rows of
        contraction operands (five assembled components, two per-cell
        products over ``ne * nb <= N`` entries, one gathered row).

        A ``reflected`` build (a space with a free-dof reflection,
        :func:`~repro.core.operator.dof_reflection`) holds the tables of
        the ``N / 2`` upper points only and owes half the mirror images
        (``2 x 5 (N / 2)^2 / 4`` entries); its blocks are as wide."""
        from .operator import ROW_BLOCK_BYTES

        pairs = ROW_BLOCK_BYTES // ONTHEFLY_BYTES_PER_PAIR
        # R rows against N - i0 >= R sources within the pair budget:
        # R <= sqrt(pairs).  A block raised to one cell's rows (a cell of
        # up to 54 points) holds no more than this block charges.
        rows = math.isqrt(pairs)
        block = ONTHEFLY_BYTES_PER_PAIR * pairs + 8 * 8 * rows * n_ip
        halves = 2 if reflected else 1
        M = n_ip // halves  # table rows
        return 8 * (5 * M * n_dofs + 5 * halves * M * M // 4) + block

    def row_chunk(self, n_ip: int) -> int:
        """On-the-fly evaluation row-chunk size within the memory budget."""
        per_row = max(1, n_ip) * ONTHEFLY_BYTES_PER_PAIR
        return max(1, int(self.memory_budget // per_row))
