"""Configuration of the operator-assembly fast path.

:class:`AssemblyOptions` bundles the knobs of the cached/parallel assembly
pipeline introduced for the Algorithm-1 hot loop:

* **structure caching** — precompute the element→CSR scatter map once per
  mesh (:class:`repro.fem.assembly.ScatterMap`) so every subsequent
  Jacobian/mass build is a pure ``data`` update with no sparse-structure
  work, shared across species and Newton iterations; the band solver
  likewise reuses its RCM ordering and band symbolic setup between
  refactorizations (:class:`repro.sparse.band.CachedBandSolverFactory`).
* **packed pair tables** — store the unique components of ``U^D``/``U^K``
  contiguously.  The rz-symmetries ``U^K_rz == U^D_rz`` and
  ``U^K_zz == U^D_zz`` leave only five distinct ``N x N`` tables (instead
  of seven strided views into the ``(N, N, 2, 2)`` tensors), cutting both
  the memory footprint and — because the contractions become contiguous
  BLAS calls — the per-iteration field cost by several times.
* **parallel builds** — dispatch the O(N^2) table build and the chunked
  on-the-fly field path in row blocks over a thread pool (numpy releases
  the GIL inside the row-block kernel's array operations).
* **memory budgeting** — a single byte budget replaces the hard-coded
  ``5e7`` chunk constant: it sizes the on-the-fly row chunks and guards
  the cached-table build with a clear error instead of a ``MemoryError``.

Every knob has an environment override (prefix ``REPRO_ASSEMBLY_``) so
runs can be reconfigured without touching driver code.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .landau_tensor import PAIR_BLOCK_PLANES

__all__ = ["AssemblyOptions", "PairTableMemoryError"]

#: default cap on cached pair-table memory (bytes); above this the field
#: computation falls back to chunked on-the-fly tensor evaluation.
DEFAULT_MEMORY_BUDGET = 400 * 1024 * 1024

#: scratch bytes per evaluated point pair of one row block of the O(N^2)
#: kernels: the float64 planes :func:`~repro.core.landau_tensor.
#: pair_block_tensors` holds live (it allocates exactly these; the two
#: index masks on top are one byte per pair while they exist).
ONTHEFLY_BYTES_PER_PAIR = PAIR_BLOCK_PLANES * 8


class PairTableMemoryError(RuntimeError):
    """Raised when a forced pair-table cache would exceed the memory budget.

    Raised *before* any allocation so the caller gets a clear, actionable
    message instead of a ``MemoryError`` mid-build.
    """


def _env_bool(name: str, default: bool) -> bool:
    raw = os.environ.get(name)
    if raw is None:
        return default
    val = raw.strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"{name} must be a boolean flag, got {raw!r}")


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(float(raw))
    except ValueError as err:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from err


@dataclass(frozen=True)
class AssemblyOptions:
    """Knobs for the cached/parallel operator-assembly fast path.

    Parameters
    ----------
    cache_structure:
        precompute and reuse the element→CSR scatter map (and the band
        solver's RCM/symbolic setup) across species and Newton iterations.
    packed_tables:
        store the five unique pair-table components contiguously instead
        of the legacy seven strided tensor views.
    num_threads:
        row-block thread count for the table build and the chunked
        on-the-fly field path; ``0`` or ``1`` runs serially.
    table_dtype:
        ``"float64"`` (default) or ``"float32"`` for the cached tables —
        the low-precision mode halves memory traffic for runs that can
        tolerate single-precision field sums.
    memory_budget:
        byte budget for cached tables and on-the-fly chunk sizing.
    cache_pair_tables:
        force (True/False) or auto-decide (None) caching of the O(N^2)
        tables; a forced True that exceeds ``memory_budget`` raises
        :class:`PairTableMemoryError`.
    backend:
        execution backend name (``auto`` | ``numpy`` | ``threaded`` |
        ``numba``) for the operator/assembly/band-solve hot paths; see
        :mod:`repro.backend`.  ``auto`` picks ``threaded`` when
        ``num_threads > 1`` and the serial reference otherwise.
    """

    cache_structure: bool = True
    packed_tables: bool = True
    num_threads: int = 0
    table_dtype: str = "float64"
    memory_budget: int = DEFAULT_MEMORY_BUDGET
    cache_pair_tables: bool | None = None
    backend: str = "auto"

    def __post_init__(self):
        if self.table_dtype not in ("float64", "float32"):
            raise ValueError(
                f"table_dtype must be 'float64' or 'float32', got {self.table_dtype!r}"
            )
        if self.num_threads < 0:
            raise ValueError(f"num_threads must be >= 0, got {self.num_threads}")
        if self.memory_budget <= 0:
            raise ValueError(
                f"memory_budget must be positive, got {self.memory_budget}"
            )
        # fail fast on unknown backend names (typo'd REPRO_BACKEND etc.)
        self.resolved_backend()

    # ------------------------------------------------------------------
    @classmethod
    def from_env(cls, **overrides) -> "AssemblyOptions":
        """Defaults with ``REPRO_ASSEMBLY_*`` environment overrides applied.

        Recognized variables: ``REPRO_ASSEMBLY_CACHE_STRUCTURE``,
        ``REPRO_ASSEMBLY_PACKED_TABLES``, ``REPRO_ASSEMBLY_THREADS``,
        ``REPRO_ASSEMBLY_TABLE_DTYPE``, ``REPRO_ASSEMBLY_MEMORY_BUDGET``,
        ``REPRO_ASSEMBLY_CACHE_TABLES`` (``auto``/``1``/``0``) and
        ``REPRO_BACKEND`` (``auto``/``numpy``/``threaded``/``numba``).
        Keyword arguments win over the environment.
        """
        values = {
            "backend": os.environ.get("REPRO_BACKEND", "auto").strip().lower()
            or "auto",
            "cache_structure": _env_bool("REPRO_ASSEMBLY_CACHE_STRUCTURE", True),
            "packed_tables": _env_bool("REPRO_ASSEMBLY_PACKED_TABLES", True),
            "num_threads": _env_int("REPRO_ASSEMBLY_THREADS", 0),
            "table_dtype": os.environ.get(
                "REPRO_ASSEMBLY_TABLE_DTYPE", "float64"
            ).strip(),
            "memory_budget": _env_int(
                "REPRO_ASSEMBLY_MEMORY_BUDGET", DEFAULT_MEMORY_BUDGET
            ),
        }
        raw_cache = os.environ.get("REPRO_ASSEMBLY_CACHE_TABLES", "auto").strip().lower()
        if raw_cache in ("auto", ""):
            values["cache_pair_tables"] = None
        elif raw_cache in ("1", "true", "yes", "on"):
            values["cache_pair_tables"] = True
        elif raw_cache in ("0", "false", "no", "off"):
            values["cache_pair_tables"] = False
        else:
            raise ValueError(
                f"REPRO_ASSEMBLY_CACHE_TABLES must be auto/1/0, got {raw_cache!r}"
            )
        values.update(overrides)
        return cls(**values)

    @classmethod
    def legacy(cls) -> "AssemblyOptions":
        """The seed code path: per-build COO→CSR scatter, seven strided
        table views, serial builds.  Used as the ablation baseline."""
        return cls(
            cache_structure=False,
            packed_tables=False,
            num_threads=0,
            table_dtype="float64",
        )

    # ------------------------------------------------------------------
    @property
    def dtype(self) -> np.dtype:
        return np.dtype(self.table_dtype)

    def resolved_threads(self) -> int:
        """Effective worker count (>= 1)."""
        return max(1, int(self.num_threads))

    def resolved_backend(self) -> str:
        """Concrete backend name with ``auto`` resolved; raises
        ``ValueError`` on unknown names (the message lists valid ones)."""
        from ..backend.registry import resolve_backend_name

        return resolve_backend_name(self.backend, self.resolved_threads())

    def execution_backend(self):
        """The resolved :class:`~repro.backend.ExecutionBackend` instance
        (cached per name/thread-count in the registry)."""
        from ..backend.registry import get_backend

        return get_backend(self.backend, self.resolved_threads())

    def table_bytes(self, n_ip: int) -> int:
        """Bytes a cached table set would occupy for ``n_ip`` points."""
        ncomp = 5 if self.packed_tables else 7
        itemsize = self.dtype.itemsize
        # the legacy layout keeps views into the full (N, N, 2, 2) UD/UK
        # tensors, so it actually pins 8 components in memory
        if not self.packed_tables:
            ncomp = 8
        return ncomp * n_ip * n_ip * itemsize

    def row_chunk(self, n_ip: int) -> int:
        """On-the-fly evaluation row-chunk size within the memory budget."""
        per_row = max(1, n_ip) * ONTHEFLY_BYTES_PER_PAIR
        return max(1, int(self.memory_budget // per_row))
