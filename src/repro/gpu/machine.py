"""The functional SIMT executor: grid/block launch, shared memory, barriers.

Kernels are Python callables ``kernel(tb, block_id, *args)`` where ``tb`` is
the :class:`ThreadBlock` handle.  Execution is SIMT with numpy-vectorized
lanes: the x thread dimension is materialized as array axes inside the
kernel, blocks run sequentially (the simulator models one device), and all
work is recorded in :class:`repro.gpu.counters.Counters` by the kernel via
the ``tb.count*`` API — the simulated analogue of reading Nsight hardware
counters.
"""

from __future__ import annotations

import numpy as np

from .counters import Counters
from .device import DeviceSpec, V100

FP64 = 8  # bytes per double


class ThreadBlock:
    """Execution handle for one thread block on one SM.

    Provides the CUDA vocabulary used by Algorithm 1: block/thread geometry,
    global and shared-memory traffic, ``syncthreads`` and global atomics —
    each call also records the corresponding work.
    """

    def __init__(
        self,
        block_id: int,
        dim_x: int,
        dim_y: int,
        counters: Counters,
        device: DeviceSpec,
    ):
        if dim_x * dim_y > device.max_threads_per_block:
            raise ValueError(
                f"block {dim_x}x{dim_y} exceeds {device.max_threads_per_block} threads"
            )
        self.block_id = block_id
        self.dim_x = dim_x
        self.dim_y = dim_y
        self.counters = counters
        self.device = device

    # --- memory -----------------------------------------------------------------
    def global_read(self, count: int) -> None:
        """Record ``count`` doubles read from global memory (coalesced)."""
        self.counters.dram_read_bytes += count * FP64

    def global_write(self, count: int) -> None:
        self.counters.dram_write_bytes += count * FP64

    def shared_read(self, count: int) -> None:
        self.counters.shared_read_bytes += count * FP64

    def shared_write(self, count: int) -> None:
        self.counters.shared_write_bytes += count * FP64

    # --- compute ----------------------------------------------------------------
    def count(self, fma: int = 0, mul: int = 0, add: int = 0, special: int = 0) -> None:
        """Record FP64 instructions (per-thread totals, i.e. whole-block)."""
        c = self.counters
        c.fma += fma
        c.mul += mul
        c.add += add
        c.special += special

    # --- synchronization -----------------------------------------------------------
    def syncthreads(self) -> None:
        self.counters.syncthreads += 1

    def atomic_add(self, target: np.ndarray, index, values) -> None:
        """Global-memory atomic fetch-and-add scatter.

        Each atomic moves the 8-byte datum through DRAM (read-modify-write)
        and touches the L1 for the address/index metadata of the sparse
        pattern lookup (16 bytes) — the traffic that makes the assembly
        phase cache-latency bound in the paper's analysis.
        """
        values = np.asarray(values, dtype=float)
        np.add.at(target, index, values)
        n = int(np.prod(values.shape)) if values.shape else 1
        hit = self.device.atomic_l1_hit
        self.counters.atomic_adds += n
        # read-modify-write: the L1/L2 hierarchy absorbs `hit` of the traffic
        self.counters.dram_write_bytes += int(n * FP64 * (1.0 - hit)) + n  # write-back tail
        self.counters.dram_read_bytes += int(n * FP64 * (1.0 - hit))
        self.counters.shared_read_bytes += int(n * 2 * FP64 * hit)
        self.counters.shared_write_bytes += int(n * FP64 * hit)
        self.counters.shared_read_bytes += n * 2 * FP64  # index metadata via L1


class CudaMachine:
    """One simulated device executing kernels block by block."""

    def __init__(self, device: DeviceSpec = V100, counters: Counters | None = None):
        self.device = device
        self.counters = counters if counters is not None else Counters()

    def launch(
        self,
        kernel,
        grid_x: int,
        block_dim: tuple[int, int],
        *args,
        **kwargs,
    ) -> None:
        """Launch ``kernel`` on a 1D grid of ``grid_x`` blocks.

        ``block_dim = (dim_x, dim_y)``; the x dimension is the reduction/
        vector dimension, y indexes integration points (Algorithm 1).
        """
        if grid_x <= 0:
            raise ValueError(f"grid size must be positive, got {grid_x}")
        dim_x, dim_y = block_dim
        self.counters.kernel_launches += 1
        for b in range(grid_x):
            tb = ThreadBlock(b, dim_x, dim_y, self.counters, self.device)
            kernel(tb, b, *args, **kwargs)
            self.counters.blocks_executed += 1
