"""The executor of the hot paths.

:class:`NumpyBackend` runs every kernel of the batched step — the
on-the-fly Algorithm-1 field rows, the response-table field GEMMs, the
batched einsum assembly, the CSR scatter-apply and the batched band
factor/solve — serially in numpy/scipy; parallelism lives one level up,
in the serve tier's shards.

The Algorithm-1 kernel's SoA packing and instruction-mix constants live
in ``repro.backend.kernel_spec`` and are imported directly by the CUDA
simulator kernel (not re-exported here, to keep this package free of
core/gpu imports).
"""

from .numpy_backend import NumpyBackend

__all__ = ["NumpyBackend"]
