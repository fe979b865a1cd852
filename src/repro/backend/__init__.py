"""Pluggable execution backends (the performance-portability seam).

One kernel spec, two executors: the operator/assembly/band-solve hot
paths dispatch through :class:`ExecutionBackend`, selected by name
(``numpy`` | ``threaded``, or ``auto``) via :func:`get_backend` / the
``REPRO_BACKEND`` env knob.  The shared-memory arena
(:mod:`repro.backend.shm`) carries the serve tier's process executor
traffic.

The shared Algorithm-1 kernel specification lives in
``repro.backend.kernel_spec`` and is imported directly by the CUDA and
Kokkos simulators (not re-exported here, to keep this package free of
core/gpu imports).
"""

from .base import ExecutionBackend
from .numpy_backend import NumpyBackend
from .registry import BACKEND_NAMES, get_backend, resolve_backend_name
from .shm import SharedArena, ShmBudgetExceeded, ShmHandle
from .threaded import ThreadedBackend

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "NumpyBackend",
    "SharedArena",
    "ShmBudgetExceeded",
    "ShmHandle",
    "ThreadedBackend",
    "get_backend",
    "resolve_backend_name",
]
