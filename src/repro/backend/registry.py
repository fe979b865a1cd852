"""Backend registry: name validation, ``auto`` resolution, instance cache.

Selection precedence (handled by :class:`repro.core.options.AssemblyOptions`):
explicit ``AssemblyOptions.backend`` > ``REPRO_BACKEND`` env var > ``auto``.
``auto`` keeps today's behavior: serial numpy unless the options request
threads (``num_threads > 1``), in which case the threaded backend absorbs
them.  Unknown names fail fast with the full valid list so a typo in a
deployment env var cannot silently fall back to the slow path.
"""

from __future__ import annotations

from .base import BackendUnavailable, ExecutionBackend
from .numba_backend import NumbaBackend
from .numpy_backend import NumpyBackend
from .threaded import ThreadedBackend

__all__ = [
    "BACKEND_NAMES",
    "available_backends",
    "get_backend",
    "resolve_backend_name",
]

#: registry order is also the documentation order
_BACKENDS: dict[str, type[ExecutionBackend]] = {
    "numpy": NumpyBackend,
    "threaded": ThreadedBackend,
    "numba": NumbaBackend,
}

BACKEND_NAMES: tuple[str, ...] = tuple(_BACKENDS)


def available_backends() -> list[str]:
    """Names of the backends that can actually run here."""
    return [name for name, cls in _BACKENDS.items() if cls.available()]


def resolve_backend_name(name: str | None, num_threads: int = 1) -> str:
    """Validate a backend name and resolve ``auto``/empty to a concrete one.

    ``auto`` (or ``None``/``""``) resolves to ``"threaded"`` when the
    caller asked for threads (``num_threads > 1``) and ``"numpy"``
    otherwise — exactly the pre-backend behavior.  Raises ``ValueError``
    naming the offender and the valid choices on anything else.
    """
    name = str(name or "").strip().lower()
    if name in ("", "auto"):
        return "threaded" if num_threads and num_threads > 1 else "numpy"
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown execution backend {name!r} (REPRO_BACKEND / "
            f"AssemblyOptions.backend): valid names are "
            f"{'auto, ' + ', '.join(BACKEND_NAMES)}"
        )
    return name


_INSTANCES: dict[tuple[str, int], ExecutionBackend] = {}


def get_backend(
    name: str | None = None, num_threads: int = 1
) -> ExecutionBackend:
    """Resolve + instantiate a backend; instances are cached per
    ``(name, threads)`` so thread pools are shared across operators.

    Raises :class:`BackendUnavailable` for a backend whose optional
    dependency is missing (e.g. ``numba`` without the package).
    """
    resolved = resolve_backend_name(name, num_threads)
    cls = _BACKENDS[resolved]
    if not cls.available():
        raise BackendUnavailable(
            f"backend {resolved!r} is not available in this environment "
            f"(available: {', '.join(available_backends())})"
        )
    key = (resolved, int(num_threads) if resolved != "numpy" else 1)
    inst = _INSTANCES.get(key)
    if inst is None:
        inst = cls(num_threads) if resolved != "numpy" else cls()
        _INSTANCES[key] = inst
    return inst
