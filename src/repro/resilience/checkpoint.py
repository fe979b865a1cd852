"""Checkpoint/restart for long quench runs (``.npz`` format).

A checkpoint captures everything a resumed run needs to *bitwise*
reproduce the uninterrupted trajectory: the per-species distribution
vectors, the clock, the (RNG-free) time-step-controller state, the
accumulated :class:`~repro.quench.model.QuenchHistory`, and an ``extra``
dict of driver scalars (phase label, loop indices, the relaxed E field,
...).  Everything lands in one ``np.savez_compressed`` archive; the extra
dict is JSON so drivers can stash arbitrary scalar state without schema
changes.

Format (version 1)::

    __version__   int
    fields        (S, ndofs) float64   stacked species distributions
    t             float                simulation clock
    controller    (5,) float64         TimeStepController.state_vector()
    extra_json    str                  JSON dict of driver state
    hist_t/n_e/J/E/T_e  float64 arrays QuenchHistory columns (optional)
    hist_phase    unicode array        QuenchHistory phase labels

On disk the archive is wrapped in a checksummed envelope
(:func:`write_checksummed` — a magic line carrying the SHA-256 of the
payload, then the payload bytes), written atomically (tmp + fsync +
rename), so a truncated or bit-flipped file is *detected* at load time
instead of resuming a run from silently corrupted state.  The serve
tier's crash-consistent service checkpoints
(:mod:`repro.serve.checkpoint`) share the same envelope.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from .exceptions import CheckpointError

CHECKPOINT_VERSION = 1

_HIST_COLS = ("t", "n_e", "J", "E", "T_e")

#: envelope header: magic + sha256 hex digest of the payload + newline
CHECKSUM_MAGIC = b"RPROCKSUM1 "


def write_checksummed(path: str, payload: bytes) -> str:
    """Atomically write ``payload`` with a SHA-256 integrity header.

    tmp + flush + fsync + rename (+ a best-effort directory fsync), so a
    crash mid-write leaves either the previous file or the new one —
    never a torn mix — and any later corruption is caught by
    :func:`read_checksummed`.  Returns ``path``.
    """
    digest = hashlib.sha256(payload).hexdigest().encode("ascii")
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(CHECKSUM_MAGIC + digest + b"\n" + payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    with suppress(OSError):  # rename durability; not available everywhere
        dirfd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
        try:
            os.fsync(dirfd)
        finally:
            os.close(dirfd)
    return path


def read_checksummed(path: str) -> bytes:
    """Read a :func:`write_checksummed` file, verifying the digest.

    Raises :class:`CheckpointError` on a truncated or bit-flipped file,
    or one without the magic header.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(CHECKSUM_MAGIC):
        raise CheckpointError(
            "checkpoint has no checksum header (truncated or not a checkpoint)",
            diagnostics={"path": path, "bytes": len(raw)},
        )
    header, sep, payload = raw.partition(b"\n")
    stored = header[len(CHECKSUM_MAGIC):]
    if not sep:
        raise CheckpointError(
            "checkpoint truncated inside the checksum header",
            diagnostics={"path": path, "bytes": len(raw)},
        )
    actual = hashlib.sha256(payload).hexdigest().encode("ascii")
    if actual != stored:
        raise CheckpointError(
            "checkpoint checksum mismatch (truncated or corrupted file)",
            diagnostics={
                "path": path,
                "stored_sha256": stored.decode("ascii", "replace")[:64],
                "actual_sha256": actual.decode("ascii"),
                "payload_bytes": len(payload),
            },
        )
    return payload


@dataclass
class Checkpoint:
    """In-memory image of a checkpoint file."""

    fields: list
    t: float
    controller_state: np.ndarray | None = None
    history: object | None = None  # a QuenchHistory when present
    extra: dict = field(default_factory=dict)
    version: int = CHECKPOINT_VERSION


def save_checkpoint(
    path: str,
    *,
    fields: list,
    t: float,
    controller=None,
    history=None,
    extra: dict | None = None,
) -> str:
    """Write a checkpoint; atomic (write to ``path + '.tmp'``, then rename).

    ``controller`` may be a :class:`TimeStepController` (its
    ``state_vector()`` is stored) or a pre-built state vector; ``history``
    a :class:`~repro.quench.model.QuenchHistory` or ``None``.
    Returns ``path``.
    """
    arrays: dict = {
        "__version__": np.array(CHECKPOINT_VERSION),
        "fields": np.stack([np.asarray(x, dtype=float) for x in fields]),
        "t": np.array(float(t)),
        "extra_json": np.array(json.dumps(extra or {})),
    }
    if controller is not None:
        vec = controller.state_vector() if hasattr(controller, "state_vector") else controller
        arrays["controller"] = np.asarray(vec, dtype=float)
    if history is not None:
        for col in _HIST_COLS:
            arrays[f"hist_{col}"] = np.asarray(getattr(history, col), dtype=float)
        arrays["hist_phase"] = np.asarray(history.phase, dtype="U16")
    buf = io.BytesIO()
    np.savez_compressed(buf, **arrays)
    return write_checksummed(path, buf.getvalue())


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint written by :func:`save_checkpoint`."""
    if not os.path.exists(path):
        raise CheckpointError("checkpoint file not found", diagnostics={"path": path})
    payload = read_checksummed(path)
    try:
        with np.load(io.BytesIO(payload), allow_pickle=False) as data:
            version = int(data["__version__"])
            if version != CHECKPOINT_VERSION:
                raise CheckpointError(
                    "unsupported checkpoint version",
                    diagnostics={"path": path, "version": version,
                                 "supported": CHECKPOINT_VERSION},
                )
            fields = [np.array(row) for row in data["fields"]]
            t = float(data["t"])
            controller_state = (
                np.array(data["controller"]) if "controller" in data else None
            )
            extra = json.loads(str(data["extra_json"]))
            history = None
            if "hist_t" in data:
                from ..quench.model import QuenchHistory

                history = QuenchHistory(
                    t=list(map(float, data["hist_t"])),
                    n_e=list(map(float, data["hist_n_e"])),
                    J=list(map(float, data["hist_J"])),
                    E=list(map(float, data["hist_E"])),
                    T_e=list(map(float, data["hist_T_e"])),
                    phase=[str(p) for p in data["hist_phase"]],
                )
    except CheckpointError:
        raise
    except Exception as err:
        raise CheckpointError(
            "failed to read checkpoint",
            diagnostics={"path": path, "error": f"{type(err).__name__}: {err}"},
        ) from err
    return Checkpoint(
        fields=fields,
        t=t,
        controller_state=controller_state,
        history=history,
        extra=extra,
        version=version,
    )
