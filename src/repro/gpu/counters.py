"""Work counters for the simulated GPU: the raw material of the roofline
and device-time models.

Floating point work is recorded by instruction class because the roofline
analysis distinguishes them: an FMA is one issue slot but two flops, MUL and
ADD are one slot / one flop, and "special" operations (divide, sqrt, log —
the elliptic-integral polynomial path has several) occupy multiple slots.
The paper reports that only 64% of the Jacobian kernel's FP64 instructions
were DFMA, which is why 66.4% pipe utilization yields only 53% of the DFMA
roofline — the same arithmetic falls out of these counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

#: issue-slot cost of one special-function op relative to an FMA slot
SPECIAL_SLOT_COST = 4.0


@dataclass
class Counters:
    """Accumulated work counts (all doubles; bytes are bytes)."""

    fma: int = 0
    mul: int = 0
    add: int = 0
    special: int = 0
    dram_read_bytes: int = 0
    dram_write_bytes: int = 0
    shared_read_bytes: int = 0
    shared_write_bytes: int = 0
    atomic_adds: int = 0
    warp_shuffles: int = 0
    syncthreads: int = 0
    kernel_launches: int = 0
    blocks_executed: int = 0

    # --- arithmetic --------------------------------------------------------------
    @property
    def flops(self) -> int:
        """Total FP64 flops (FMA = 2)."""
        return 2 * self.fma + self.mul + self.add + self.special

    @property
    def fp64_instructions(self) -> int:
        return self.fma + self.mul + self.add + self.special

    @property
    def dfma_fraction(self) -> float:
        n = self.fp64_instructions
        return self.fma / n if n else 0.0

    @property
    def issue_slots(self) -> float:
        """FP64 pipe issue slots, weighting special ops by their latency."""
        return self.fma + self.mul + self.add + SPECIAL_SLOT_COST * self.special

    @property
    def dram_bytes(self) -> int:
        return self.dram_read_bytes + self.dram_write_bytes

    @property
    def shared_bytes(self) -> int:
        return self.shared_read_bytes + self.shared_write_bytes

    @property
    def arithmetic_intensity(self) -> float:
        """Flops per DRAM byte — the roofline x-coordinate."""
        b = self.dram_bytes
        return self.flops / b if b else float("inf")

    # --- algebra -----------------------------------------------------------------
    def snapshot(self) -> "Counters":
        return Counters(**{f.name: getattr(self, f.name) for f in fields(self)})

    def diff(self, earlier: "Counters") -> "Counters":
        return Counters(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in fields(self)
            }
        )
