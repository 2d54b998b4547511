"""Virtual clock of the simulated accelerator.

The paper's evaluation platform is an A100 GPU; our kernels run on the
host CPU.  Real compute is timed where it runs (``forward_wall``, the
event log's phases); this clock accumulates only the *modeled* costs of
things our platform does not physically perform — PCIe transfers
between host and device memory (DESIGN.md §2).

The clock is monotonic and per-instance, so concurrent experiments do
not interfere.
"""

from __future__ import annotations

__all__ = ["VirtualClock"]


class VirtualClock:
    """Accumulates simulated seconds."""

    def __init__(self):
        self.simulated = 0.0

    def advance(self, seconds: float) -> None:
        """Add simulated time (e.g. a modeled transfer)."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time: {seconds}")
        self.simulated += seconds

    def reset(self) -> None:
        self.simulated = 0.0

    def __repr__(self):
        return f"VirtualClock(simulated={self.simulated:.6f})"
