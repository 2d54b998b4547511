"""Transfer cost model and the simulated device itself.

The cost model is the classic latency+bandwidth line: moving ``n`` bytes
costs ``latency + n / bandwidth`` seconds of *simulated* time.  Defaults
approximate a PCIe 4.0 x16 link (the A100 host link in the paper's
platform): ~25 GB/s effective bandwidth, ~10 µs launch latency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clock import VirtualClock

__all__ = ["TransferModel", "Device"]


@dataclass(frozen=True)
class TransferModel:
    """Latency/bandwidth model for host<->device copies."""

    bandwidth_bytes_per_s: float = 25e9
    latency_s: float = 10e-6

    def __post_init__(self):       # so no transfer costs negative time
        if not (self.bandwidth_bytes_per_s > 0 and self.latency_s >= 0):
            raise ValueError(f"need bandwidth > 0, latency >= 0: {self}")

    def cost(self, nbytes: int) -> float:
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        return self.latency_s + nbytes / self.bandwidth_bytes_per_s


class Device:
    """A simulated accelerator: byte counters and a virtual clock.

    The model is arithmetic, not data movement.  :meth:`to_device` /
    :meth:`to_host` charge what moving an array across the host link
    *would* cost onto the clock and touch no data; the forward itself
    runs on the host, on the caller's array (the ownership rule that
    makes this sound is DESIGN.md §1).

    ``dense_speedup`` models the accelerator's structural advantage on
    dense linear algebra: on the paper's A100, NN inference runs as
    vendor-optimized GEMM at ~47% of peak compute while the scientific
    kernels it replaces reach a few percent via scattered access (paper
    Observation 2: MiniBUDE's kernel at 33.5% compute / 6.1% bandwidth
    vs the model's 47.2% / 31.5%).  Host NumPy has no such gap — both
    sides run at similar efficiency — so the simulator scales *measured*
    dense-op wall time by this factor to recover the device's relative
    economics.  Calibration is documented in DESIGN.md §2.
    """

    def __init__(self, transfer_model: TransferModel | None = None,
                 clock: VirtualClock | None = None, name: str = "sim0",
                 dense_speedup: float = 8.0):
        if dense_speedup <= 0:
            raise ValueError(f"dense_speedup must be positive: {dense_speedup}")
        self.name = name
        self.transfer_model = transfer_model or TransferModel()
        self.clock = clock or VirtualClock()
        self.dense_speedup = dense_speedup
        self.bytes_to_device = 0
        self.bytes_to_host = 0
        self.kernel_launches = 0

    def dense_time(self, wall_seconds: float) -> float:
        """Device-equivalent time of a dense operation measured on host."""
        return wall_seconds / self.dense_speedup

    # -- transfers -------------------------------------------------------
    def to_device(self, array: np.ndarray) -> None:
        """Charge a host-to-device transfer of ``array``."""
        nbytes = array.nbytes
        # Never negative (TransferModel checks its terms): no advance().
        self.clock.simulated += self.transfer_model.cost(nbytes)
        self.bytes_to_device += nbytes

    def to_host(self, array: np.ndarray) -> None:
        """Charge a device-to-host transfer of ``array``."""
        nbytes = array.nbytes
        self.clock.simulated += self.transfer_model.cost(nbytes)
        self.bytes_to_host += nbytes

    def reset_counters(self) -> None:
        self.bytes_to_device = self.bytes_to_host = 0
        self.kernel_launches = 0
        self.clock.reset()

    def __repr__(self):
        return (f"Device({self.name!r}, launches={self.kernel_launches}, "
                f"h2d={self.bytes_to_device}B, d2h={self.bytes_to_host}B)")
