"""``repro.device`` — simulated accelerator (DESIGN.md §2, GPU substitution)."""

from .clock import VirtualClock
from .transfer import TransferModel, Device

__all__ = ["VirtualClock", "TransferModel", "Device"]
