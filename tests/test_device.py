"""Simulated device: clock and transfer accounting (no data movement)."""

import numpy as np
import pytest

from repro.device import Device, TransferModel, VirtualClock


def test_clock_advance():
    clock = VirtualClock()
    clock.advance(1.5)
    assert clock.simulated == pytest.approx(1.5)


def test_clock_rejects_negative():
    with pytest.raises(ValueError):
        VirtualClock().advance(-1.0)


def test_clock_reset():
    clock = VirtualClock()
    clock.advance(2.0)
    clock.reset()
    assert clock.simulated == 0.0


def test_transfer_model_cost():
    model = TransferModel(bandwidth_bytes_per_s=1e9, latency_s=1e-5)
    assert model.cost(0) == pytest.approx(1e-5)
    assert model.cost(10 ** 9) == pytest.approx(1.0 + 1e-5)
    with pytest.raises(ValueError):
        model.cost(-1)


def test_device_charges_transfer_time():
    dev = Device(TransferModel(bandwidth_bytes_per_s=1e6, latency_s=0.0))
    x = np.zeros(125000)  # 1 MB
    dev.to_device(x)
    assert dev.clock.simulated == pytest.approx(1.0)
    assert dev.bytes_to_device == x.nbytes


@pytest.mark.parametrize("direction", ["to_device", "to_host"])
def test_transfers_are_accounting_only(direction):
    """Each direction charges exactly ``TransferModel.cost(nbytes)`` and
    ``nbytes``; the array is neither copied nor written."""
    model = TransferModel(bandwidth_bytes_per_s=3e9, latency_s=7e-6)
    dev = Device(model)
    x = np.random.default_rng(0).normal(size=(100, 4))
    before = x.tobytes()
    x.setflags(write=False)                  # a write would raise
    assert getattr(dev, direction)(x) is None
    assert dev.clock.simulated == model.cost(x.nbytes)
    moved = {"to_device": dev.bytes_to_device, "to_host": dev.bytes_to_host}
    assert moved.pop(direction) == x.nbytes
    assert list(moved.values()) == [0]
    assert x.tobytes() == before


def test_device_reset_counters():
    dev = Device()
    dev.to_device(np.zeros(10))
    dev.to_host(np.zeros(10))
    dev.kernel_launches += 1
    dev.reset_counters()
    assert dev.bytes_to_device == dev.bytes_to_host == 0
    assert dev.kernel_launches == 0
    assert dev.clock.simulated == 0.0
