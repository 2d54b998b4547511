"""Failure injection and robustness across the stack."""

import numpy as np
import pytest

from repro.api import approx_ml
from repro.bridge import BridgeError, SweepRange, TensorFunctor, concretize
from repro.h5 import File, FormatError
from repro.nn import (Linear, Sequential, Tensor, Trainer, load_model,
                      save_model)
from repro.nn.serialize import ModelFormatError
from repro.runtime import DataCollector, load_training_data
from repro.search import BayesianOptimizer, GaussianProcess, Space, Continuous

# ----------------------------------------------------------------------
# Corrupted persistence
# ----------------------------------------------------------------------

def test_corrupt_db_header_rejected(tmp_path):
    db = tmp_path / "c.rh5"
    coll = DataCollector(db)
    coll.record("r", np.ones((2, 2)), np.ones((2, 1)), 0.1)
    coll.close()
    blob = bytearray(db.read_bytes())
    blob[5] ^= 0xFF                      # flip a header-length byte
    db.write_bytes(bytes(blob))
    with pytest.raises(Exception):       # FormatError or JSON decode
        load_training_data(db, "r")


def test_corrupt_model_payload_rejected(tmp_path):
    """A torn write (file cut mid-payload) is detected at load time.

    ``save_model`` itself can no longer produce this state — it writes
    to a temp file and ``os.replace``\\ s it into place — so a truncated
    file on disk means external corruption, and the loader refuses it."""
    path = tmp_path / "m.rnm"
    save_model(Sequential(Linear(4, 4)), path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_save_model_atomic_and_checksum_catches_bitrot(tmp_path):
    """Crash-safe persistence: no temp-file residue after a save, and a
    single flipped payload bit trips the checksum footer on load."""
    path = tmp_path / "m.rnm"
    save_model(Sequential(Linear(4, 4)), path)
    assert not path.with_name(path.name + ".tmp").exists()
    load_model(path)                      # pristine file round-trips

    blob = bytearray(path.read_bytes())
    blob[-40] ^= 0x01                     # one bit, inside the payload
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelFormatError, match="checksum"):
        load_model(path)


def test_db_with_wrong_region_name(tmp_path):
    db = tmp_path / "n.rh5"
    coll = DataCollector(db)
    coll.record("actual", np.ones((1, 2)), np.ones((1, 1)), 0.1)
    coll.close()
    with pytest.raises(KeyError):
        load_training_data(db, "imaginary")


# ----------------------------------------------------------------------
# NaN / non-finite propagation
# ----------------------------------------------------------------------

def test_region_propagates_nan_inputs_transparently(tmp_path):
    """The runtime is a transport layer: NaNs flow through, the QoI
    check downstream is the application's job (paper: quality metrics
    are evaluated on the final QoI)."""
    model_path = tmp_path / "m.rnm"
    save_model(Sequential(Linear(2, 1)), model_path)

    @approx_ml(f"""
#pragma approx tensor functor(fi: [i, 0:2] = ([i, 0:2]))
#pragma approx tensor functor(fo: [i, 0:1] = ([i]))
#pragma approx tensor map(to: fi(x[0:N]))
#pragma approx tensor map(from: fo(y[0:N]))
#pragma approx ml(infer) in(x) out(y) model("{model_path}")
""")
    def region(x, y, N):
        y[:N] = 0.0

    x = np.ones((4, 2))
    x[1, 0] = np.nan
    y = np.zeros(4)
    region(x, y, 4)
    assert np.isnan(y[1])
    assert np.isfinite(y[[0, 2, 3]]).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_trainer_survives_nan_loss():
    """A diverging candidate must not crash the search loop — nor warn:
    the one overflow it provokes (Adam's squared gradient) is declared
    expected at its site."""
    x = np.full((32, 2), 1e150)          # overflow territory
    y = np.full((32, 1), 1e150)
    model = Sequential(Linear(2, 1))
    trainer = Trainer(model, lr=1e-1, batch_size=16, max_epochs=3,
                      patience=3)
    result = trainer.fit(x, y, x, y)
    assert result.epochs_run >= 1        # completed without raising


def test_bo_survives_always_failing_objective():
    space = Space([Continuous("x", 0.0, 1.0)])

    def objective(cfg):
        return float("inf")

    result = BayesianOptimizer(space, n_init=2, seed=0).minimize(
        objective, n_iterations=6)
    assert len(result.trials) == 6


def test_gp_handles_duplicate_points():
    x = np.zeros((6, 2))                 # all identical inputs
    y = np.arange(6.0)
    gp = GaussianProcess().fit(x, y)
    mean, std = gp.predict(np.zeros((1, 2)))
    assert np.isfinite(mean).all() and np.isfinite(std).all()


# ----------------------------------------------------------------------
# Bridge misuse
# ----------------------------------------------------------------------

def test_gather_after_source_mutation_is_consistent():
    f = TensorFunctor.parse(
        "#pragma approx tensor functor(f: [i, 0:1] = ([i]))")
    arr = np.arange(6.0)
    cm = concretize(f, arr, [SweepRange(0, 6)])
    first = cm.gather().copy()
    arr += 10.0
    second = cm.gather()
    np.testing.assert_allclose(second - first, np.full((6, 1), 10.0))


def test_scatter_into_readonly_array():
    f = TensorFunctor.parse(
        "#pragma approx tensor functor(f: [i, 0:1] = ([i]))")
    arr = np.zeros(4)
    arr.flags.writeable = False
    cm = concretize(f, arr, [SweepRange(0, 4)], writable=True)
    with pytest.raises((BridgeError, ValueError, TypeError)):
        cm.scatter(np.ones((4, 1)))


def test_zero_size_batch_rejected():
    f = TensorFunctor.parse(
        "#pragma approx tensor functor(f: [i, 0:1] = ([i]))")
    with pytest.raises(BridgeError):
        concretize(f, np.zeros(4), [SweepRange(2, 2)])


# ----------------------------------------------------------------------
# Datastore concurrency-ish behaviour (interleaved handles)
# ----------------------------------------------------------------------

def test_reopen_after_close_sees_data(tmp_path):
    path = tmp_path / "r.rh5"
    with File(path, "w") as f:
        f.create_dataset("x", np.ones(3))
    with File(path, "a") as f:
        f.create_dataset("y", np.zeros(2))
    with File(path, "r") as f:
        assert "x" in f and "y" in f


def test_read_mode_never_writes(tmp_path):
    path = tmp_path / "ro.rh5"
    with File(path, "w") as f:
        f.create_dataset("x", np.ones(3))
    size = path.stat().st_size
    with File(path, "r") as f:
        f.create_dataset("z", np.ones(10))   # in-memory only
    assert path.stat().st_size == size       # file untouched
