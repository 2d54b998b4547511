"""Shared state for the experiment benches.

Training models is the expensive step, so a session-scoped store
collects data and trains the per-benchmark model families exactly once;
every bench (Table III, Figs. 5-9) reuses them.  Run with ``-s`` to see
the regenerated tables/series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.apps.harness import AppHarness, harness_for
from repro.nn import Trainer

#: Benchmark-scale harness parameters (scaled from the paper's A100
#: datasets to laptop scale; DESIGN.md §2 records the substitution).
HARNESS_PARAMS = {
    "minibude": dict(n_train=4096, n_test=768),
    "binomial": dict(n_train=3072, n_test=768, n_steps=96),
    "bonds": dict(n_train=3072, n_test=768),
    "particlefilter": dict(n_train_frames=768, n_test_frames=64,
                           frame_size=32, n_particles=512),
    "miniweather": dict(nx=32, nz=16, train_steps=150, test_steps=30),
}

#: Size-graded architecture families per benchmark — the population
#: whose speedup/error scatter reproduces Figs. 7/8.
MODEL_FAMILIES = {
    "minibude": [
        ("xs", {"num_hidden_layers": 2, "hidden1_size": 64,
                "feature_multiplier": 0.6}),
        ("s", {"num_hidden_layers": 3, "hidden1_size": 128,
               "feature_multiplier": 0.8}),
        ("m", {"num_hidden_layers": 3, "hidden1_size": 256,
               "feature_multiplier": 0.8}),
        ("l", {"num_hidden_layers": 4, "hidden1_size": 512,
               "feature_multiplier": 0.8}),
    ],
    "binomial": [
        ("xs", {"hidden1_features": 12, "hidden2_features": 0}),
        ("s", {"hidden1_features": 48, "hidden2_features": 24}),
        ("m", {"hidden1_features": 160, "hidden2_features": 96}),
        ("l", {"hidden1_features": 448, "hidden2_features": 320}),
    ],
    "bonds": [
        ("xs", {"hidden1_features": 12, "hidden2_features": 0}),
        ("s", {"hidden1_features": 48, "hidden2_features": 24}),
        ("m", {"hidden1_features": 160, "hidden2_features": 96}),
        ("l", {"hidden1_features": 448, "hidden2_features": 320}),
    ],
    "particlefilter": [
        ("xs", {"conv_kernel": 8, "conv_stride": 6, "maxpool_kernel": 2,
                "fc2_size": 0}),
        ("s", {"conv_kernel": 6, "conv_stride": 4, "maxpool_kernel": 2,
               "fc2_size": 16}),
        ("m", {"conv_kernel": 4, "conv_stride": 2, "maxpool_kernel": 2,
               "fc2_size": 64}),
        ("l", {"conv_kernel": 3, "conv_stride": 2, "maxpool_kernel": 2,
               "fc2_size": 128}),
    ],
    "miniweather": [
        ("s", {"conv1_kernel": 3, "conv1_channels": 4, "conv2_kernel": 0}),
        ("m", {"conv1_kernel": 5, "conv1_channels": 8, "conv2_kernel": 3}),
        ("l", {"conv1_kernel": 7, "conv1_channels": 8, "conv2_kernel": 5}),
    ],
}

TRAIN_PARAMS = {
    "minibude": dict(lr=2e-3, batch_size=128, max_epochs=90, patience=25),
    "binomial": dict(lr=3e-3, batch_size=128, max_epochs=60, patience=15),
    "bonds": dict(lr=3e-3, batch_size=128, max_epochs=60, patience=15),
    "particlefilter": dict(lr=2e-3, batch_size=64, max_epochs=60,
                           patience=20),
    "miniweather": dict(lr=2e-3, batch_size=16, max_epochs=40, patience=12),
}


@dataclass
class TrainedModel:
    label: str
    arch: dict
    model: object
    val_loss: float
    n_params: int


@dataclass
class BenchmarkBundle:
    harness: AppHarness
    models: list = field(default_factory=list)   # [TrainedModel]
    splits: tuple = ()

    def by_label(self, label: str) -> TrainedModel:
        return next(m for m in self.models if m.label == label)


class SessionStore:
    def __init__(self, root):
        self.root = root
        self._bundles: dict[str, BenchmarkBundle] = {}

    def bundle(self, name: str) -> BenchmarkBundle:
        if name in self._bundles:
            return self._bundles[name]
        harness = harness_for(name, self.root / name, seed=0,
                              **HARNESS_PARAMS[name])
        harness.collect()
        (xt, yt), (xv, yv) = harness.training_arrays()
        build = harness.make_builder(xt, yt)
        models = []
        for label, arch in MODEL_FAMILIES[name]:
            model = build(arch, seed=0)
            trainer = Trainer(model, seed=0, **TRAIN_PARAMS[name])
            result = trainer.fit(xt, yt, xv, yv)
            models.append(TrainedModel(label=label, arch=arch, model=model,
                                       val_loss=result.best_val_loss,
                                       n_params=model.num_parameters()))
        bundle = BenchmarkBundle(harness=harness, models=models,
                                 splits=((xt, yt), (xv, yv)))
        self._bundles[name] = bundle
        return bundle


def pytest_addoption(parser):
    parser.addoption(
        "--fig5-autobatch", action="store_true", default=False,
        help="also run the Fig. 5 auto-batched deploy-loop variant "
             "(chunked invocations coalesced by BatchedInferenceEngine)")


@pytest.fixture(scope="session")
def store(tmp_path_factory) -> SessionStore:
    return SessionStore(tmp_path_factory.mktemp("bench_store"))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0)
