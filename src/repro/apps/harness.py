"""Evaluation harnesses: collect → train → deploy → measure per app.

Implements the paper's A4 "benchmark evaluation" artifact: for each
benchmark, run the accurate application capturing runtime and QoI; run
the HPAC-ML-approximated version with a given surrogate capturing the
same; report end-to-end speedup and QoI error.  Speedup accounting
includes "all required data transfers and transformations" (§V-D):
to-tensor and from-tensor bridge time, measured inference wall time,
and the simulated device-transfer seconds from :mod:`repro.device`.

The test-vs-train protocol follows §V-B: every harness collects on a
training workload and deploys on a held-out test workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..device import Device
from ..nn import Destandardize, Sequential, Standardize, mse_loss, save_model
from ..nn.training import train_val_split
from ..search.builders import builder_for
from ..runtime import EventLog, InferenceEngine, Phase, load_training_data
from ..serving import RegionServer
from . import binomial, bonds, minibude, miniweather, particlefilter
from .base import REGISTRY, qoi_error_fn

__all__ = ["DeploymentMetrics", "QoSDeploymentMetrics", "AppHarness",
           "RowBatchedHarness", "MiniBudeHarness", "BinomialHarness",
           "BondsHarness", "ParticleFilterHarness", "MiniWeatherHarness",
           "harness_for"]


@dataclass
class DeploymentMetrics:
    """One deployed model's end-to-end measurement."""

    benchmark: str
    speedup: float
    qoi_error: float
    accurate_time: float
    surrogate_time: float
    breakdown: dict = field(default_factory=dict)
    n_params: int = 0

    def row(self) -> dict:
        return {"benchmark": self.benchmark, "speedup": self.speedup,
                "error": self.qoi_error, "n_params": self.n_params,
                **{f"t_{k}": v for k, v in self.breakdown.items()}}


@dataclass
class QoSDeploymentMetrics:
    """A deployment measured under a :class:`repro.qos.QoSController`.

    ``deployed_time`` is the full serving cost — inference, bridge,
    simulated transfers, *and* the accurate-path/shadow time the QoS
    loop spent; ``validation_overhead`` is the SHADOW share of it.
    """

    benchmark: str
    speedup: float
    qoi_error: float
    accurate_time: float
    deployed_time: float
    validation_overhead: float
    shadow_invocations: int
    path_counts: dict = field(default_factory=dict)
    qos: dict = field(default_factory=dict)

    def row(self) -> dict:
        return {"benchmark": self.benchmark, "speedup": self.speedup,
                "error": self.qoi_error,
                "validation_overhead": self.validation_overhead,
                "shadows": self.shadow_invocations,
                **{f"n_{k}": v for k, v in sorted(self.path_counts.items())}}


class AppHarness:
    """Shared collect/deploy machinery; subclasses bind one benchmark."""

    name: str = ""
    #: Auto-regressive harnesses (MiniWeather) must keep the immediate
    #: engine: deferred scatter-back would feed step t+1 stale state.
    supports_auto_batch: bool = True

    def __init__(self, workdir, seed: int = 0, auto_batch: bool = False,
                 batch_rows: int = 256, deploy_chunk: int | None = None,
                 server: RegionServer | None = None):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.seed = seed
        if auto_batch and not self.supports_auto_batch:
            raise ValueError(f"{type(self).__name__} is auto-regressive; "
                             "auto-batching its deploy loop is unsound")
        self.auto_batch = auto_batch
        self.batch_rows = batch_rows
        self.deploy_chunk = deploy_chunk
        self.db_path = self.workdir / f"{self.name}.rh5"
        self.model_path = self.workdir / f"{self.name}.rnm"
        self.events = EventLog()
        self.device = Device()
        self.engine = InferenceEngine(device=self.device)
        self.info = REGISTRY[self.name]
        self.error_fn = qoi_error_fn(self.info.metric)
        self._setup()
        # Every harness serves through a RegionServer: its own (serial
        # backend, the latency baseline) or a shared one — the
        # multi-region deployment story, where several harnesses
        # register their regions on one server under one arbiter.
        self.server = server if server is not None else RegionServer()
        self.server.register(self.deploy_region, name=self.name)

    # subclass hooks ----------------------------------------------------
    def _setup(self) -> None:
        raise NotImplementedError

    def collect(self) -> None:
        """Run the region in collection mode over the training workload."""
        raise NotImplementedError

    def _run(self, use_model: bool) -> np.ndarray:
        """Drive the deployment workload through the server; returns QoI."""
        raise NotImplementedError

    def run_accurate(self) -> np.ndarray:
        """Accurate path on the *test* workload; returns QoI."""
        return self._run(False)

    def run_surrogate(self) -> np.ndarray:
        """Inference path on the *test* workload; returns QoI."""
        return self._run(True)

    def builder_kwargs(self) -> dict:
        return {}

    def loss_fn(self):
        return mse_loss

    # shared ----------------------------------------------------------------
    def training_arrays(self, val_fraction: float = 0.2):
        """Load collected data and split train/validation."""
        x, y, _t = load_training_data(self.db_path, self.name)
        rng = np.random.default_rng(self.seed + 17)
        return train_val_split(x, y, val_fraction, rng)

    @property
    def deploy_region(self):
        """The :class:`ApproxRegion` the deployment loop invokes."""
        return self.region

    def install_model(self, model) -> None:
        """Persist a trained model where the annotation's clause points."""
        save_model(model, self.model_path)
        self.engine.cache.clear()
        # Load + precompile where the deployed region's forwards run, so
        # its first timed invocation pays neither load nor planning.
        self.deploy_region.engine.warmup(self.model_path)

    def _surrogate_seconds(self, before_records: int) -> tuple[float, dict]:
        recs = self.events.records[before_records:]
        to_t = sum(r.times.get(Phase.TO_TENSOR, 0.0) for r in recs)
        inf = sum(r.times.get(Phase.INFERENCE, 0.0) for r in recs)
        from_t = sum(r.times.get(Phase.FROM_TENSOR, 0.0) for r in recs)
        total = to_t + inf + from_t
        breakdown = {"to_tensor": to_t, "inference": inf,
                     "from_tensor": from_t}
        return total, breakdown

    def _window_start(self, before: int) -> int:
        """First record index of the measured deployment window.

        Auto-regressive harnesses (MiniWeather) march a warm-up phase
        before the test window and publish ``window_record_start``;
        clamping both the accurate and surrogate measurements to it
        keeps the speedup ratio's windows comparable.
        """
        return max(before, getattr(self, "window_record_start", before))

    def evaluate(self, model, repeats: int = 3) -> DeploymentMetrics:
        """Deploy ``model`` and measure speedup + QoI error (§V-D).

        Mirrors the paper's protocol of repeated runs with the mean
        runtime (scaled down from 20 runs / drop 2).
        """
        self.install_model(model)

        acc_times, qoi_acc = [], None
        for _ in range(repeats):
            before = len(self.events.records)
            qoi_acc = self.run_accurate()
            recs = self.events.records[self._window_start(before):]
            acc_times.append(sum(r.times.get(Phase.ACCURATE, 0.0)
                                 for r in recs))
        sur_times, breakdown, qoi_sur = [], {}, None
        for _ in range(repeats):
            before = len(self.events.records)
            sim_before = self.device.clock.simulated
            qoi_sur = self.run_surrogate()
            wall, breakdown = self._surrogate_seconds(
                self._window_start(before))
            sim = self.device.clock.simulated - sim_before
            breakdown["transfer_sim"] = sim
            sur_times.append(wall + sim)

        accurate_time = float(np.mean(acc_times))
        surrogate_time = float(np.mean(sur_times))
        error = float(self.error_fn(qoi_sur, self.reference_qoi(qoi_acc)))
        return DeploymentMetrics(
            benchmark=self.name,
            speedup=accurate_time / max(surrogate_time, 1e-12),
            qoi_error=error,
            accurate_time=accurate_time,
            surrogate_time=surrogate_time,
            breakdown=breakdown,
            n_params=model.num_parameters())

    def reference_qoi(self, qoi_accurate: np.ndarray) -> np.ndarray:
        """What surrogate QoI is compared against (default: accurate)."""
        return qoi_accurate

    def deploy_with_qos(self, model, controller,
                        repeats: int = 1) -> QoSDeploymentMetrics:
        """Deploy ``model`` under a QoS controller and measure it.

        Extends the §V-D accounting with the QoS loop's own costs: the
        deployed time includes shadow-validation kernel runs and any
        accurate/collect invocations a policy forced, so the reported
        speedup is the *net* serving speedup after paying for online
        quality control.  The controller is attached only for the
        surrogate window and detached afterwards.

        Timing and ``path_counts`` cover the measured deployment
        window, accumulated over ``repeats``; the controller's own
        counters (``qos`` snapshot, ``shadow_invocations``) cover its
        whole attachment, which for auto-regressive harnesses also
        spans the warm-up march preceding each window.
        """
        self.install_model(model)
        acc_times, qoi_acc = [], None
        for _ in range(repeats):
            before = len(self.events.records)
            qoi_acc = self.run_accurate()
            recs = self.events.records[self._window_start(before):]
            acc_times.append(sum(r.times.get(Phase.ACCURATE, 0.0)
                                 for r in recs))
        region = self.deploy_region
        dep_times, shadow_times, qoi_sur = [], [], None
        # Accumulated across repeats, like the controller's own
        # shadow/telemetry counters, so the row reconciles.
        path_counts: dict = {}
        prev_qos = self.server.attach_qos(controller, names=[self.name])
        try:
            for _ in range(repeats):
                before = len(self.events.records)
                sim_before = self.device.clock.simulated
                qoi_sur = self.run_surrogate()
                recs = self.events.records[self._window_start(before):]
                sim = self.device.clock.simulated - sim_before
                dep_times.append(sum(r.total for r in recs) + sim)
                shadow_times.append(sum(r.times.get(Phase.SHADOW, 0.0)
                                        for r in recs))
                for r in recs:
                    path_counts[r.path] = path_counts.get(r.path, 0) + 1
        finally:
            self.server.restore_qos(prev_qos)
        accurate_time = float(np.mean(acc_times))
        deployed_time = float(np.mean(dep_times))
        error = float(self.error_fn(qoi_sur, self.reference_qoi(qoi_acc)))
        snapshot = controller.snapshot()
        shadows = snapshot["telemetry"].get(region.name, {}) \
            .get("shadow_invocations", 0)
        return QoSDeploymentMetrics(
            benchmark=self.name,
            speedup=accurate_time / max(deployed_time, 1e-12),
            qoi_error=error,
            accurate_time=accurate_time,
            deployed_time=deployed_time,
            validation_overhead=(float(np.mean(shadow_times)) /
                                 max(deployed_time, 1e-12)),
            shadow_invocations=shadows,
            path_counts=path_counts,
            qos=snapshot)

    # -- model construction with baked-in normalization --------------------
    def _input_stats(self, x: np.ndarray):
        mean = x.mean(axis=0)
        std = x.std(axis=0)
        std = np.where(std < 1e-8, 1.0, std)
        return mean, std

    def _output_stats(self, y: np.ndarray):
        mean = y.mean(axis=0)
        std = y.std(axis=0)
        std = np.where(std < 1e-8, 1.0, std)
        return mean, std

    def make_builder(self, x_train: np.ndarray, y_train: np.ndarray):
        """Builder closure wrapping the Table IV family with frozen
        standardization layers fitted on the training split.

        This is the ML-engineer step of the §III workflow: the model
        file is self-contained, so the runtime feeds it raw application
        memory.
        """
        base = builder_for(self.name)
        kwargs = self.builder_kwargs()
        in_stats = self._input_stats(x_train)
        out_stats = self._output_stats(y_train)

        def build(arch: dict, dropout: float = 0.0, seed: int = 0):
            core = base(arch, dropout=dropout, seed=seed, **kwargs)
            layers = []
            if in_stats is not None:
                layers.append(Standardize(*in_stats))
            layers += list(core)
            if out_stats is not None:
                layers.append(Destandardize(*out_stats))
            return Sequential(*layers)

        return build


# ----------------------------------------------------------------------
# Row-batched harnesses: one server-driven deploy loop for every app
# whose test workload is a batch of independent rows.
# ----------------------------------------------------------------------

class RowBatchedHarness(AppHarness):
    """Shared deploy loop for row-batched benchmarks.

    The five per-app ``_run`` loops used to be near-identical copies;
    this base collapses them into one server-driven path.  Subclasses
    declare the workload shape — :meth:`test_inputs` (the test rows),
    :attr:`output_shapes` (per-row inner shape of each output buffer),
    :attr:`qoi_index` (which buffer is the QoI), and optionally
    :meth:`extra_invoke_args` / :meth:`deploy_chunk_for` — and the base
    chunks the rows, allocates output buffers, and submits each chunk
    through ``self.server`` (output views into the result buffers, so
    a batched engine's deferred scatter lands through them at the
    drain).
    """

    #: Per-row inner shape of each output buffer, in region-argument
    #: order; e.g. ``((), ())`` for bonds' value/accrued pair.
    output_shapes: tuple = ((),)
    #: Which output buffer is the QoI.
    qoi_index: int = 0

    def test_inputs(self) -> np.ndarray:
        """The ``(n_test, *row)`` deployment workload rows."""
        raise NotImplementedError

    def extra_invoke_args(self) -> tuple:
        """Trailing region arguments after the row count (e.g. H, W)."""
        return ()

    def deploy_chunk_for(self, use_model: bool, n_test: int) -> int:
        """Invocation chunk size for one deployment run."""
        return self.deploy_chunk or n_test

    def _run(self, use_model: bool) -> np.ndarray:
        rows = self.test_inputs()
        n_test = len(rows)
        outs = [np.empty((n_test, *shape)) for shape in self.output_shapes]
        chunk = self.deploy_chunk_for(use_model, n_test)
        extra = self.extra_invoke_args()
        invoke = self.server.invoke
        pending = []
        for start in range(0, n_test, chunk):
            block = np.ascontiguousarray(rows[start:start + chunk])
            n = len(block)
            views = [out[start:start + n] for out in outs]
            result = invoke(self.name, block, *views, n, *extra,
                            use_model=use_model)
            if result is not None and hasattr(result, "result"):
                pending.append(result)      # threaded backend: a Future
        self.server.flush(self.name)
        # Re-raise any worker-thread invocation failure: returning the
        # uninitialized output buffers as QoI would be silently wrong.
        for future in pending:
            future.result()
        return outs[self.qoi_index].copy()


class MiniBudeHarness(RowBatchedHarness):
    name = "minibude"

    def __init__(self, workdir, seed: int = 0, n_train: int = 2048,
                 n_test: int = 512, **kwargs):
        self.n_train, self.n_test = n_train, n_test
        super().__init__(workdir, seed, **kwargs)

    def _setup(self) -> None:
        self.deck = minibude.kernel.generate_deck(seed=self.seed)
        self.train_poses = minibude.kernel.generate_poses(
            self.n_train, seed=self.seed + 1)
        self.test_poses = minibude.kernel.generate_poses(
            self.n_test, seed=self.seed + 2)
        common = dict(deck=self.deck, db_path=str(self.db_path),
                      model_path=str(self.model_path),
                      event_log=self.events, engine=self.engine)
        self.collect_region = minibude.build_region(mode="predicated", **common)
        self.region = minibude.build_region(
            mode="infer", auto_batch=self.auto_batch,
            max_batch_rows=self.batch_rows, **common)

    def collect(self, chunk: int = 512) -> None:
        for start in range(0, self.n_train, chunk):
            block = np.ascontiguousarray(
                self.train_poses[start:start + chunk])
            out = np.empty(len(block))
            self.collect_region(block, out, len(block), use_model=False)
        self.collect_region.flush()

    def test_inputs(self) -> np.ndarray:
        return self.test_poses

    def builder_kwargs(self) -> dict:
        return {"in_features": 6, "out_features": 1}


class BinomialHarness(RowBatchedHarness):
    name = "binomial"

    def __init__(self, workdir, seed: int = 0, n_train: int = 4096,
                 n_test: int = 1024, n_steps: int = 128, **kwargs):
        self.n_train, self.n_test, self.n_steps = n_train, n_test, n_steps
        super().__init__(workdir, seed, **kwargs)

    def _setup(self) -> None:
        self.train_opts = binomial.kernel.generate_options(
            self.n_train, seed=self.seed + 1)
        self.test_opts = binomial.kernel.generate_options(
            self.n_test, seed=self.seed + 2)
        common = dict(n_steps=self.n_steps, db_path=str(self.db_path),
                      model_path=str(self.model_path),
                      event_log=self.events, engine=self.engine)
        self.collect_region = binomial.build_region(mode="predicated", **common)
        self.region = binomial.build_region(
            mode="infer", auto_batch=self.auto_batch,
            max_batch_rows=self.batch_rows, **common)

    def collect(self, chunk: int = 1024) -> None:
        for start in range(0, self.n_train, chunk):
            block = np.ascontiguousarray(self.train_opts[start:start + chunk])
            out = np.empty(len(block))
            self.collect_region(block, out, len(block), use_model=False)
        self.collect_region.flush()

    def test_inputs(self) -> np.ndarray:
        return self.test_opts

    def builder_kwargs(self) -> dict:
        return {"in_features": 5, "out_features": 1}


class BondsHarness(RowBatchedHarness):
    name = "bonds"
    output_shapes = ((), ())
    qoi_index = 1              # QoI: accrued interest (Table I)

    def __init__(self, workdir, seed: int = 0, n_train: int = 4096,
                 n_test: int = 1024, **kwargs):
        self.n_train, self.n_test = n_train, n_test
        super().__init__(workdir, seed, **kwargs)

    def _setup(self) -> None:
        self.train_bonds = bonds.kernel.generate_bonds(
            self.n_train, seed=self.seed + 1)
        self.test_bonds = bonds.kernel.generate_bonds(
            self.n_test, seed=self.seed + 2)
        common = dict(db_path=str(self.db_path),
                      model_path=str(self.model_path),
                      event_log=self.events, engine=self.engine)
        self.collect_region = bonds.build_region(mode="predicated", **common)
        self.region = bonds.build_region(
            mode="infer", auto_batch=self.auto_batch,
            max_batch_rows=self.batch_rows, **common)

    def collect(self, chunk: int = 1024) -> None:
        for start in range(0, self.n_train, chunk):
            block = np.ascontiguousarray(self.train_bonds[start:start + chunk])
            values = np.empty(len(block))
            accrued = np.empty(len(block))
            self.collect_region(block, values, accrued, len(block),
                                use_model=False)
        self.collect_region.flush()

    def test_inputs(self) -> np.ndarray:
        return self.test_bonds

    def builder_kwargs(self) -> dict:
        return {"in_features": 5, "out_features": 2}


# ----------------------------------------------------------------------
# ParticleFilter: CNN per frame; error judged against ground truth
# ----------------------------------------------------------------------

class ParticleFilterHarness(RowBatchedHarness):
    name = "particlefilter"
    output_shapes = ((2,),)

    def __init__(self, workdir, seed: int = 0, n_train_frames: int = 192,
                 n_test_frames: int = 64, frame_size: int = 32,
                 n_particles: int = 512, **kwargs):
        self.n_train_frames = n_train_frames
        self.n_test_frames = n_test_frames
        self.frame_size = frame_size
        self.n_particles = n_particles
        super().__init__(workdir, seed, **kwargs)

    def _setup(self) -> None:
        self.train_video = particlefilter.generate_workload(
            self.n_train_frames, self.frame_size, self.frame_size,
            seed=self.seed + 1)
        self.test_video = particlefilter.generate_workload(
            self.n_test_frames, self.frame_size, self.frame_size,
            seed=self.seed + 2)
        self.region = particlefilter.build_region(
            mode="infer", n_particles=self.n_particles,
            db_path=str(self.db_path), model_path=str(self.model_path),
            event_log=self.events, engine=self.engine,
            auto_batch=self.auto_batch, max_batch_rows=self.batch_rows)

    def collect(self, chunk: int = 64) -> None:
        frames = self.train_video.frames
        truth = self.train_video.truth
        h = w = self.frame_size
        for start in range(0, len(frames), chunk):
            block = np.ascontiguousarray(frames[start:start + chunk])
            locs = np.empty((len(block), 2))
            # Collection captures ground truth (paper Observation 1).
            region = particlefilter.build_region(
                mode="predicated", n_particles=self.n_particles,
                db_path=str(self.db_path), model_path=str(self.model_path),
                event_log=self.events, engine=self.engine,
                collect_truth=truth[start:start + chunk])
            region(block, locs, len(block), h, w, use_model=False)
            region.flush()

    def test_inputs(self) -> np.ndarray:
        return self.test_video.frames

    def extra_invoke_args(self) -> tuple:
        return (self.frame_size, self.frame_size)

    def deploy_chunk_for(self, use_model: bool, n_test: int) -> int:
        # The filter carries state across frames, so the accurate path
        # always runs as one invocation (chunking would re-seed it);
        # only the per-frame CNN deploy loop honors deploy_chunk.
        return (self.deploy_chunk or n_test) if use_model else n_test

    def reference_qoi(self, qoi_accurate: np.ndarray) -> np.ndarray:
        """PF error is judged against ground truth, not the filter."""
        return self.test_video.truth

    def _input_stats(self, x: np.ndarray):
        return None            # frames already live in [0, 1]

    def accurate_vs_truth_rmse(self) -> float:
        """The algorithmic approximation's own RMSE (Fig. 7 black line)."""
        est = self.run_accurate()
        return float(np.sqrt(np.mean((est - self.test_video.truth) ** 2)))

    def builder_kwargs(self) -> dict:
        return {"height": self.frame_size, "width": self.frame_size}


# ----------------------------------------------------------------------
# MiniWeather: auto-regressive stepping with interleaving support
# ----------------------------------------------------------------------

class MiniWeatherHarness(AppHarness):
    name = "miniweather"
    supports_auto_batch = False        # auto-regressive stepping

    def __init__(self, workdir, seed: int = 0, nx: int = 32, nz: int = 16,
                 train_steps: int = 160, test_steps: int = 40,
                 amplitude: float = 10.0, **kwargs):
        self.nx, self.nz = nx, nz
        self.train_steps = train_steps
        self.test_steps = test_steps
        self.amplitude = amplitude
        super().__init__(workdir, seed, **kwargs)

    def _setup(self) -> None:
        wl = miniweather.generate_workload(nx=self.nx, nz=self.nz,
                                           amplitude=self.amplitude)
        self.workload = wl
        self.dt = wl.dt
        common = dict(state=wl.state, dt=wl.dt, db_path=str(self.db_path),
                      model_path=str(self.model_path),
                      event_log=self.events, engine=self.engine)
        self.timestep_collect = miniweather.build_region(mode="predicated",
                                                         **common)
        self.timestep = miniweather.build_region(mode="infer", **common)
        self._initial_q = wl.state.q.copy()

    @property
    def deploy_region(self):
        return self.timestep.region

    def _step(self, u: np.ndarray, use_model: bool) -> None:
        """One deploy-path timestep, through the server.

        Auto-regressive: step t+1 consumes step t's in-place update of
        ``u``, so a threaded backend's Future is resolved immediately —
        the march is inherently sequential, but it still flows through
        the serving surface (counters, QoS wiring, fleet snapshot).
        """
        result = self.server.invoke(self.name, u, self.nz, self.nx,
                                    use_model=use_model)
        if result is not None and hasattr(result, "result"):
            result.result()

    def _fresh_u(self) -> np.ndarray:
        return np.ascontiguousarray(self._initial_q[None].copy())

    def collect(self) -> None:
        """March the accurate solver ``train_steps`` steps, capturing
        every (state_t, state_t+1) pair."""
        u = self._fresh_u()
        for _ in range(self.train_steps):
            self.timestep_collect(u, use_model=False)
        self.timestep_collect.region.flush()

    def _march(self, n_steps: int, schedule) -> np.ndarray:
        """Run ``n_steps`` from the post-training state; ``schedule(i)``
        says whether step ``i`` uses the surrogate.

        Sets :attr:`window_record_start` to the event-log index where
        the test window begins, so timing analyses (Fig. 9d) can
        exclude the warm-up march shared by every configuration.
        """
        u = self._fresh_u()
        for _ in range(self.train_steps):     # reach the test window
            self._step(u, use_model=False)
        self.window_record_start = len(self.events.records)
        for i in range(n_steps):
            self._step(u, use_model=bool(schedule(i)))
        return u[0].copy()

    def window_seconds(self) -> float:
        """Total time of the records since the last test window began."""
        recs = self.events.records[self.window_record_start:]
        return sum(r.total for r in recs)

    def run_accurate(self) -> np.ndarray:
        return self._march(self.test_steps, lambda i: False)

    def run_surrogate(self) -> np.ndarray:
        return self._march(self.test_steps, lambda i: True)

    def run_interleaved(self, n_accurate: int, n_surrogate: int) -> np.ndarray:
        """Fig. 9 Original:Surrogate cycles, e.g. 1:1, 2:1, 3:3."""
        cycle = n_accurate + n_surrogate
        if cycle == 0:
            raise ValueError("empty interleave cycle")
        return self._march(self.test_steps,
                           lambda i: (i % cycle) >= n_accurate)

    def trajectory_errors(self, schedule, n_steps: int | None = None):
        """Per-timestep RMSE vs the accurate trajectory (Fig. 9e)."""
        n_steps = n_steps or self.test_steps
        u_acc = self._fresh_u()
        u_sur = self._fresh_u()
        for _ in range(self.train_steps):
            self._step(u_acc, use_model=False)
        u_sur[...] = u_acc
        errors = []
        for i in range(n_steps):
            self._step(u_acc, use_model=False)
            self._step(u_sur, use_model=bool(schedule(i)))
            errors.append(float(np.sqrt(np.mean((u_sur - u_acc) ** 2))))
        return np.array(errors)

    def builder_kwargs(self) -> dict:
        return {"nz": self.nz, "nx": self.nx}

    def _input_stats(self, x: np.ndarray):
        # Per-channel statistics over (sample, z, x): the four state
        # fields live on wildly different scales (rho' ~1, momenta ~50).
        mean = x.mean(axis=(0, 2, 3), keepdims=True)[0]
        std = x.std(axis=(0, 2, 3), keepdims=True)[0]
        std = np.where(std < 1e-8, 1.0, std)
        return mean, std

    def _output_stats(self, y: np.ndarray):
        return self._input_stats(y)


def harness_for(benchmark: str, workdir, seed: int = 0, **kwargs) -> AppHarness:
    classes = {h.name: h for h in
               (MiniBudeHarness, BinomialHarness, BondsHarness,
                ParticleFilterHarness, MiniWeatherHarness)}
    if benchmark not in classes:
        raise KeyError(f"no harness for benchmark {benchmark!r}")
    return classes[benchmark](workdir, seed=seed, **kwargs)
