"""The seven named workloads.

Every workload is a closed loop with one client: the next call is made
only after the previous one returned (a returned Future is waited on).
Work per repetition is a fixed operation count; all inputs derive from
``seed`` and the program sees only the generated arrays.  A workload
exposes:

``setup()``        everything before the first call (timed as ``setup_s``)
``reset()``        put the program in the same state before each repetition
``run_base(m)``    the base of ``speedup_vs_accurate``: the first
                   ``base_calls`` calls' rows on the accurate (or serial
                   in-process) path, metered by ``m``
``run(m)``         one repetition, its client calls and stages metered by
                   ``m`` (a :class:`bench.meter.Meter`)
``check()``        output check after a repetition
``qoi()``          deployed QoI error against the accurate reference
``counts()``       counters read from public attributes since ``reset()``
``close()``        stop workers, close files
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np

from repro import apps, nn, runtime, serving
from repro.apps import binomial
from repro.apps.harness import harness_for
from repro.directives import SemanticAnalyzer, parse_program
from repro.nn.functional import conv_output_size
from repro.obs import read_stream
from repro.qos import PrecisionPolicy
from repro.qos.monitor import ShadowValidator
from repro.search.builders import builder_for
from repro.runtime import EventLog

__all__ = ["WORKLOADS", "Workload"]

#: Table IV instances (the size-graded families the figures use).
MLP2_S = {"hidden1_features": 48, "hidden2_features": 24}
MLP2_M = {"hidden1_features": 160, "hidden2_features": 96}
MINIBUDE_L = {"num_hidden_layers": 4, "hidden1_size": 512,
              "feature_multiplier": 0.8}
WEATHER_S = {"conv1_kernel": 3, "conv1_channels": 4, "conv2_kernel": 0}

_relative_l2 = ShadowValidator(metric="relative").error


def graph_forward(model, x) -> np.ndarray:
    """The model's autodiff-graph forward: the reference the compiled
    float64 plans must equal bitwise."""
    model.eval()
    with nn.no_grad():
        return model(nn.Tensor(np.asarray(x))).numpy()


def model_cost(model, in_shape) -> tuple:
    """(flops per row, weight bytes), computed from the layer shapes."""
    flops = 0
    shape = tuple(in_shape)
    for layer in model:
        if isinstance(layer, nn.Linear):
            flops += 2 * layer.in_features * layer.out_features
            shape = (layer.out_features,)
        elif isinstance(layer, nn.Conv2d):
            k, s, p = layer.kernel_size, layer.stride, layer.padding
            h = conv_output_size(shape[1], k, s, p)
            w = conv_output_size(shape[2], k, s, p)
            flops += 2 * layer.in_channels * k * k * layer.out_channels * h * w
            shape = (layer.out_channels, h, w)
        elif isinstance(layer, nn.CropPad2d):
            shape = (shape[0], layer.height, layer.width)
    weight_bytes = sum(p.data.nbytes for p in model.parameters())
    return flops, weight_bytes


def fit(harness, arch, *, epochs, seed, lr=3e-3, batch_size=128,
        standardize=True):
    """Train one Table IV instance on the harness's collected data for
    a fixed number of epochs (no early stop: the work is a count).
    ``standardize=False`` leaves out the baked-in normalisation heads."""
    (xt, yt), (xv, yv) = harness.training_arrays()
    build = harness.make_builder(xt, yt) if standardize else \
        (lambda arch, seed: builder_for(harness.name)(
            arch, seed=seed, **harness.builder_kwargs()))
    model = build(arch, seed=seed)
    trainer = nn.Trainer(model, lr=lr, batch_size=batch_size,
                         max_epochs=epochs, patience=epochs, seed=seed)
    result = trainer.fit(xt, yt, xv, yv)
    return model, trainer, result


def parse_ms(*app_names) -> float:
    """Milliseconds to parse and analyse the apps' directive text — the
    compiler-frontend share of region construction."""
    start = time.perf_counter()
    for app in app_names:
        text = getattr(apps, app).DIRECTIVES.format(mode="infer", db="d",
                                                    model="m")
        SemanticAnalyzer().analyze(parse_program(text)).raise_if_errors()
    return (time.perf_counter() - start) * 1e3


def wait(result) -> None:
    """Closed loop: a threaded backend's Future is waited on."""
    if result is not None:
        result.result()


class Workload:
    """Sizing, the reset rule and the counters every workload shares."""

    name = ""
    #: What ``speedup_vs_accurate`` divides: the accurate kernel, or the
    #: in-process single-model serial path where no accurate counterpart
    #: of the mechanism exists.
    base = "accurate"
    qoi_metric = "rmse"
    #: Client calls per repetition, rows per call, base-slice calls.
    calls = 0
    chunk = 0
    base_calls = 0
    #: Trace-buffer sizing: wrapped callables one client call crosses.
    spans_per_call = 48

    def __init__(self, seed: int, workdir, quick: bool = False):
        self.seed = seed
        self.workdir = Path(workdir)
        self.quick = quick
        if quick:
            self.base_calls = max(1, self.base_calls // 8)
            self.calls = max(self.base_calls, self.calls // 20)
        self.setup_ms: dict = {}

    # -- sizing ----------------------------------------------------------
    def sized(self, n: int, floor: int = 1) -> int:
        """A setup size: divided by 20 in quick mode, like the counts."""
        return max(floor, n // 20) if self.quick else n

    @property
    def rows(self) -> int:
        """Application rows served per repetition."""
        return self.calls * self.chunk

    @property
    def plan_rows(self) -> int:
        """Rows that cross a compiled plan per repetition."""
        return self.rows

    # -- hooks -----------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def regions(self) -> list:
        """Regions whose accurate function the tracer wraps."""
        return []

    def reset(self) -> None:
        for log in self.logs:
            log.reset()
        for device in self.devices:
            device.reset_counters()

    def run(self, m) -> None:
        raise NotImplementedError

    def run_base(self, m) -> None:
        raise NotImplementedError

    @property
    def base_scale(self) -> float:
        """Repetition calls per base-slice call: the base wall times
        this is the base's wall for one repetition's rows."""
        return self.calls / self.base_calls

    def check(self) -> bool:
        raise NotImplementedError

    def qoi(self) -> float:
        raise NotImplementedError

    def counts(self) -> dict:
        return {}

    def close(self) -> None:
        pass

    # -- helpers ---------------------------------------------------------
    logs: tuple = ()
    devices: tuple = ()

    def timed_ms(self, key: str, fn, *args, **kwargs):
        """Run a setup step, adding its wall to ``setup_ms[key]``."""
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.setup_ms[key] = self.setup_ms.get(key, 0.0) \
            + (time.perf_counter() - start) * 1e3
        return out

    def install(self, harness, model) -> None:
        """``save_model`` + ``engine.warmup`` (load + plan compile)."""
        self.timed_ms("nn.compile_ms", harness.install_model, model)

    def device_counts(self) -> dict:
        return {
            "runtime.engine.forwards":
                sum(d.kernel_launches for d in self.devices),
            "device.bytes_h2d": sum(d.bytes_to_device for d in self.devices),
            "device.bytes_d2h": sum(d.bytes_to_host for d in self.devices),
            "device.transfer_sim_s":
                sum(d.clock.simulated for d in self.devices),
            "runtime.events.dropped": sum(log.dropped for log in self.logs),
        }


def row_call(server, name, rows, outs, chunk, use_model=True):
    """Client call ``i``: one synchronous invocation of ``chunk`` rows
    on fresh slice views of the row and output buffers."""
    invoke = server.invoke

    def call(i):
        lo, hi = i * chunk, (i + 1) * chunk
        wait(invoke(name, rows[lo:hi], *[o[lo:hi] for o in outs], chunk,
                    use_model=use_model))
    return call


class _RowBatched(Workload):
    """One Table I row-batched app served through ``RegionServer``."""

    app = ""
    arch: dict = {}
    n_train = 2048
    epochs = 20
    collect_chunk = 256

    def setup(self) -> None:
        self.setup_ms["directives.parse_ms"] = parse_ms(self.app)
        h = self.harness = harness_for(
            self.app, self.workdir, seed=self.seed,
            n_train=self.sized(self.n_train, 256),
            n_test=self.calls * self.chunk)
        h.collect(chunk=self.collect_chunk)
        self.model, _, _ = fit(
            h, self.arch, epochs=self.sized(self.epochs, 2), seed=self.seed)
        self.install(h, self.model)
        self.server = h.server
        self.logs = (h.events,)
        self.devices = (h.device,)
        self.x = h.test_inputs()
        self.out = np.zeros(len(self.x))
        self.ref = np.zeros(self.base_calls * self.chunk)
        self.flops_per_row, self.weight_bytes = model_cost(
            self.model, self.x.shape[1:])

    def regions(self) -> list:
        return [self.harness.region]

    def run(self, m) -> None:
        m.calls(row_call(self.server, self.app, self.x, [self.out],
                         self.chunk), self.calls)
        m.step(lambda: self.server.flush(self.app))

    def run_base(self, m) -> None:
        m.calls(row_call(self.server, self.app, self.x, [self.ref],
                         self.chunk, use_model=False), self.base_calls)

    def check_chunks(self) -> list:
        """Call indices whose served rows are compared to the graph."""
        return list(range(0, self.calls, max(1, self.calls // 32)))

    def check(self) -> bool:
        if not np.all(np.isfinite(self.out)):
            return False
        for i in self.check_chunks():
            lo, hi = i * self.chunk, (i + 1) * self.chunk
            want = graph_forward(self.model, self.x[lo:hi]).reshape(-1)
            if not np.array_equal(self.out[lo:hi], want):
                return False
        return True

    def qoi(self) -> float:
        return float(self.harness.error_fn(self.out[:len(self.ref)],
                                           self.ref))

    def counts(self) -> dict:
        moved = self.rows * (self.x[0].nbytes + self.out[0].nbytes)
        return dict(
            self.device_counts(),
            **{"nn.plan.flops_per_row": self.flops_per_row,
               "nn.plan.weight_bytes": self.weight_bytes,
               "bridge.bytes_moved": moved})

    def close(self) -> None:
        self.server.close()


class DeployChunk16(_RowBatched):
    """Binomial MLP 48-24 served 16 rows per call on fresh views: per-
    invocation runtime/bridge/serving cost dominates, the forward is a
    small share."""

    name = "deploy_chunk16"
    app, arch = "binomial", MLP2_S
    calls, chunk, base_calls = 4096, 16, 64


class DeployGemm(_RowBatched):
    """Minibude 4x512 MLP (435k parameters) served 2048 rows per call: the
    compiled plan's GEMMs are nearly all of the wall, per-invocation
    overhead must not move it."""

    name = "deploy_gemm"
    app, arch = "minibude", MINIBUDE_L
    qoi_metric = "mape"
    calls, chunk, base_calls = 16, 2048, 1
    n_train, epochs, collect_chunk = 1024, 3, 512

    def __init__(self, seed, workdir, quick=False):
        super().__init__(seed, workdir, quick)
        if quick:
            self.calls, self.chunk = 2, 256
        self._turn = 0

    def check_chunks(self) -> list:
        # One 2048-row graph forward costs about one served call, so
        # each repetition checks one call and the checks rotate.
        self._turn += 1
        return [self._turn % self.calls]


class StencilMarch(Workload):
    """Miniweather conv surrogate marched auto-regressively, batch 1 on the
    same 4-D inout buffer every call: the concretize cache hits and the
    conv plan step is the cost."""

    name = "stencil_march"
    calls, chunk, base_calls = 1200, 1, 320
    steps = 40

    def __init__(self, seed, workdir, quick=False):
        super().__init__(seed, workdir, quick)
        if quick:
            self.calls, self.base_calls = 80, 40

    def setup(self) -> None:
        # The thermal bubble is deterministic; the seed perturbs its
        # amplitude so the marched states differ run to run.
        amplitude = 10.0 * (1.0 + 0.05 * float(
            np.random.default_rng(self.seed).uniform(-1.0, 1.0)))
        self.setup_ms["directives.parse_ms"] = parse_ms("miniweather")
        h = self.harness = harness_for(
            "miniweather", self.workdir, seed=self.seed, nx=32, nz=16,
            train_steps=self.sized(160, 40), test_steps=self.steps,
            amplitude=amplitude)
        h.collect()
        self.model, _, _ = fit(
            h, WEATHER_S, epochs=self.sized(12, 2), seed=self.seed,
            lr=2e-3, batch_size=16)
        self.install(h, self.model)
        self.server = h.server
        self.logs = (h.events,)
        self.devices = (h.device,)
        # Fig. 9 protocol: every march restarts from the state at the
        # end of the training window, so the surrogate stays in the
        # regime it was trained on.
        self.u = np.ascontiguousarray(h.workload.state.q[None].copy())
        for _ in range(h.train_steps):
            self.step(False)
        self.u0 = self.u.copy()
        self.first = self.u.copy()
        self.final = self.u.copy()
        self.ref = self.u.copy()
        self.flops_per_row, self.weight_bytes = model_cost(
            self.model, self.u.shape[1:])

    def regions(self) -> list:
        return [self.harness.deploy_region]

    def step(self, use_model: bool) -> None:
        h = self.harness
        wait(self.server.invoke("miniweather", self.u, h.nz, h.nx,
                                use_model=use_model))

    def marcher(self, use_model: bool):
        def call(i):
            turn = i % self.steps
            if turn == 0:
                self.u[...] = self.u0
            elif turn == 1:
                self.first[...] = self.u      # state after one step
            self.step(use_model)
        return call

    def run(self, m) -> None:
        m.calls(self.marcher(True), self.calls)
        self.final[...] = self.u

    def run_base(self, m) -> None:
        m.calls(self.marcher(False), self.base_calls)
        self.ref[...] = self.u

    def check(self) -> bool:
        return bool(np.all(np.isfinite(self.final))
                    and np.array_equal(self.first,
                                       graph_forward(self.model, self.u0)))

    def qoi(self) -> float:
        return float(self.harness.error_fn(self.final, self.ref))

    def counts(self) -> dict:
        return dict(
            self.device_counts(),
            **{"nn.plan.flops_per_row": self.flops_per_row,
               "nn.plan.weight_bytes": self.weight_bytes,
               "bridge.bytes_moved": self.calls * 2 * self.u.nbytes})

    def close(self) -> None:
        self.server.close()


class ServeGoverned(Workload):
    """Three apps on one server with everything optional on: auto-batching,
    shadow validation, a breaker guard, fp32 governance, one arbiter and
    a decision stream."""

    name = "serve_governed"
    qoi_metric = "relative_l2"
    calls, chunk, base_calls = 1536, 32, 48
    apps = ("binomial", "bonds", "minibude")
    archs = {"binomial": MLP2_S, "bonds": MLP2_S,
             "minibude": {"num_hidden_layers": 3, "hidden1_size": 128,
                          "feature_multiplier": 0.8}}

    def __init__(self, seed, workdir, quick=False):
        super().__init__(seed, workdir, quick)
        self.calls -= self.calls % 3
        self.signature = None

    def setup(self) -> None:
        self.setup_ms["directives.parse_ms"] = parse_ms(*self.apps)
        self.server = serving.RegionServer()
        per_app = self.calls // 3 * self.chunk
        self.h, self.models, self.x, self.outs, self.refs = {}, {}, {}, {}, {}
        for app in self.apps:
            extra = dict(auto_batch=True, batch_rows=256) \
                if app == "binomial" else {}
            h = self.h[app] = harness_for(
                app, self.workdir / app, seed=self.seed, server=self.server,
                n_train=self.sized(2048, 256), n_test=per_app, **extra)
            h.collect()
            self.models[app], _, _ = fit(
                h, self.archs[app], epochs=self.sized(20, 2), seed=self.seed)
            self.install(h, self.models[app])
            self.x[app] = h.test_inputs()
            self.outs[app] = [np.zeros((per_app, *shape))
                              for shape in h.output_shapes]
            self.refs[app] = [np.zeros((self.base_calls // 3 * self.chunk,
                                        *shape))
                              for shape in h.output_shapes]
        mb = self.h["minibude"]
        mb.region.config.precision = "auto"
        mb.engine.warmup(mb.model_path, dtype=np.float32)
        self.logs = tuple(h.events for h in self.h.values())
        self.devices = tuple(h.device for h in self.h.values())
        self.stream_path = self.workdir / "decisions.rh5"
        self.reset()

    def regions(self) -> list:
        return [h.region for h in self.h.values()]

    def reset(self) -> None:
        super().reset()
        server = self.server
        server.detach_stream()
        self.stream_path.unlink(missing_ok=True)
        self.precision = PrecisionPolicy(sample_rate=0.1, seed=7)
        # A loose global budget admits every trained surrogate, so the
        # path mix is the warm-up probes plus the seeded 10 % shadow
        # sample — the same operation count at every input seed.
        self.arbiter = serving.QoSArbiter(
            global_budget=2.0, shadow_rate=0.1, shadow_rows=8, seed=7,
            precision_policy=self.precision)
        server.attach_qos(self.arbiter)
        self.h["bonds"].region.config.breaker = None
        self.breaker = server.attach_breakers(names=["bonds"])["bonds"]
        server.attach_stream(self.stream_path)
        self.flush0 = self.h["binomial"].region.engine.batches_flushed

    def round_robin(self, m, calls, outs, use_model) -> None:
        invoke, chunk = self.server.invoke, self.chunk

        def call(i):
            app = self.apps[i % 3]
            lo = (i // 3) * chunk
            hi = lo + chunk
            wait(invoke(app, self.x[app][lo:hi],
                        *[o[lo:hi] for o in outs[app]], chunk,
                        use_model=use_model))
        m.calls(call, calls)
        m.step(self.server.drain)

    def run(self, m) -> None:
        self.round_robin(m, self.calls, self.outs, True)

    def run_base(self, m) -> None:
        self.round_robin(m, self.base_calls, self.refs, False)

    def check(self) -> bool:
        for outs in self.outs.values():
            if not all(np.all(np.isfinite(o)) for o in outs):
                return False
        # The path mix of the repetition, from the controller's
        # telemetry and the decision stream it wrote.
        records = read_stream(self.stream_path)
        rollup = self.arbiter.telemetry.rollup()
        mb = records.get("minibude", [])
        self.mix = {
            "qos.shadow_frac": rollup["shadow_invocations"] / self.calls,
            "qos.infer_frac": rollup["infer_fraction"],
            "qos.f32_frac":
                sum(r["precision"] == "float32" for r in mb) / self.calls,
            "resilience.fallbacks": self.breaker.snapshot()["fallbacks"],
            "obs.stream_records": sum(len(r) for r in records.values()),
        }
        if self.mix["obs.stream_records"] != self.calls:
            return False
        # fp32-served rows stay within 1e-5 relative of the fp64 plan.
        # Warm-up probes commit the accurate kernel's rows instead of
        # the surrogate's; the stream says which calls those were (the
        # minibude engine is immediate, so records are in call order).
        served = self.outs["minibude"][0].reshape(-1, self.chunk)
        wide = self.models["minibude"].forward_compiled(
            self.x["minibude"]).reshape(-1, self.chunk)
        narrow = [i for i, r in enumerate(mb)
                  if r["precision"] == "float32"
                  and r["reason"] not in ("warmup", "probe")]
        if not narrow or _relative_l2(served[narrow], wide[narrow]) > 1e-5:
            return False
        # The governed path mix is part of the fixed operation count:
        # it must not differ between repetitions.
        if self.signature is None:
            self.signature = self.mix
        return self.mix == self.signature

    def qoi(self) -> float:
        n = len(self.refs["binomial"][0])
        served = np.concatenate([o[:n].reshape(n, -1)
                                 for app in self.apps
                                 for o in self.outs[app]], axis=1)
        ref = np.concatenate([o.reshape(n, -1) for app in self.apps
                              for o in self.refs[app]], axis=1)
        # Per-column relative L2, so no app's units dominate.
        return float(np.mean([_relative_l2(served[:, j], ref[:, j])
                              for j in range(ref.shape[1])]))

    def counts(self) -> dict:
        flushes = self.h["binomial"].region.engine.batches_flushed \
            - self.flush0
        size = self.stream_path.stat().st_size
        moved = sum(self.calls // 3 * self.chunk
                    * (self.x[app][0].nbytes
                       + sum(o[0].nbytes for o in self.outs[app]))
                    for app in self.apps)
        return dict(
            self.device_counts(), **self.mix,
            **{"runtime.engine.flushes": flushes,
               "bridge.bytes_moved": moved,
               "qos.budget_spend":
                   self.arbiter.arbitration.global_mean_charge,
               "obs.stream_bytes": size,
               "h5.bytes_written": size})

    def close(self) -> None:
        self.server.close()
        self.server.detach_stream()


class CollectRetrain(Workload):
    """The write side: collect binomial rows into the .rh5 database, load
    them, train the 160-96 MLP with the compiled trainer, hot-swap it
    into a live server, serve on it."""

    name = "collect_retrain"
    calls, chunk, base_calls = 32, 64, 4
    served_calls = 16
    epochs = 20
    spans_per_call = 512

    def __init__(self, seed, workdir, quick=False):
        super().__init__(seed, workdir, quick)
        if quick:
            self.calls, self.served_calls = 8, 4
        self.epochs = self.sized(self.epochs, 2)

    @property
    def rows(self) -> int:
        return (self.calls + self.served_calls) * self.chunk

    @property
    def plan_rows(self) -> int:
        # The served rows plus one validation forward per epoch.
        n_val = int(self.calls * self.chunk * 0.2)
        return self.served_calls * self.chunk + self.epochs * n_val

    def setup(self) -> None:
        self.setup_ms["directives.parse_ms"] = parse_ms("binomial")
        h = self.harness = harness_for(
            "binomial", self.workdir, seed=self.seed, n_train=256,
            n_test=self.served_calls * self.chunk)
        # The live server starts on a briefly trained model; the
        # repetition replaces it.
        h.collect()
        first, _, _ = fit(h, MLP2_M, epochs=2, seed=self.seed)
        self.install(h, first)
        self.server = h.server
        self.server.register(h.collect_region, name="binomial.collect")
        self.logs = (h.events,)
        self.devices = (h.device,)
        self.x_train = binomial.kernel.generate_options(
            self.calls * self.chunk, seed=self.seed + 3)
        self.y_train = np.zeros(len(self.x_train))
        self.x = h.test_inputs()
        self.out = np.zeros(len(self.x))
        self.ref = np.zeros(self.base_calls * self.chunk)
        self.model = None

    def regions(self) -> list:
        return [self.harness.region, self.harness.collect_region]

    def reset(self) -> None:
        super().reset()
        h = self.harness
        h.collect_region.close()
        Path(h.db_path).unlink(missing_ok=True)

    def run(self, m) -> None:
        h, server = self.harness, self.server
        m.calls(row_call(server, "binomial.collect", self.x_train,
                         [self.y_train], self.chunk, use_model=False),
                self.calls)
        m.step(lambda: server.flush("binomial.collect"))

        def train():
            self.model, self.trainer, self.fit_result = fit(
                h, MLP2_M, epochs=self.epochs, seed=self.seed)
        m.step(train)
        m.step(lambda: serving.hot_swap_model(self.model, h.model_path,
                                              [h.engine]))
        m.calls(row_call(server, "binomial", self.x, [self.out],
                         self.chunk), self.served_calls, record=False)
        m.step(lambda: server.flush("binomial"))

    def run_base(self, m) -> None:
        m.calls(row_call(self.server, "binomial", self.x, [self.ref],
                         self.chunk, use_model=False), self.base_calls)

    @property
    def base_scale(self) -> float:
        return (self.calls + self.served_calls) / self.base_calls

    def check(self) -> bool:
        h = self.harness
        x, y, _ = runtime.load_training_data(h.db_path, "binomial")
        if not (np.array_equal(x, self.x_train)
                and np.array_equal(y.reshape(-1), self.y_train)):
            return False
        want = graph_forward(self.model, self.x).reshape(-1)
        return bool(np.all(np.isfinite(self.out))
                    and np.array_equal(self.out, want))

    def qoi(self) -> float:
        return float(self.harness.error_fn(self.out[:len(self.ref)],
                                           self.ref))

    def counts(self) -> dict:
        n_fit = len(self.x_train) - int(len(self.x_train) * 0.2)
        steps = self.fit_result.epochs_run * math.ceil(n_fit / 128)
        flops, weight_bytes = model_cost(self.model, self.x.shape[1:])
        size = Path(self.harness.db_path).stat().st_size
        return dict(
            self.device_counts(),
            **{"nn.plan.flops_per_row": flops,
               "nn.plan.weight_bytes": weight_bytes,
               "bridge.bytes_moved":
                   self.rows * (self.x[0].nbytes + self.out[0].nbytes),
               "h5.bytes_written": size,
               "nn.train.epochs": self.fit_result.epochs_run,
               "nn.train.steps": steps,
               "nn.train.compiled_frac":
                   1.0 if self.trainer.compiled_active else 0.0})

    def close(self) -> None:
        self.server.close()


class FleetWave(Workload):
    """Eight same-architecture binomial regions answered by one stacked
    (K,B,in)@(K,in,out) forward per wave of 8 x 4 rows: the fleet engine
    and the prepare/complete split."""

    name = "fleet_wave"
    base = "serial_inproc"
    qoi_metric = "relative_l2"
    calls, chunk, base_calls = 800, 4, 40
    members = 8
    spans_per_call = 256

    @property
    def rows(self) -> int:
        return self.calls * self.chunk * self.members

    def setup(self) -> None:
        self.setup_ms["directives.parse_ms"] = parse_ms("binomial")
        h = self.harness = harness_for(
            "binomial", self.workdir, seed=self.seed,
            n_train=self.sized(2048, 256), n_test=self.calls * self.chunk)
        h.collect()
        self.server = serving.RegionServer()
        self.log = EventLog()
        self.names, self.models, self.fleet_regions = [], [], []
        for k in range(self.members):
            # FleetPlan cannot be built over models with a Standardize
            # head (its reciprocal is computed before the slab views
            # are bound), so the members are the bare Table IV MLPs.
            model, _, _ = fit(h, MLP2_S, epochs=self.sized(5, 2),
                              seed=self.seed + k, standardize=False)
            path = self.workdir / f"member{k}.rnm"
            nn.save_model(model, path)
            region = binomial.build_region(
                mode="infer", n_steps=h.n_steps, db_path=str(h.db_path),
                model_path=str(path), event_log=self.log, engine=h.engine)
            self.timed_ms("nn.compile_ms", h.engine.warmup, path)
            self.names.append(self.server.register(region, name=f"b{k}"))
            self.models.append(model)
            self.fleet_regions.append(region)
        formed = self.timed_ms("nn.compile_ms", self.server.enable_fleets)
        if sorted(n for group in formed.values() for n in group) \
                != sorted(self.names):
            raise RuntimeError(f"fleet did not form over all members: "
                               f"{formed}")
        self.logs = (self.log,)
        self.devices = (h.device, self.server.fleet.device)
        self.x = h.test_inputs()
        self.outs = [np.zeros(len(self.x)) for _ in self.names]
        self.plans = [nn.compile_inference(m) for m in self.models]
        n_ref = self.base_calls * self.chunk
        self.ref = binomial.kernel.price_american(self.x[:n_ref],
                                                  n_steps=h.n_steps)
        self.flops_per_row, self.weight_bytes = model_cost(
            self.models[0], self.x.shape[1:])

    def regions(self) -> list:
        return self.fleet_regions

    def run(self, m) -> None:
        invoke_fleet, chunk = self.server.invoke_fleet, self.chunk
        kwargs = {"use_model": True}

        def wave(i):
            lo, hi = i * chunk, (i + 1) * chunk
            invoke_fleet([(name, (self.x[lo:hi], out[lo:hi], chunk), kwargs)
                          for name, out in zip(self.names, self.outs)])
        m.calls(wave, self.calls)

    def run_base(self, m) -> None:
        # No accurate counterpart of a fleet wave: the base is the same
        # rows served region by region on the single-model path.
        invoke, chunk = self.server.invoke, self.chunk
        scratch = [np.zeros(self.base_calls * chunk) for _ in self.names]

        def wave(i):
            lo, hi = i * chunk, (i + 1) * chunk
            for name, out in zip(self.names, scratch):
                invoke(name, self.x[lo:hi], out[lo:hi], chunk,
                       use_model=True)
        m.calls(wave, self.base_calls)

    def check(self) -> bool:
        if not all(np.all(np.isfinite(o)) for o in self.outs):
            return False
        for i in range(0, self.calls, max(1, self.calls // 16)):
            lo, hi = i * self.chunk, (i + 1) * self.chunk
            for plan, out in zip(self.plans, self.outs):
                if not np.array_equal(out[lo:hi],
                                      plan(self.x[lo:hi]).reshape(-1)):
                    return False
        return True

    def qoi(self) -> float:
        n = len(self.ref)
        return float(np.mean([_relative_l2(out[:n], self.ref)
                              for out in self.outs]))

    def counts(self) -> dict:
        return dict(
            self.device_counts(),
            **{"nn.plan.flops_per_row": self.flops_per_row,
               "nn.plan.weight_bytes": self.weight_bytes * self.members,
               "bridge.bytes_moved":
                   self.rows * (self.x[0].nbytes + self.outs[0][0].nbytes)})

    def close(self) -> None:
        self.server.close()
        self.harness.server.close()


class ProcSlab(Workload):
    """One binomial 160-96 region on ProcessPoolBackend(workers=1), 256
    rows per synchronous round trip: the slab lease, copy and pipe wake-
    up are the cost."""

    name = "proc_slab"
    base = "serial_inproc"
    calls, chunk, base_calls = 800, 256, 80

    def __init__(self, seed, workdir, quick=False):
        super().__init__(seed, workdir, quick)
        self.n_rows = 64 * self.chunk      # rows cycle through 64 blocks

    def setup(self) -> None:
        self.setup_ms["directives.parse_ms"] = parse_ms("binomial")
        h = self.harness = harness_for(
            "binomial", self.workdir, seed=self.seed,
            n_train=self.sized(2048, 256), n_test=self.n_rows)
        h.collect()
        self.model, _, _ = fit(
            h, MLP2_M, epochs=self.sized(10, 2), seed=self.seed)
        self.install(h, self.model)
        # One worker process: with the parent that is 2 <= nproc.
        self.backend = serving.ProcessPoolBackend(workers=1)
        self.server = serving.RegionServer(backend=self.backend)
        self.log = EventLog()
        self.region = binomial.build_region(
            mode="infer", n_steps=h.n_steps, db_path=str(h.db_path),
            model_path=str(h.model_path), event_log=self.log)
        self.server.register(self.region, name="binomial")
        self.region.engine.warmup(h.model_path)
        self.logs = (self.log, h.events)
        self.devices = (h.device,)
        self.x = h.test_inputs()
        self.out = np.zeros(self.n_rows)
        self.ref = binomial.kernel.price_american(self.x[:self.chunk],
                                                  n_steps=h.n_steps)
        self.flops_per_row, self.weight_bytes = model_cost(
            self.model, self.x.shape[1:])

    def regions(self) -> list:
        return [self.region]

    def reset(self) -> None:
        super().reset()
        client = self.backend.client_for("binomial")
        self.shipped0, self.requests0 = client.bytes_shipped, client.requests

    def round_trip(self, server):
        invoke, chunk = server.invoke, self.chunk

        def call(i):
            lo = (i % 64) * chunk
            hi = lo + chunk
            wait(invoke("binomial", self.x[lo:hi], self.out[lo:hi], chunk,
                        use_model=True))
        return call

    def run(self, m) -> None:
        m.calls(self.round_trip(self.server), self.calls)
        m.step(self.server.drain)

    def run_base(self, m) -> None:
        # Same rows, same model, served in-process on SerialBackend.
        m.calls(self.round_trip(self.harness.server), self.base_calls)

    def check(self) -> bool:
        if self.backend.client_for("binomial").pickle_fallbacks:
            return False
        if not np.all(np.isfinite(self.out)):
            return False
        for i in range(0, min(self.calls, 64), 8):
            lo, hi = i * self.chunk, (i + 1) * self.chunk
            want = graph_forward(self.model, self.x[lo:hi]).reshape(-1)
            if not np.array_equal(self.out[lo:hi], want):
                return False
        return True

    def qoi(self) -> float:
        return float(self.harness.error_fn(self.out[:self.chunk], self.ref))

    def counts(self) -> dict:
        client = self.backend.client_for("binomial")
        requests = client.requests - self.requests0
        return dict(
            self.device_counts(),
            **{"nn.plan.flops_per_row": self.flops_per_row,
               "nn.plan.weight_bytes": self.weight_bytes,
               "runtime.engine.forwards": requests,
               "bridge.bytes_moved":
                   self.rows * (self.x[0].nbytes + self.out[0].nbytes),
               "serving.shm.bytes_per_call":
                   (client.bytes_shipped - self.shipped0) / max(requests, 1),
               "serving.shm.pickle_fallbacks": client.pickle_fallbacks})

    def close(self) -> None:
        self.server.close()
        self.harness.server.close()


WORKLOADS = {cls.name: cls for cls in (
    DeployChunk16, DeployGemm, StencilMarch, ServeGoverned, CollectRetrain,
    FleetWave, ProcSlab)}
