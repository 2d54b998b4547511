"""Fixed-seed replay digests of one or more checkouts — the "same
behaviour" oracle of a refactor.

    python3 tools/replay_digest.py PARENT CHANGE
    python3 tools/replay_digest.py . .          # cross-process determinism

Each ``CHECKOUT`` is driven in a process of its own, importing that
checkout's ``src/`` and nothing else of it (the scenarios live in this
file, so a parent that predates the tool replays too).  Four scenarios,
fixed seeds, no wall clock in anything digested:

``governed``
    Three Table I regions on one ``RegionServer`` under one
    ``QoSArbiter`` (``shadow_rate=0.1``, ``shadow_rows=8``):
    ``binomial`` behind an ``auto_batch`` queue, ``bonds`` behind a
    circuit breaker, ``minibude`` at ``precision="auto"``; a
    ``DecisionStream``; round-robin 32-row calls while the ``ACCURATE``
    seam is scripted slow (0 s) on a seeded coin.
``faults``
    The scripted fault suite against a guarded, unshadowed 2 -> 1
    region that is called after every step: a surrogate NaN burst,
    two surrogate raises, a slow fallback kernel, a trainer that
    crashes three polls running before the fourth retrains and
    hot-swaps, a candidate truncated in flight (rolled back) and the
    clean retry.
``fleet``
    Four same-architecture 2 -> 6 -> 3 -> 1 regions grouped into one
    fleet and served in ``invoke_fleet`` waves of 4 rows, with a
    ``DecisionStream``.  Two of them share a ``QoSController``
    (``shadow_rate=0.25``) whose policy admits every call with a reason
    and sends every fifth to the accurate kernel, and whose spend
    ledger moves on every decision and every shadow error: so waves mix
    QoS-decided plain riders, plain riders, and shadowed and accurate
    calls served singly.  Every third wave repeats one of the governed
    names; half way one ungoverned member is hot-swapped to a model of
    the same architecture; the ``ACCURATE`` seam is scripted slow (0 s)
    on a seeded coin.  Then a governed wave of four members sharing one
    region name (so one stream group: its rows' order is the calls'),
    a breaker each, one controller whose policy sends every fifth call
    to the accurate kernel: its stream and outputs are the ``order``
    digest.
``plain``
    Plain (ungoverned, immediate) calls, the ones a region serves with
    its generated program once warm: a 2 -> 6 -> 3 -> 1 region on fresh
    4-row slices whose geometry changes to 6 rows and back, hot-swapped
    to a model of the same architecture half way; and a 2 -> 2 inout
    region marched on one buffer (every seventh step accurate, the
    buffer re-seeded every tenth).  A ``DecisionStream`` is attached
    for a window and detached; the ``SURROGATE`` seam poisons a few
    forwards with NaN.

Per scenario the sha256 of the decision-stream file bytes, of every
output array the calls wrote, and of ``injector.schedule()`` (``fleet``
adds ``order``); exits 1 when two checkouts disagree on any of them (or
a worker fails).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SCENARIOS = ("governed", "faults", "fleet", "plain")
_BASE = ("stream", "outputs", "schedule")
DIGESTS = {"governed": _BASE, "faults": _BASE, "fleet": _BASE + ("order",),
           "plain": _BASE}
SEED, CHUNK = 7, 32


# ----------------------------------------------------------------------
# Worker side: runs with one checkout's src/ on sys.path
# ----------------------------------------------------------------------

def _sha(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


def _digests(stream_path: Path, outputs: list, injector) -> dict:
    return {"stream": _sha(stream_path.read_bytes()),
            "outputs": _sha(*(o.tobytes() for o in outputs)),
            "schedule": _sha(json.dumps(injector.schedule()).encode())}


def governed(workdir: Path, calls: int) -> dict:
    import numpy as np
    from repro.apps.harness import harness_for
    from repro.nn import Trainer
    from repro.qos import PrecisionPolicy
    from repro.resilience import ACCURATE, FaultInjector
    from repro.serving import QoSArbiter, RegionServer

    apps = ("binomial", "bonds", "minibude")
    archs = {"binomial": {"hidden1_features": 48, "hidden2_features": 24},
             "bonds": {"hidden1_features": 48, "hidden2_features": 24},
             "minibude": {"num_hidden_layers": 3, "hidden1_size": 128,
                          "feature_multiplier": 0.8}}
    per_app = -(-calls // 3) * CHUNK
    server = RegionServer()
    x, outs = {}, {}
    for app in apps:
        extra = {"auto_batch": True, "batch_rows": 256} \
            if app == "binomial" else {}
        h = harness_for(app, workdir / app, seed=SEED, server=server,
                        n_train=256, n_test=per_app, **extra)
        h.collect()
        (xt, yt), (xv, yv) = h.training_arrays()
        model = h.make_builder(xt, yt)(archs[app], seed=SEED)
        Trainer(model, lr=3e-3, batch_size=128, max_epochs=2, patience=2,
                seed=SEED).fit(xt, yt, xv, yv)
        h.install_model(model)
        if app == "minibude":
            h.region.config.precision = "auto"
        x[app] = h.test_inputs()
        outs[app] = [np.zeros((per_app, *shape)) for shape in h.output_shapes]
    server.attach_qos(QoSArbiter(
        global_budget=0.6, shadow_rate=0.1, shadow_rows=8, seed=SEED,
        precision_policy=PrecisionPolicy(sample_rate=0.1, seed=SEED)))
    server.attach_breakers(names=["bonds"])
    stream_path = workdir / "governed.rh5"
    server.attach_stream(stream_path)
    injector = FaultInjector(seed=SEED)
    injector.script(ACCURATE, "slow", probability=0.5, seconds=0.0)
    with injector:
        for i in range(calls):
            app = apps[i % 3]
            lo = (i // 3) * CHUNK
            server.invoke(app, x[app][lo:lo + CHUNK],
                          *[o[lo:lo + CHUNK] for o in outs[app]], CHUNK,
                          use_model=True)
        server.drain()
    server.close()
    return _digests(stream_path, [o for app in apps for o in outs[app]],
                    injector)


def faults(workdir: Path, calls: int) -> dict:
    import numpy as np
    from repro.api import approx_ml
    from repro.nn import Linear, Sequential, save_model
    from repro.obs import DecisionStream
    from repro.resilience import (ACCURATE, HOT_SWAP, SURROGATE, TRAINER,
                                  CircuitBreaker, FaultInjector)
    from repro.runtime import DataCollector, EventLog
    from repro.serving import HotSwapError, RetrainWorker, hot_swap_model

    def linear(weight):
        model = Sequential(Linear(2, 1, rng=np.random.default_rng(0)))
        model[0].weight.data = np.array([[weight, weight]])
        model[0].bias.data = np.array([0.0])
        return model

    model_path, db_path = workdir / "g.rnm", workdir / "g.rh5"
    save_model(linear(2.0), model_path)
    rng = np.random.default_rng(SEED)
    rows = rng.random((64, 2))
    coll = DataCollector(db_path)
    coll.record("g", rows, (2.0 * rows[:, 0] + 3.0 * rows[:, 1])
                .reshape(-1, 1), 0.01)
    coll.close()
    stream_path = workdir / "faults.rh5"
    stream = DecisionStream(stream_path)

    @approx_ml(f"""
#pragma approx tensor functor(fi: [i, 0:2] = ([i, 0:2]))
#pragma approx tensor functor(fo: [i, 0:1] = ([i]))
#pragma approx tensor map(to: fi(x[0:N]))
#pragma approx tensor map(from: fo(y[0:N]))
#pragma approx ml(infer) in(x) out(y) model("{model_path}")
""", name="g", event_log=EventLog(stream=stream))
    def region(x, y, N):
        y[:N] = x[:N].sum(axis=1)

    region.config.breaker = CircuitBreaker(
        failure_threshold=2, quarantine_threshold=8, recovery_successes=1,
        probe_interval=2, name="g")
    worker = RetrainWorker(seed=0)
    worker.watch(
        "g", db_path, model_path,
        build=lambda xt, yt: Sequential(
            Linear(2, 1, rng=np.random.default_rng(1))),
        trainer_kwargs=dict(lr=0.1, batch_size=32, max_epochs=50,
                            patience=20),
        min_new_rows=16, engines=[region.engine])
    coll = DataCollector(db_path)                  # the refresh it is due on
    coll.record("g", rows[:32], rows[:32].sum(axis=1).reshape(-1, 1), 0.01)
    coll.close()

    served = []

    def serve(n=1):
        for _ in range(n):
            x = rng.random((4, 2))
            y = np.full(4, np.nan)
            region(x, y, 4)
            if not np.all(np.isfinite(y)):
                raise SystemExit("faults: an invocation was not served")
            served.append(y)

    injector = FaultInjector(seed=SEED)
    injector.script(SURROGATE, "nan", start=3, stop=7)
    injector.script(SURROGATE, "raise", at=[30, 31])
    injector.script(ACCURATE, "slow", at=[1], seconds=0.0)
    injector.script(TRAINER, "raise", at=[0, 1, 2])
    injector.script(HOT_SWAP, "truncate", at=[1], keep=0.5)  # 0: worker's
    probe = np.ones((4, 2))
    with injector:
        serve(calls // 4)
        for _ in range(4):                 # three crashes, then the swap
            worker.poll()
            serve()
        serve(calls // 4)
        try:
            hot_swap_model(linear(10.0), model_path,
                           engines=[region.engine], verify_inputs=probe)
        except HotSwapError:
            serve()                        # rolled back: still serving
        hot_swap_model(linear(10.0), model_path, engines=[region.engine],
                       verify_inputs=probe)
        serve(calls // 2)
    region.close()
    stream.close()
    return _digests(stream_path, served, injector)


def fleet(workdir: Path, waves: int) -> dict:
    import numpy as np
    from repro.api import approx_ml
    from repro.nn import save_model
    from repro.qos import PolicyAction, QoSController, QoSPolicy
    from repro.resilience import ACCURATE, FaultInjector
    from repro.runtime import EventLog, ExecutionPath
    from repro.search.builders import build_mlp2
    from repro.serving import RegionServer, hot_swap_model

    class Ledger(QoSPolicy):
        def __init__(self):
            self.decisions, self.spent = 0, 0.0

        def decide(self, region_name, stats):
            self.decisions += 1
            self.spent += 1.0
            if self.decisions % 5 == 0:
                return PolicyAction(ExecutionPath.ACCURATE, reason="fifth")
            return PolicyAction(ExecutionPath.INFER, reason="admit")

        def observe(self, region_name, error, stats):
            self.spent += error

        def spend_for(self, region_name):
            return self.spent

    arch = {"hidden1_features": 6, "hidden2_features": 3}
    names, rows = ("f0", "f1", "f2", "f3"), 4
    server = RegionServer()
    for k, name in enumerate(names):
        model_path = workdir / f"{name}.rnm"
        save_model(build_mlp2(arch, 2, 1, seed=SEED + k), model_path)

        @approx_ml(f"""
#pragma approx tensor functor(fi: [i, 0:2] = ([i, 0:2]))
#pragma approx tensor functor(fo: [i, 0:1] = ([i]))
#pragma approx tensor map(to: fi(x[0:N]))
#pragma approx tensor map(from: fo(y[0:N]))
#pragma approx ml(infer) in(x) out(y) model("{model_path}")
""", name=name, event_log=EventLog())
        def region(x, y, N):
            y[:N] = np.sin(x[:N, 0]) + x[:N, 1] ** 2

        server.register(region)
    formed = server.enable_fleets()
    if sorted(n for group in formed.values() for n in group) != list(names):
        raise SystemExit(f"fleet: members did not group: {formed}")
    server.attach_qos(QoSController(policy=Ledger(), shadow_rate=0.25,
                                    seed=SEED), names=["f1", "f2"])
    stream_path = workdir / "fleet.rh5"
    server.attach_stream(stream_path)
    rng = np.random.default_rng(SEED)
    x = rng.random((waves * rows, 2))
    outs = {name: np.zeros(waves * rows) for name in names}
    repeats = np.zeros(waves * rows)
    injector = FaultInjector(seed=SEED)
    injector.script(ACCURATE, "slow", probability=0.5, seconds=0.0)
    with injector:
        for i in range(waves):
            lo, hi = i * rows, (i + 1) * rows
            calls = [(name, (x[lo:hi], outs[name][lo:hi], rows), {})
                     for name in names]
            if i % 3 == 2:                 # a governed name, twice
                calls.insert(3, (names[1 + i % 2], (
                    x[lo:hi][::-1].copy(), repeats[lo:hi], rows), {}))
            server.invoke_fleet(calls)
            if i == waves // 2:
                hot_swap_model(build_mlp2(arch, 2, 1, seed=SEED + 40),
                               workdir / "f3.rnm",
                               engines=[server.fleet,
                                        server.region("f3").engine])
        server.drain()
    server.close()
    digests = _digests(stream_path, [*outs.values(), repeats], injector)
    digests["order"] = _ordered_wave(workdir, waves, Ledger)
    return digests


def _ordered_wave(workdir: Path, waves: int, policy) -> str:
    """The ``fleet`` scenario's governed wave whose members share one
    region name: sha256 of its stream bytes and outputs."""
    import numpy as np
    from repro.api import approx_ml
    from repro.nn import save_model
    from repro.qos import QoSController
    from repro.runtime import EventLog
    from repro.search.builders import build_mlp2
    from repro.serving import RegionServer

    arch = {"hidden1_features": 6, "hidden2_features": 3}
    server, rows = RegionServer(), 4
    for k in range(4):
        model_path = workdir / f"wave{k}.rnm"
        save_model(build_mlp2(arch, 2, 1, seed=SEED + 20 + k), model_path)

        @approx_ml(f"""
#pragma approx tensor functor(fi: [i, 0:2] = ([i, 0:2]))
#pragma approx tensor functor(fo: [i, 0:1] = ([i]))
#pragma approx tensor map(to: fi(x[0:N]))
#pragma approx tensor map(from: fo(y[0:N]))
#pragma approx ml(infer) in(x) out(y) model("{model_path}")
""", name="wave", event_log=EventLog())
        def region(x, y, N):
            y[:N] = np.cos(x[:N, 0]) * x[:N, 1]

        server.register(region, name=f"w{k}")
    server.enable_fleets()
    server.attach_breakers()
    server.attach_qos(QoSController(policy=policy(), shadow_rate=0.0,
                                    seed=SEED))
    stream_path = workdir / "order.rh5"
    server.attach_stream(stream_path)
    rng = np.random.default_rng(SEED + 1)
    x = rng.random((waves * rows, 2))
    outs = {name: np.zeros(waves * rows) for name in server.names}
    for i in range(waves):
        lo, hi = i * rows, (i + 1) * rows
        server.invoke_fleet([(name, (x[lo:hi], out[lo:hi], rows), {})
                             for name, out in outs.items()])
    server.close()
    return _sha(stream_path.read_bytes(),
                *(out.tobytes() for out in outs.values()))


def plain(workdir: Path, calls: int) -> dict:
    import numpy as np
    from repro.api import approx_ml
    from repro.nn import Linear, Sequential, Tanh, save_model
    from repro.resilience import SURROGATE, FaultInjector
    from repro.runtime import EventLog
    from repro.search.builders import build_mlp2
    from repro.serving import RegionServer, hot_swap_model

    arch = {"hidden1_features": 6, "hidden2_features": 3}
    deploy_path, march_path = workdir / "deploy.rnm", workdir / "march.rnm"
    save_model(build_mlp2(arch, 2, 1, seed=SEED), deploy_path)
    save_model(Sequential(Linear(2, 2, rng=np.random.default_rng(SEED)),
                          Tanh()), march_path)

    @approx_ml(f"""
#pragma approx tensor functor(fi: [i, 0:2] = ([i, 0:2]))
#pragma approx tensor functor(fo: [i, 0:1] = ([i]))
#pragma approx tensor map(to: fi(x[0:N]))
#pragma approx tensor map(from: fo(y[0:N]))
#pragma approx ml(infer:use_model) in(x) out(y) model("{deploy_path}")
""", name="deploy", event_log=EventLog())
    def deploy(x, y, N, use_model=False):
        y[:N] = x[:N].sum(axis=1)

    @approx_ml(f"""
#pragma approx tensor functor(fs: [i, 0:2] = ([i, 0:2]))
#pragma approx tensor map(to: fs(u[0:N]))
#pragma approx tensor map(from: fs(u[0:N]))
#pragma approx ml(infer:use_model) inout(u) model("{march_path}")
""", name="march", event_log=EventLog())
    def march(u, N, use_model=False):
        u[:N] = np.tanh(u[:N] * 0.5)

    server = RegionServer()
    server.register(deploy)
    server.register(march)
    rng = np.random.default_rng(SEED)
    x, y = rng.random((calls * 6, 2)), np.zeros(calls * 6)
    u, marched = rng.random((3, 2)), []
    stream_path = workdir / "plain.rh5"
    injector = FaultInjector(seed=SEED)
    injector.script(SURROGATE, "nan", probability=0.02)
    lo = 0
    with injector:
        for i in range(calls):
            rows = 6 if calls // 3 <= i < 2 * calls // 3 else 4
            server.invoke("deploy", x[lo:lo + rows], y[lo:lo + rows], rows,
                          use_model=True)
            lo += rows
            if i % 10 == 0:
                u[...] = rng.random((3, 2))
            server.invoke("march", u, 3, use_model=i % 7 != 3)
            marched.append(u.copy())
            if i == calls // 4:
                server.attach_stream(stream_path)
            elif i == calls // 4 + calls // 8:
                server.detach_stream()
            elif i == calls // 2:
                hot_swap_model(build_mlp2(arch, 2, 1, seed=SEED + 1),
                               deploy_path, engines=[deploy.engine])
        server.drain()
    server.close()
    return _digests(stream_path, [y, *marched], injector)


def worker_main(workdir: Path, calls: int) -> int:
    logging.disable(logging.CRITICAL)      # breaker / retrain transitions
    print(json.dumps({
        "governed": governed(workdir, calls),
        "faults": faults(workdir, max(calls // 4, 16)),
        "fleet": fleet(workdir, max(calls // 8, 12)),
        "plain": plain(workdir, max(calls // 2, 24))}))
    return 0


# ----------------------------------------------------------------------
# Driver side: stdlib only
# ----------------------------------------------------------------------

def run_checkout(checkout: Path, calls: int) -> dict:
    """``{scenario: {digest name: sha256}}`` of one checkout, replayed
    in a process of its own with only its ``src/`` on the path."""
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"),
               PYTHONHASHSEED="0")
    with tempfile.TemporaryDirectory(prefix="replay_digest_") as workdir:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--worker",
             workdir, "--calls", str(calls)],
            cwd=workdir, env=env, stdout=subprocess.PIPE, text=True,
            check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def disagreements(results: list) -> list:
    """``(scenario, digest name)`` pairs on which the checkouts differ."""
    return [(scenario, name) for scenario in SCENARIOS
            for name in DIGESTS[scenario]
            if len({r[scenario][name] for r in results}) > 1]


def main(argv=None, runner=run_checkout, out=sys.stdout) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("checkouts", type=Path, nargs="*")
    parser.add_argument("--calls", type=int, default=300,
                        help="round-robin calls of the governed scenario")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        return worker_main(args.worker, args.calls)
    if not args.checkouts:
        parser.error("name at least one checkout")
    results = [runner(checkout, args.calls) for checkout in args.checkouts]
    for checkout, result in zip(args.checkouts, results):
        for scenario in SCENARIOS:
            for name in DIGESTS[scenario]:
                print(f"{checkout}  {scenario:8s} {name:8s} "
                      f"{result[scenario][name]}", file=out)
    differ = disagreements(results)
    for scenario, name in differ:
        print(f"DIFFER: {scenario} {name}", file=out)
    if not differ:
        print(f"{len(results)} replay(s) agree on all "
              f"{sum(map(len, DIGESTS.values()))} digests", file=out)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
