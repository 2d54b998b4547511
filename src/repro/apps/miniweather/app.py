"""MiniWeather HPAC-ML integration.

Matches the paper's Table II row: MiniWeather is an iterative solver
re-using the same memory for an iteration's input and output, so the
annotation uses the ``inout`` clause — 3 directives total (one functor,
one map reused for both directions via ``to`` and ``from`` on the same
array, and the ``ml`` directive).

The ``if``-clause interleaving of Fig. 9 is driven through the region's
``step``/``ratio`` arguments: ``if(step % cycle >= surrogate_start)``
patterns run the accurate solver on some steps and the surrogate on
the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...api import approx_ml
from ...runtime import EventLog
from ..base import BenchmarkInfo, register
from .kernel import WeatherConfig, WeatherState, init_thermal_bubble, step

__all__ = ["INFO", "Workload", "generate_workload", "run_accurate",
           "build_region", "DIRECTIVES"]

INFO = register(BenchmarkInfo(
    name="miniweather",
    description="Simulates atmospheric dynamics through essential weather "
                "and climate modeling equations, emphasizing buoyant force "
                "impacts.",
    qoi="Simulation state variables (density, x momentum, z momentum, "
        "potential temperature) at each gridpoint",
    metric="rmse",
    surrogate_family="cnn",
    module=__name__,
))

DIRECTIVES = """
#pragma approx tensor functor(state_f: \\
    [b, 0:4, 0:NZ, 0:NX] = ([b, 0:4, 0:NZ, 0:NX]))
#pragma approx tensor map(to: state_f(u[0:1]))
#pragma approx tensor map(from: state_f(u[0:1]))
#pragma approx ml({mode}:use_model) inout(u) db("{db}") model("{model}")
"""


@dataclass
class Workload:
    state: WeatherState
    n_steps: int = 200
    dt: float = 0.25

    @property
    def config(self) -> WeatherConfig:
        return self.state.config


def generate_workload(nx: int = 64, nz: int = 32, n_steps: int = 200,
                      amplitude: float = 10.0, seed: int = 0) -> Workload:
    cfg = WeatherConfig(nx=nx, nz=nz)
    state = init_thermal_bubble(cfg, amplitude=amplitude)
    # Fixed dt at 80% of the initial CFL bound keeps every run
    # reproducible and every surrogate step commensurate.
    from .kernel import CFL, max_wave_speed
    dt = 0.8 * CFL * min(cfg.dx, cfg.dz) / max_wave_speed(state)
    return Workload(state=state, n_steps=n_steps, dt=dt)


def run_accurate(workload: Workload) -> np.ndarray:
    """March the accurate solver; QoI = final state fields."""
    st = WeatherState(q=workload.state.q.copy(),
                      hy_dens=workload.state.hy_dens,
                      hy_dens_theta=workload.state.hy_dens_theta,
                      config=workload.config)
    for _ in range(workload.n_steps):
        step(st, workload.dt)
    return st.q.copy()


def build_region(*, mode: str = "predicated",
                 state: WeatherState, dt: float,
                 db_path: str = "miniweather.rh5",
                 model_path: str = "miniweather.rnm",
                 event_log: EventLog | None = None, engine=None):
    """Create the annotated timestep region.

    The region advances the (1, 4, nz, nx) array ``u`` by one timestep
    in place: the accurate path unpacks it into the solver state and
    repacks; the surrogate path feeds it straight through the CNN.
    """
    nz, nx = state.config.nz, state.config.nx

    # Auto-regressive stepping on a batch of one: shadow row
    # sub-sampling can never apply — opt out explicitly.
    @approx_ml(DIRECTIVES.format(mode=mode, db=db_path, model=model_path),
               name="miniweather", event_log=event_log, engine=engine,
               row_subsample=False)
    def do_timestep(u, NZ, NX, use_model=False):
        st = WeatherState(q=u[0], hy_dens=state.hy_dens,
                          hy_dens_theta=state.hy_dens_theta,
                          config=state.config)
        step(st, dt)

    def timestep(u, use_model=False):
        return do_timestep(u, nz, nx, use_model=use_model)

    timestep.region = do_timestep
    return timestep
