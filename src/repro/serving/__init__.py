"""``repro.serving`` — the unified multi-region serving layer.

One :class:`RegionServer` owns a set of
:class:`~repro.runtime.region.ApproxRegion`\\ s, schedules their
invocations through a pluggable execution backend (inline
:class:`SerialBackend`, or :class:`ThreadPoolBackend` with per-region
batched-engine affinity), and hosts a single :class:`QoSArbiter` that
splits one global error budget across every region — replacing the
one-controller-per-harness wiring of PR 2.  A :class:`RetrainWorker`
closes the adaptive loop online: drift bursts refresh a region's
training database, the worker retrains in the background, and the new
model file is hot-swapped atomically under the live server.
"""

from .arbiter import QoSArbiter
from .backends import (ExecutionBackend, ProcessPoolBackend, SerialBackend,
                       ThreadPoolBackend)
from .retrain import (HotSwapError, RetrainEvent, RetrainSpec,
                      RetrainWorker, db_row_count, hot_swap_model,
                      recency_weighted_indices)
from .server import RegionServer, ServedRegion
from .shm import (ProcessInferenceEngine, RemoteEngineClient, SlabRing,
                  WorkerCrashed, WorkerError, WorkerHandle, WorkerTimeout)

__all__ = [
    "RegionServer", "ServedRegion",
    "ExecutionBackend", "SerialBackend", "ThreadPoolBackend",
    "ProcessPoolBackend",
    "SlabRing", "WorkerHandle", "RemoteEngineClient",
    "ProcessInferenceEngine",
    "WorkerCrashed", "WorkerTimeout", "WorkerError",
    "QoSArbiter",
    "RetrainWorker", "RetrainSpec", "RetrainEvent",
    "HotSwapError",
    "hot_swap_model", "db_row_count", "recency_weighted_indices",
]
