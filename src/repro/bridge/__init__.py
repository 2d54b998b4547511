"""``repro.bridge`` — the HPAC-ML data bridge (§III-A-1, Fig. 4)."""

from .slices import (SweepRange, SliceLayout, SliceView, BridgeError,
                     slice_layout, sweep_shape)
from .functor import TensorFunctor
from .tensor_map import (ConcretizedMap, MapLayout, concretize,
                         evaluate_ranges, MapSpec, parse_map)

__all__ = ["SweepRange", "SliceLayout", "SliceView", "BridgeError",
           "slice_layout", "sweep_shape", "TensorFunctor",
           "ConcretizedMap", "MapLayout", "concretize", "evaluate_ranges",
           "MapSpec", "parse_map"]
