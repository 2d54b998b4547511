"""Module hierarchy: the layer zoo used by the NAS search spaces.

The HPAC-ML evaluation (Table IV) searches over MLPs (MiniBUDE, Binomial
Options, Bonds) and small CNNs (MiniWeather, ParticleFilter); the layers
here cover exactly that zoo plus the regularizers the hyperparameter
space (Table V) requires (dropout).  The ``Module`` base mirrors Torch's:
named parameters, train/eval modes, and a state-dict for serialization.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from . import functional as F
from . import init as init_mod
from .tensor import Tensor, no_grad

__all__ = [
    "Module", "Parameter", "Linear", "Conv1d", "Conv2d", "MaxPool1d",
    "MaxPool2d", "AvgPool2d", "ReLU", "Tanh", "Sigmoid", "LeakyReLU",
    "Dropout", "Flatten", "Sequential", "Identity", "BatchNorm1d",
    "LayerNorm", "CropPad2d", "Standardize", "Destandardize",
]


class Parameter(Tensor):
    """A tensor registered as a trainable parameter of a Module."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` attributes;
    those are discovered automatically for ``parameters()`` and
    ``state_dict()``.
    """

    def __init__(self):
        self.training = True

    # -- attribute discovery ------------------------------------------
    def named_parameters(self, prefix: str = ""):
        for name, value in vars(self).items():
            if isinstance(value, Parameter):
                yield prefix + name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix + name + ".")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{prefix}{name}.{i}.")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total scalar parameter count (model-size axis of Figs. 7-8)."""
        return sum(p.size for p in self.parameters())

    def modules(self):
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    # -- modes ---------------------------------------------------------
    def train(self, mode: bool = True):
        for m in self.modules():
            m.training = mode
        return self

    def eval(self):
        return self.train(False)

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    # -- persistence ----------------------------------------------------
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        return OrderedDict((name, p.data.copy()) for name, p in self.named_parameters())

    def load_state_dict(self, state: dict) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state_dict mismatch: missing={sorted(missing)}, "
                           f"unexpected={sorted(unexpected)}")
        for name, p in own.items():
            arr = np.asarray(state[name])
            if arr.shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{arr.shape} vs {p.data.shape}")
            p.data = arr.astype(p.data.dtype, copy=True)

    # -- call protocol ----------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, x) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        return self.forward(x)

    # -- compiled inference fast path -------------------------------------
    def forward_compiled(self, x) -> np.ndarray:
        """Run inference through the compiled NumPy plan (eval semantics).

        Compiles lazily on first use and caches the plan on the module;
        the cache recompiles automatically when a parameter array is
        rebound (e.g. :meth:`load_state_dict`).  Layers without a
        compiled lowering fall back to the graph path under ``no_grad``.
        Returns a plain ndarray which may be plan-owned — copy it if it
        must survive the next call; a large batch keeps block-sized scratch.
        """
        plan = self.__dict__.get("_plan_cache")
        if plan is None or (plan is not _COMPILE_UNSUPPORTED and plan.stale()):
            from .compile import UnsupportedLayerError, compile_inference
            try:
                plan = compile_inference(self)
            except UnsupportedLayerError:
                plan = _COMPILE_UNSUPPORTED
            self._plan_cache = plan
        if plan is _COMPILE_UNSUPPORTED:
            was_training = self.training
            if was_training:
                self.eval()
            try:
                with no_grad():
                    out = self(x).numpy()
            finally:
                if was_training:
                    self.train(True)
            return out
        return plan(x)


#: Sentinel cached on modules whose layer set has no compiled lowering.
_COMPILE_UNSUPPORTED = object()


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class Linear(Module):
    """Affine layer ``y = x W^T + b`` with weight layout (out, in)."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init_mod.kaiming_uniform((out_features, in_features), in_features, rng))
        self.bias = Parameter(init_mod.uniform_bias((out_features,), in_features, rng)) \
            if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self):
        return f"Linear({self.in_features}, {self.out_features})"


class Conv2d(Module):
    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(init_mod.kaiming_uniform(
            (out_channels, in_channels, kernel_size, kernel_size), fan_in, rng))
        self.bias = Parameter(init_mod.uniform_bias((out_channels,), fan_in, rng)) \
            if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, self.stride, self.padding)

    def __repr__(self):
        return (f"Conv2d({self.in_channels}, {self.out_channels}, "
                f"k={self.kernel_size}, s={self.stride}, p={self.padding})")


class Conv1d(Module):
    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        fan_in = in_channels * kernel_size
        self.weight = Parameter(init_mod.kaiming_uniform(
            (out_channels, in_channels, kernel_size), fan_in, rng))
        self.bias = Parameter(init_mod.uniform_bias((out_channels,), fan_in, rng)) \
            if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv1d(x, self.weight, self.bias, self.stride)


class MaxPool2d(Module):
    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self):
        return f"MaxPool2d(k={self.kernel_size}, s={self.stride})"


class MaxPool1d(Module):
    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool1d(x, self.kernel_size, self.stride)


class AvgPool2d(Module):
    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

    def __repr__(self):
        return "ReLU()"


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class LeakyReLU(Module):
    def __init__(self, slope: float = 0.01):
        super().__init__()
        self.slope = slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.slope)


class Dropout(Module):
    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1): {p}")
        self.p = p
        self.rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.training, self.rng)

    def __repr__(self):
        return f"Dropout(p={self.p})"


class Flatten(Module):
    def __init__(self, start_dim: int = 1):
        super().__init__()
        self.start_dim = start_dim

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten_from(self.start_dim)

    def __repr__(self):
        return "Flatten()"


class BatchNorm1d(Module):
    """Batch normalization over the feature axis of (N, F) inputs."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features))
        self.bias = Parameter(np.zeros(num_features))
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            mu = x.mean(axis=0, keepdims=True)
            var = x.var(axis=0, keepdims=True)
            self.running_mean = ((1 - self.momentum) * self.running_mean
                                 + self.momentum * mu.data.ravel())
            self.running_var = ((1 - self.momentum) * self.running_var
                                + self.momentum * var.data.ravel())
        else:
            mu = Tensor(self.running_mean.reshape(1, -1))
            var = Tensor(self.running_var.reshape(1, -1))
        norm = (x - mu) / (var + self.eps).sqrt()
        return norm * self.weight + self.bias


class LayerNorm(Module):
    """Layer normalization over the trailing feature axis."""

    def __init__(self, num_features: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.weight = Parameter(np.ones(num_features))
        self.bias = Parameter(np.zeros(num_features))

    def forward(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        norm = (x - mu) / (var + self.eps).sqrt()
        return norm * self.weight + self.bias


class Standardize(Module):
    """Frozen feature standardization ``(x - mean) / std``.

    Bakes dataset statistics into the model so the deployed surrogate
    consumes raw application memory — the data bridge never needs to
    know about normalization.  ``mean``/``std`` are constants (stored in
    the model spec), not trainable parameters.
    """

    def __init__(self, mean, std):
        super().__init__()
        self.mean = np.asarray(mean, dtype=np.float64)
        self.std = np.asarray(std, dtype=np.float64)
        if np.any(self.std <= 0):
            raise ValueError("std entries must be positive")

    def forward(self, x: Tensor) -> Tensor:
        return (x - Tensor(self.mean)) * Tensor(1.0 / self.std)

    def __repr__(self):
        return f"Standardize(features={self.mean.size})"


class Destandardize(Module):
    """Frozen inverse standardization ``x * std + mean`` (output heads)."""

    def __init__(self, mean, std):
        super().__init__()
        self.mean = np.asarray(mean, dtype=np.float64)
        self.std = np.asarray(std, dtype=np.float64)

    def forward(self, x: Tensor) -> Tensor:
        return x * Tensor(self.std) + Tensor(self.mean)

    def __repr__(self):
        return f"Destandardize(features={self.mean.size})"


class CropPad2d(Module):
    """Crop or zero-pad the trailing spatial dims to a target (H, W).

    Needed to keep grid-to-grid CNNs shape-preserving when the NAS space
    proposes even kernel sizes (Table IV allows k in [2, 8]), where
    symmetric 'same' padding does not exist.
    """

    def __init__(self, height: int, width: int):
        super().__init__()
        self.height = height
        self.width = width

    def forward(self, x: Tensor) -> Tensor:
        h, w = x.shape[-2], x.shape[-1]
        if h > self.height or w > self.width:
            x = x[..., :min(h, self.height), :min(w, self.width)]
            h, w = x.shape[-2], x.shape[-1]
        if h < self.height or w < self.width:
            pad = [(0, 0)] * (x.ndim - 2)
            pad += [(0, self.height - h), (0, self.width - w)]
            x = x.pad(pad)
        return x

    def __repr__(self):
        return f"CropPad2d({self.height}, {self.width})"


class Sequential(Module):
    """Chain layers; iterable and indexable like ``torch.nn.Sequential``."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)

    def append(self, layer: Module) -> "Sequential":
        self.layers.append(layer)
        self.__dict__.pop("_plan_cache", None)   # structural change
        return self

    def __iter__(self):
        return iter(self.layers)

    def __getitem__(self, i):
        return self.layers[i]

    def __len__(self):
        return len(self.layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __repr__(self):
        inner = ", ".join(repr(l) for l in self.layers)
        return f"Sequential({inner})"
