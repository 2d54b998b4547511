"""Recurrent layers (GRU) — the RNN branch of the paper's design space.

§I motivates NN surrogates with the "rich space of architectures such
as MLPs, CNNs, and RNNs"; the Table IV spaces only exercise the first
two, so recurrent support is the natural extension for sequence-shaped
regions (e.g. time-windowed auto-regressive surrogates).  The GRU here
unrolls over the autograd graph for the reference path, and registers
its own :mod:`repro.nn.plan` lowering (bottom of this module) so both
compiled pipelines — inference *and* training (truncated-free BPTT
over the full window) — cover sequence surrogates.
"""

from __future__ import annotations

import numpy as np

from . import init as init_mod
from .layers import Module, Parameter
from .plan import PlanStep, register_lowering
from .tensor import Tensor

__all__ = ["GRUCell", "GRU", "GRUStep"]


class GRUCell(Module):
    """Single gated-recurrent-unit step.

    Weight layout matches Torch: ``weight_ih`` is (3H, F) stacked as
    [reset; update; new], ``weight_hh`` is (3H, H).
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        h3 = 3 * hidden_size
        self.weight_ih = Parameter(
            init_mod.kaiming_uniform((h3, input_size), input_size, rng))
        self.weight_hh = Parameter(
            init_mod.kaiming_uniform((h3, hidden_size), hidden_size, rng))
        self.bias_ih = Parameter(init_mod.uniform_bias((h3,), input_size, rng))
        self.bias_hh = Parameter(init_mod.uniform_bias((h3,), hidden_size,
                                                       rng))

    def forward(self, x: Tensor, h: Tensor | None = None) -> Tensor:
        if h is None:
            h = Tensor(np.zeros((x.shape[0], self.hidden_size)))
        gi = x @ self.weight_ih.transpose() + self.bias_ih
        gh = h @ self.weight_hh.transpose() + self.bias_hh
        hs = self.hidden_size
        i_r, i_z, i_n = (gi[:, :hs], gi[:, hs:2 * hs], gi[:, 2 * hs:])
        h_r, h_z, h_n = (gh[:, :hs], gh[:, hs:2 * hs], gh[:, 2 * hs:])
        r = (i_r + h_r).sigmoid()
        z = (i_z + h_z).sigmoid()
        n = (i_n + r * h_n).tanh()
        return n + z * (h - n)

    def __call__(self, x, h=None) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        return self.forward(x, h)

    def __repr__(self):
        return f"GRUCell({self.input_size}, {self.hidden_size})"


class GRU(Module):
    """Unrolled GRU over (batch, seq, features) inputs.

    ``return_sequence`` selects the full hidden sequence
    (batch, seq, H) or the final hidden state (batch, H) — the latter is
    the usual regression-head input.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 return_sequence: bool = False,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.cell = GRUCell(input_size, hidden_size, rng=rng)
        self.return_sequence = return_sequence
        self.input_size = input_size
        self.hidden_size = hidden_size

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 3:
            raise ValueError(f"GRU expects (batch, seq, features), got "
                             f"{x.shape}")
        seq_len = x.shape[1]
        h = None
        outputs = []
        for t in range(seq_len):
            h = self.cell(x[:, t, :], h)
            if self.return_sequence:
                outputs.append(h)
        if self.return_sequence:
            return Tensor.stack(outputs, axis=1)
        return h

    def __repr__(self):
        return (f"GRU({self.input_size}, {self.hidden_size}, "
                f"return_sequence={self.return_sequence})")


# ----------------------------------------------------------------------
# Compiled lowering (inference recurrence + hand-derived BPTT)
# ----------------------------------------------------------------------

class GRUStep(PlanStep):
    """Unrolled GRU over raw ndarrays, shared by both compiled modes.

    The forward replays the graph path's exact operation sequence (per
    timestep ``x_t @ W_ih^T + b_ih`` / ``h @ W_hh^T + b_hh``, the
    1/(1+exp(-x)) sigmoid, ``h = n + z*(h - n)``).  In training mode it
    stashes the per-timestep gate activations and the backward pass
    runs backpropagation-through-time over the full window: the gate
    adjoints mirror the autodiff formulas term for term (sigmoid as
    ``(g*s)*(1-s)``, tanh as ``g*(1-n*n)``, the update-gate split as
    ``dh*z`` / ``dh - dh*z``), and the four parameter gradients
    accumulate across timesteps in the same reverse order the graph's
    leaf accumulation runs, straight into views of the plan's flat
    gradient buffer.  Weight transposes are views over the bound
    parameter arrays: in-place optimizer updates flow through without
    recompiling.
    """

    __slots__ = ("w_ih_t", "w_hh_t", "b_ih", "b_hh", "return_sequence",
                 "gw_ih", "gw_hh", "gb_ih", "gb_hh")
    declared = True

    def __init__(self, layer, training):
        super().__init__(training, None, [layer])
        self.w_ih_t = self.w_hh_t = self.b_ih = self.b_hh = None
        self.return_sequence = layer.return_sequence
        self.gw_ih = self.gw_hh = self.gb_ih = self.gb_hh = None

    def param_sources(self):
        # The flat-gradient order: weight_ih, weight_hh, bias_ih, bias_hh.
        return tuple(tuple((getattr(lay.cell, name), "data")
                           for lay in self.layers)
                     for name in ("weight_ih", "weight_hh", "bias_ih",
                                  "bias_hh"))

    def bind_params(self, views):
        w_ih, w_hh, self.b_ih, self.b_hh = views
        self.w_ih_t, self.w_hh_t = w_ih.T, w_hh.T   # views: updates flow

    def bind_grads(self, views):
        self.gw_ih, self.gw_hh, self.gb_ih, self.gb_hh = views

    def forward(self, x, n):
        if x.ndim != 3:
            raise ValueError(f"GRU expects (batch, seq, features), got "
                             f"{x.shape}")
        hs = self.w_hh_t.shape[0]
        b_ih, b_hh = self.b_ih, self.b_hh
        batch, seq_len = x.shape[0], x.shape[1]
        h = np.zeros((batch, hs),
                     dtype=np.result_type(x.dtype, self.w_hh_t.dtype))
        outputs = [] if self.return_sequence else None
        stash = [] if self.training else None
        for t in range(seq_len):
            x_t = x[:, t, :]
            gi = x_t @ self.w_ih_t + b_ih
            gh = h @ self.w_hh_t + b_hh
            r = 1.0 / (1.0 + np.exp(-(gi[:, :hs] + gh[:, :hs])))
            z = 1.0 / (1.0 + np.exp(-(gi[:, hs:2 * hs] + gh[:, hs:2 * hs])))
            gh_n = gh[:, 2 * hs:]
            n_gate = np.tanh(gi[:, 2 * hs:] + r * gh_n)
            if stash is not None:
                stash.append((x_t, h, r, z, n_gate, gh_n))
            h = n_gate + z * (h - n_gate)
            if outputs is not None:
                outputs.append(h)
        if stash is not None:
            self.scratch(n)["stash"] = stash
        if outputs is not None:
            return np.stack(outputs, axis=1)
        return h

    def backward(self, g, n, need_gx):
        stash = self._bufs[n]["stash"]
        seq_len = len(stash)
        gw_ih, gw_hh = self.gw_ih, self.gw_hh
        gb_ih, gb_hh = self.gb_ih, self.gb_hh
        gw_ih.fill(0.0)
        gw_hh.fill(0.0)
        gb_ih.fill(0.0)
        gb_hh.fill(0.0)
        w_ih = self.w_ih_t.T                   # (3H, F) original layout
        w_hh = self.w_hh_t.T
        gx = np.zeros((g.shape[0],) + (seq_len, w_ih.shape[1])) \
            if need_gx else None
        if self.return_sequence:
            dh = np.zeros_like(g[:, 0, :])
        else:
            dh = g
        for t in range(seq_len - 1, -1, -1):
            x_t, h_prev, r, z, n_gate, gh_n = stash[t]
            if self.return_sequence:
                dh = dh + g[:, t, :]
            # h = n + z*(h_prev - n): graph splits the incoming gradient
            # as dn = dh - dh*z, dz = dh*(h_prev - n), dh_prev = dh*z.
            dhz = dh * z
            dn = dh - dhz
            dz = dh * (h_prev - n_gate)
            # tanh / sigmoid adjoints, associated exactly as the graph.
            dn_pre = dn * (1.0 - n_gate * n_gate)
            dr = dn_pre * gh_n
            dghn = dn_pre * r
            dz_pre = (dz * z) * (1.0 - z)
            dr_pre = (dr * r) * (1.0 - r)
            dgi = np.concatenate((dr_pre, dz_pre, dn_pre), axis=1)
            dgh = np.concatenate((dr_pre, dz_pre, dghn), axis=1)
            gw_ih += dgi.T @ x_t
            gb_ih += dgi.sum(axis=0)
            gw_hh += dgh.T @ h_prev
            gb_hh += dgh.sum(axis=0)
            if gx is not None:
                gx[:, t, :] = dgi @ w_ih
            dh = dhz + dgh @ w_hh
        return gx


@register_lowering(GRU)
def _lower_gru(layer, ctx):
    ctx.emit(GRUStep(layer, ctx.training),
             "GRU: unrolled BPTT" if ctx.training
             else "GRU: unrolled recurrence")
