"""The orientation network: forward pass, losses, training, and sweeps.

The architecture has a shared context encoder feeding two outputs:

* a 3D-dimension regressor (three linear outputs, meters), and
* a multi-bin orientation head emitting a (sin, cos) pair per bin.

With ``use_feedforward`` enabled, two processor stacks widen the head's
input: one consumes the raw 2D box dimensions, the other consumes the
*predicted* 3D dimensions behind a stop-gradient, so the orientation loss
can exploit the dimension estimates without disturbing them.  The plain
variant drops both processors and the head sees the encoder output alone.

The training loss is the sum of a squared-error dimension term, the
per-bin cosine-gap orientation term (with cross-bin exclusion voting
applied each forward pass), and optional squared consistency residuals
tying predictions to the projective box relation, weighted at 0.01 each.
Each residual is in meters: the width span minus the span the 2D box
implies, ``span - (w / h) * h1``.  (``geometry.consistency_residual``
keeps the pixel-meter form ``h * span - w * h1``.)
"""

from __future__ import annotations

import functools
import json
import math
import zipfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import config
from .binning import BinConfig, exclusion_mask_batch, orientation_loss
from .geometry import candidates_for_span, circ_abs_diff, implied_width_span, wrap_angle
from .kitti_io import TrainingSample
from .nn_core import Tape, finite_diff_check, sgd_step

DEFAULT_SWEEP_FACTORS = tuple(np.linspace(0.1, 2.0, 20))


class TrainingDivergedError(RuntimeError):
    """Training hit a non-finite loss or gradient; carries the step and
    that step's loss term values.  For a gradient, ``bad_arrays`` holds the
    names of the parameter arrays whose gradient is not finite, in
    :func:`named_parameters` order, and the count of all the arrays."""

    def __init__(self, step: int, terms: dict[str, float],
                 bad_arrays: tuple[list[str], int] | None = None):
        msg = ", ".join(f"{k}={v!r}" for k, v in terms.items())
        if bad_arrays is None:
            super().__init__(f"non-finite loss at step {step}: {msg}")
        else:
            names, n_arrays = bad_arrays
            super().__init__(f"non-finite gradient at step {step}: in {len(names)} of"
                             f" {n_arrays} parameter arrays, first {names[0]};"
                             f" loss terms {msg}")
        self.step = step
        self.terms = terms


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and training knobs.

    ``lr_schedule`` is a sequence of (steps, learning_rate) segments run in
    order; the default runs 600 steps at 1e-3 and 1400 at 1e-4 with batch
    size 32, a desk-scale rendition of the full-size recipe (batch 32,
    22500 steps, 1e-3 dropping to 1e-4 partway).
    """

    num_bins: int = 4
    encoder_hidden: tuple[int, int] = (64, 64)
    proc_hidden: tuple[int, int] = (512, 2048)
    head_hidden: int = 512
    use_feedforward: bool = True
    use_consistency_loss: bool = False
    seed: int = 0
    batch_size: int = 32
    momentum: float = 0.9
    lr_schedule: tuple[tuple[int, float], ...] = ((600, 1e-3), (1400, 1e-4))

    # Fixed by the method: not fields, so no argument, key or checkpoint sets them.
    consistency_weight = 0.01           # weight of each consistency residual
    dims2d_scale = 0.01                 # 2D box pixels to network input
    exclusion_tau = math.radians(15.0)  # cross-bin vote threshold

    def __post_init__(self):
        if self.num_bins < 1:
            raise ValueError(f"num_bins must be >= 1, got {self.num_bins}")
        if len(self.encoder_hidden) != 2 or len(self.proc_hidden) != 2:
            raise ValueError("encoder_hidden and proc_hidden must each name "
                             "exactly two layer widths")
        widths = (*self.encoder_hidden, *self.proc_hidden, self.head_hidden,
                  self.batch_size)
        if any(v < 1 for v in widths):
            raise ValueError("widths and batch_size must be >= 1")
        if not self.lr_schedule:
            raise ValueError("lr_schedule must have at least one segment")
        for steps, lr in self.lr_schedule:
            if steps < 0 or not (math.isfinite(lr) and lr > 0):
                raise ValueError(f"bad schedule segment ({steps}, {lr})")
        if self.total_steps() < 1:
            raise ValueError(f"lr_schedule must total at least one step, got {self.lr_schedule}")
        if not (0 <= self.momentum < 1):
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def bin_config(self) -> BinConfig:
        return BinConfig(self.num_bins)

    def total_steps(self) -> int:
        return sum(steps for steps, _ in self.lr_schedule)

    def lr_at(self, step: int) -> float:
        done = 0
        for steps, lr in self.lr_schedule:
            done += steps
            if step < done:
                return lr
        return self.lr_schedule[-1][1]


def _stack_specs(cfg: ModelConfig, context_width: int) -> dict[str, list[tuple[int, int, bool]]]:
    """(in width, out width, ReLU follows) of each layer, by stack in
    forward order, for contexts of ``context_width`` columns."""
    e0, e1 = cfg.encoder_hidden
    p0, p1 = cfg.proc_hidden
    specs = {"encoder": [(context_width, e0, True), (e0, e1, True)],
             "dims3d_regressor": [(e1, 3, False)]}
    head_in = e1
    if cfg.use_feedforward:
        specs["proc2d"] = [(2, p0, True), (p0, p1, True)]
        specs["proc3d"] = [(3, p0, True), (p0, p1, True)]
        head_in = e1 + 2 * p1
    specs["head"] = [(head_in, cfg.head_hidden, True),
                     (cfg.head_hidden, 2 * cfg.num_bins, False)]
    return specs


@dataclass(eq=False)
class Layer:
    """One dense layer: views of its weights (out, in) and bias (out,) in
    a flat array, and whether a ReLU follows."""

    weights: np.ndarray
    bias: np.ndarray
    relu: bool


def _carve(flat: np.ndarray, cfg: ModelConfig, context_width: int) -> dict[str, list[Layer]]:
    """Lay the layers of ``cfg`` out in ``flat``: each layer's weights then
    its bias, stack by stack in forward order (:func:`named_parameters`
    order)."""
    stacks, pos = {}, 0
    for name, specs in _stack_specs(cfg, context_width).items():
        stacks[name] = []
        for n_in, n_out, relu in specs:
            weights = flat[pos:pos + n_out * n_in].reshape(n_out, n_in)
            pos += n_out * n_in
            stacks[name].append(Layer(weights, flat[pos:pos + n_out], relu))
            pos += n_out
    return stacks


@dataclass(eq=False)
class OrientationNet:
    """The config, the stacks of :class:`Layer` by name in forward order
    (encoder, dims3d_regressor, then proc2d and proc3d with feedforward,
    head), and ``params``: one flat float64 array holding every parameter
    in :func:`named_parameters` order, of which each layer's weights and
    bias are views."""

    cfg: ModelConfig
    stacks: dict[str, list[Layer]]
    params: np.ndarray

    @property
    def context_width(self) -> int:
        """The context columns the network reads: its first layer's inputs."""
        return self.stacks["encoder"][0].weights.shape[1]


def build_model(cfg: ModelConfig, context_width: int) -> OrientationNet:
    """Seeded construction of a network reading ``context_width`` context
    columns; identical arguments yield identical parameters.

    Layer ``li`` of stack ``si`` (both counted in forward order) draws its
    weights from ``default_rng([cfg.seed, si, li]).uniform(-limit, limit)``,
    with ``limit = sqrt(6 / in)`` (He) where a ReLU follows and
    ``sqrt(6 / (in + out))`` (Xavier) where none does.  Biases start at 0.
    Then the last weight blocks of proc2d and proc3d are multiplied by 0.1
    (undamped, they swamp the encoder, which alone carries the yaw's sign,
    and some seeds stall; at 0 their ReLU would pass no gradient).
    """
    if context_width < 1:
        raise ValueError(f"context_width must be >= 1, got {context_width}")
    size = sum((n_in + 1) * n_out for specs in _stack_specs(cfg, context_width).values()
               for n_in, n_out, _ in specs)
    params = np.zeros(size)
    stacks = _carve(params, cfg, context_width)
    for si, stack in enumerate(stacks.values()):
        for li, layer in enumerate(stack):
            n_out, n_in = layer.weights.shape
            limit = math.sqrt(6.0 / n_in if layer.relu else 6.0 / (n_in + n_out))
            rng = np.random.default_rng([cfg.seed, si, li])
            layer.weights[...] = rng.uniform(-limit, limit, size=layer.weights.shape)
    for stack in (stacks[name] for name in ("proc2d", "proc3d") if name in stacks):
        stack[-1].weights *= 0.1
    return OrientationNet(cfg, stacks, params)


def _named_arrays(stacks: dict[str, list[Layer]]) -> list[tuple[str, np.ndarray]]:
    return [(f"{name}.{i}.{part}", getattr(layer, part))
            for name, stack in stacks.items() for i, layer in enumerate(stack)
            for part in ("weights", "bias")]


def named_parameters(model: OrientationNet) -> list[tuple[str, np.ndarray]]:
    """Flat (name, array) view of every parameter, in a stable order."""
    return _named_arrays(model.stacks)


# ---------------------------------------------------------------------------
# Batching and the value-only forward pass
# ---------------------------------------------------------------------------


@dataclass
class Batch:
    """Column-major view of a list of samples."""

    context: np.ndarray  # (n, context width)
    dims2d: np.ndarray   # (n, 2) as (h, w)
    dims3d: np.ndarray   # (n, 3) as (h1, w1, l1)
    theta: np.ndarray    # (n,)

    def __len__(self) -> int:
        return self.theta.shape[0]

    def take(self, idx) -> "Batch":
        return Batch(self.context[idx], self.dims2d[idx],
                     self.dims3d[idx], self.theta[idx])


def make_batch(samples) -> Batch:
    if not samples:
        raise ValueError("cannot batch an empty sample list")
    return Batch(
        context=np.array([s.context for s in samples]),
        dims2d=np.array([[s.dims2d.h, s.dims2d.w] for s in samples]),
        dims3d=np.array([[s.dims3d.h1, s.dims3d.w1, s.dims3d.l1] for s in samples]),
        theta=np.array([s.theta for s in samples]),
    )


def _apply_stack(stack, x: np.ndarray) -> np.ndarray:
    """Value-only dense layers: ``x @ W.T + b``, then ReLU where set."""
    for layer in stack:
        x = x @ layer.weights.T
        x += layer.bias
        if layer.relu:
            np.maximum(x, 0.0, out=x)
    return x


def _wiring(cfg: ModelConfig, inputs: dict, apply: Callable, concat: Callable,
            feed: Callable):
    """The network's wiring, the one copy that both the value-only forward
    and the loss graph run; returns (the regressor output, the head output).

    ``inputs`` maps "context" and, with feedforward, "dims2d" (the scaled
    2D box dimensions) to the path's values (arrays, or tape nodes);
    ``apply(name, x)`` runs the stack ``name`` on ``x``; ``concat(xs)``
    joins along columns; ``feed(x)`` gives the dimension processor's input
    from the regressor output ``x``.
    """
    enc = apply("encoder", inputs["context"])
    dims_pred = apply("dims3d_regressor", enc)
    if not cfg.use_feedforward:
        return dims_pred, apply("head", enc)
    p2 = apply("proc2d", inputs["dims2d"])
    p3 = apply("proc3d", feed(dims_pred))
    return dims_pred, apply("head", concat([enc, p2, p3]))


def forward_batch(model: OrientationNet, batch: Batch,
                  h1_feed_scale=None) -> tuple[np.ndarray, np.ndarray]:
    """Value-only forward over a batch.  ``h1_feed_scale`` (a scalar, or
    one factor per row) scales the 3D height fed to the dimension processor.
    A row's last bits depend on the rows batched with it: the matrix
    products may sum another batch shape in another order.

    Returns:
        (dims3d_pred (n, 3), bin_outputs (n, 2 * num_bins)).
    """
    cfg = model.cfg
    if batch.context.shape[1] != model.context_width:
        raise ValueError(
            f"context width {batch.context.shape[1]} != model {model.context_width}"
        )

    def feed(x: np.ndarray) -> np.ndarray:
        if h1_feed_scale is None:
            return x
        x = x.copy()
        x[:, 0] *= h1_feed_scale
        return x

    inputs = {"context": batch.context}
    if cfg.use_feedforward:
        inputs["dims2d"] = batch.dims2d * cfg.dims2d_scale
    return _wiring(cfg, inputs, lambda name, x: _apply_stack(model.stacks[name], x),
                   lambda xs: np.concatenate(xs, axis=1), feed)


@dataclass
class DecodedBins:
    """Batch decode of head outputs; see :func:`decode_bins`."""

    angles: np.ndarray      # (n, num_bins) per-bin global angles
    include: np.ndarray     # (n, num_bins) bool, kept by the exclusion vote
    theta: np.ndarray       # (n,) circular mean of the kept angles, NaN if undefined
    defined: np.ndarray     # (n,) bool
    degenerate: np.ndarray  # (n, num_bins) bool, pair exactly (0, 0) or not finite


@functools.cache
def _bin_offsets(num_bins: int) -> np.ndarray:
    """The default bin offsets as a read-only array, built once per count."""
    offsets = np.array(BinConfig(num_bins).offsets)
    offsets.setflags(write=False)
    return offsets


def _bin_angles(pairs: np.ndarray, num_bins: int) -> np.ndarray:
    """(n, num_bins, 2) (sin, cos) pairs -> (n, num_bins) global angles."""
    return wrap_angle(np.arctan2(pairs[..., 0], pairs[..., 1]) + _bin_offsets(num_bins))


def decode_bins(bin_outputs: np.ndarray, cfg: ModelConfig) -> DecodedBins:
    """Decode, vote and aggregate every row of head outputs at once.

    Each (sin, cos) pair gives a global angle (atan2 plus the bin offset),
    the exclusion vote drops an outlying bin, and theta is the circular mean
    of the kept angles: undefined when a pair is degenerate or they cancel.
    """
    pairs = np.asarray(bin_outputs, dtype=float).reshape(-1, cfg.num_bins, 2)
    # Both components finite, and not both zero; elementwise over the pair
    # axis, which costs less than two reductions over it.
    finite = np.isfinite(pairs)
    valid = np.logical_and(finite[..., 0], finite[..., 1])
    valid &= np.logical_or(pairs[..., 0], pairs[..., 1])
    angles = _bin_angles(pairs, cfg.num_bins)
    include = exclusion_mask_batch(angles, cfg.exclusion_tau)
    sin_sum = (np.sin(angles) * include).sum(axis=1)
    cos_sum = (np.cos(angles) * include).sum(axis=1)
    defined = valid.all(axis=1) & (np.hypot(sin_sum, cos_sum) >= 1e-9)
    theta = np.where(defined, wrap_angle(np.arctan2(sin_sum, cos_sum)), np.nan)
    return DecodedBins(angles, include, theta, defined, ~valid)


@dataclass
class ForwardResult:
    """Everything one forward pass produced for a single sample.

    ``theta_pred`` is None when any bin pair is exactly (0, 0) or not
    finite (degenerate, listed in ``degenerate_bins``) or when the
    surviving bins cancel.
    """

    dims3d_pred: np.ndarray
    bin_outputs: np.ndarray
    per_bin_angles: list[float] | None
    excluded: set[int]
    theta_pred: float | None
    degenerate_bins: tuple[int, ...] = ()


def _forward_rows(model: OrientationNet, dims_pred, bin_out) -> list[ForwardResult]:
    """One :class:`ForwardResult` per row of :func:`forward_batch`'s
    outputs.  A row with a degenerate pair has neither angles nor a vote;
    theta is None where undefined."""
    dec = decode_bins(bin_out, model.cfg)
    rows = []
    for dims, pairs, angles, include, theta, defined, bad in zip(
            dims_pred, bin_out.reshape(len(bin_out), model.cfg.num_bins, 2),
            dec.angles.tolist(), dec.include.tolist(), dec.theta.tolist(),
            dec.defined.tolist(), dec.degenerate.tolist()):
        if any(bad):
            rows.append(ForwardResult(dims, pairs, None, set(), None,
                                      tuple(k for k, b in enumerate(bad) if b)))
        else:
            rows.append(ForwardResult(dims, pairs, angles,
                                      {k for k, kept in enumerate(include) if not kept},
                                      theta if defined else None))
    return rows


def forward(model: OrientationNet, sample: TrainingSample) -> ForwardResult:
    """Single-sample forward pass: predict dims, decode, vote, aggregate."""
    return _forward_rows(model, *forward_batch(model, make_batch([sample])))[0]


def predict_orientation(model: OrientationNet,
                        sample: TrainingSample) -> tuple[float, ForwardResult]:
    """Forward pass returning the aggregated yaw, or raising if undefined."""
    result = forward(model, sample)
    if result.theta_pred is None:
        raise ValueError(
            f"orientation undefined: degenerate bins {result.degenerate_bins}"
            if result.degenerate_bins else
            "orientation undefined: surviving bin directions cancel"
        )
    return result.theta_pred, result


# ---------------------------------------------------------------------------
# Loss: per-sample reference implementation and batched tape graph
# ---------------------------------------------------------------------------


def total_loss(result: ForwardResult, sample: TrainingSample,
               cfg: ModelConfig) -> tuple[float, dict[str, float]]:
    """Per-sample loss and its breakdown, from a finished forward result.

    total = sum-of-squares dimension error
          + summed per-bin orientation terms over non-excluded bins
          + consistency_weight * (squared residual of predicted dims at the
            true yaw + squared residual of true dims at the predicted yaw),
            when consistency is enabled.

    Each residual is ``span - (w / h) * h1`` in meters: the width span at
    the yaw minus the span implied by the 2D box's aspect ratio and the
    3D height.
    """
    truth = np.array([sample.dims3d.h1, sample.dims3d.w1, sample.dims3d.l1])
    dims_term = float(((result.dims3d_pred - truth) ** 2).sum())
    orient_term = orientation_loss(result.bin_outputs, sample.theta,
                                   cfg.bin_config(), result.excluded)
    terms = {"dims": dims_term, "orientation": orient_term, "consistency": 0.0}
    if cfg.use_consistency_loss:
        aspect = sample.dims2d.w / sample.dims2d.h
        h1p, w1p, l1p = result.dims3d_pred
        span_pred = w1p * abs(math.sin(sample.theta)) + l1p * abs(math.cos(sample.theta))
        resid_dims = span_pred - aspect * h1p
        if result.theta_pred is None:
            raise ValueError("consistency term undefined without a decoded yaw")
        span_true = (sample.dims3d.w1 * abs(math.sin(result.theta_pred))
                     + sample.dims3d.l1 * abs(math.cos(result.theta_pred)))
        resid_orient = span_true - aspect * sample.dims3d.h1
        terms["consistency"] = cfg.consistency_weight * (resid_dims ** 2 + resid_orient ** 2)
    total = terms["dims"] + terms["orientation"] + terms["consistency"]
    return total, terms


@dataclass
class LossGraph:
    """A built tape with handles into it.

    ``write_inputs(batch)`` writes a batch into the arrays the tape reads
    from it: its data leaves and the batch-derived constants of its
    ``cmul`` / ``cadd`` nodes.  ``include_mask`` is the exclusion vote's
    value, an array of the tape, so it changes when the tape is replayed.
    ``grad`` is laid out like ``model.params``, and each parameter leaf's
    gradient lands in its view of it.
    """

    tape: Tape
    loss: int
    terms: dict[str, int]
    param_nodes: list[tuple[str, int, np.ndarray]]
    write_inputs: Callable[[Batch], None]
    include_mask: np.ndarray
    grad: np.ndarray

    def loss_value(self) -> float:
        return float(self.tape.value(self.loss)[0, 0])

    def term_values(self) -> dict[str, float]:
        return {k: float(self.tape.value(v)[0, 0]) for k, v in self.terms.items()}


_H1_COLUMN = np.array([1.0, 0.0, 0.0])
_H1_COLUMN.setflags(write=False)


def _graph_inputs(n: int, model: OrientationNet
                  ) -> tuple[dict[str, np.ndarray], Callable[[Batch], None]]:
    """The arrays the loss graph of ``model`` takes from a batch of ``n``
    rows (the network's inputs and the batch-derived constants of its
    ``cmul`` / ``cadd`` nodes), and ``write(batch)``, which writes a batch
    into them with ``out=``.  A new graph and every replay write their
    batch with it.  ``w1_l1`` is a view of ``dims3d``, and column 0 of
    ``abs_trig`` stays 0.
    """
    cfg = model.cfg
    shapes = {"context": (n, model.context_width), "dims3d": (n, 3),
              "target": (n, 2 * cfg.num_bins)}
    if cfg.use_feedforward:
        shapes["dims2d"] = (n, 2)
    if cfg.use_consistency_loss:
        shapes.update(abs_trig=(n, 3), aspect_h1=(n, 3), neg_aspect_h1=(n, 1))
    ins = {key: np.zeros(shape) for key, shape in shapes.items()}
    context, dims3d, dims2d = ins["context"], ins["dims3d"], ins.get("dims2d")
    offsets = _bin_offsets(cfg.num_bins)
    # Interleaved (sin, cos) of each bin's residual target theta - offset;
    # the residual is written into the sin slots, then replaced.
    target = ins["target"].reshape(n, cfg.num_bins, 2)
    res, cos_res = target[:, :, 0], target[:, :, 1]
    if cfg.use_consistency_loss:
        ins["w1_l1"] = dims3d[:, 1:3]
        aspect_h1, neg_aspect_h1 = ins["aspect_h1"], ins["neg_aspect_h1"]
        abs_trig = ins["abs_trig"]
        abs_sin, abs_cos, abs_sin_cos = abs_trig[:, 1], abs_trig[:, 2], abs_trig[:, 1:]

    def write(batch: Batch) -> None:
        np.copyto(context, batch.context)
        np.copyto(dims3d, batch.dims3d)
        if dims2d is not None:
            np.multiply(batch.dims2d, cfg.dims2d_scale, out=dims2d)
        theta = batch.theta
        np.subtract(theta[:, None], offsets, out=res)
        np.cos(res, out=cos_res)
        np.sin(res, out=res)
        if cfg.use_consistency_loss:
            np.sin(theta, out=abs_sin)
            np.cos(theta, out=abs_cos)
            np.abs(abs_sin_cos, out=abs_sin_cos)
            # neg_aspect_h1 holds the aspect w / h until its last two steps.
            np.divide(batch.dims2d[:, 1:2], batch.dims2d[:, 0:1], out=neg_aspect_h1)
            np.multiply(neg_aspect_h1, _H1_COLUMN, out=aspect_h1)
            np.multiply(neg_aspect_h1, batch.dims3d[:, 0:1], out=neg_aspect_h1)
            np.negative(neg_aspect_h1, out=neg_aspect_h1)

    return ins, write


def build_loss_graph(model: OrientationNet, batch: Batch,
                     replay: LossGraph | None = None) -> LossGraph:
    """Build the batched training graph and its scalar loss node.

    The loss is the dims term plus the orientation term, plus the
    consistency term when the config enables it; ``terms`` names the node
    of each.  The batch's arrays are data leaves and take no gradient.
    Two kinds of value-only node take none either, and backward holds them
    constant: the exclusion vote, recomputed from the head outputs after
    the head and before the loss nodes that read it, and with feedforward
    the stop-gradient copy of the predicted 3D dimensions that the
    dimension processor reads.

    Every call returns a new graph, unless ``replay`` names one that an
    earlier call built for this model on a batch of as many rows: then the
    new batch is written into that graph's inputs, its tape is replayed
    with the model's current parameters, and the same graph is returned.
    The result is that of a new graph, bit for bit.
    """
    cfg = model.cfg
    if replay is not None:
        if len(batch) != replay.include_mask.shape[0]:
            raise ValueError(f"cannot replay a graph of {replay.include_mask.shape[0]}"
                             f" rows on a batch of {len(batch)}")
        replay.write_inputs(batch)
        replay.tape.replay()
        return replay
    bcfg = cfg.bin_config()
    grad = np.zeros_like(model.params)
    grad_of = dict(_named_arrays(_carve(grad, cfg, model.context_width)))
    inputs, write_inputs = _graph_inputs(len(batch), model)
    write_inputs(batch)
    t = Tape()
    param_nodes = [(name, t.leaf(arr, grad_of[name]), arr)
                   for name, arr in named_parameters(model)]
    # named_parameters lists each layer's weights, then its bias: each
    # layer takes the next two leaves.
    leaves = (nid for _, nid, _ in param_nodes)
    stack_ids = {name: [(wid, bid, layer.relu) for layer, wid, bid in zip(stack, leaves, leaves)]
                 for name, stack in model.stacks.items()}

    def apply(name: str, x: int) -> int:
        for wid, bid, relu in stack_ids[name]:
            x = t.affine(x, wid, bid)
            if relu:
                x = t.relu(x)
        return x

    data = {key: t.data(inputs[key]) for key in ("context", "dims2d") if key in inputs}
    dims_pred, head_out = _wiring(cfg, data, apply, t.concat, t.stop_gradient)

    n = len(batch)

    def vote(out: np.ndarray) -> np.ndarray:
        pairs = out.reshape(n, bcfg.num_bins, 2)
        return exclusion_mask_batch(_bin_angles(pairs, bcfg.num_bins), cfg.exclusion_tau)

    include_mask = t.value(t.value_only(head_out, vote, (n, bcfg.num_bins)))

    diff = t.sub(dims_pred, t.data(inputs["dims3d"]))
    terms = {"dims": t.mean(t.rowsum(t.mul(diff, diff)))}

    # Every (sin, cos) pair at unit length: (n, 2 * num_bins).
    unit_pairs = t.rownorm(head_out, group=2)
    dots = t.rowsum(t.cmul(unit_pairs, inputs["target"]), group=2)  # (n, B)
    per_bin = t.cmul(t.cadd(t.cmul(dots, -1.0), 1.0), include_mask)
    terms["orientation"] = t.mean(t.rowsum(per_bin))
    loss = t.add(terms["dims"], terms["orientation"])

    if cfg.use_consistency_loss:
        # Columns are picked by products with constants holding zeros, which
        # add exactly +-0; each row sum has at most two nonzero terms, or runs
        # left to right over fewer than eight bins, so the arithmetic is that
        # of one scalar chain per bin.
        span_pred = t.rowsum(t.cmul(dims_pred, inputs["abs_trig"]))  # w1 |sin| + l1 |cos|
        implied = t.rowsum(t.cmul(dims_pred, inputs["aspect_h1"]))  # (w / h) h1
        resid_d = t.sub(span_pred, implied)
        cons = t.mean(t.mul(resid_d, resid_d))

        # Rotate each unit pair by its bin offset to the global (sin, cos),
        # then sum the kept bins.
        rot_sin = [v for o in bcfg.offsets for v in (math.cos(o), math.sin(o))]
        rot_cos = [v for o in bcfg.offsets for v in (-math.sin(o), math.cos(o))]
        global_sin = t.rowsum(t.cmul(unit_pairs, rot_sin), group=2)
        global_cos = t.rowsum(t.cmul(unit_pairs, rot_cos), group=2)
        s_sum = t.rowsum(t.cmul(global_sin, include_mask))
        c_sum = t.rowsum(t.cmul(global_cos, include_mask))
        direction = t.absval(t.rownorm(t.concat([s_sum, c_sum])))
        span_true = t.rowsum(t.cmul(direction, inputs["w1_l1"]))
        resid_o = t.cadd(span_true, inputs["neg_aspect_h1"])
        cons = t.add(cons, t.mean(t.mul(resid_o, resid_o)))
        terms["consistency"] = t.cmul(cons, cfg.consistency_weight)
        loss = t.add(loss, terms["consistency"])
    return LossGraph(t, loss, terms, param_nodes, write_inputs, include_mask, grad)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

# Steps of batch indices that train draws in one call.  A block of them is
# the per-step draws, bit for bit: the generator hands out the same stream.
_INDEX_BLOCK = 1024


@dataclass
class TrainLogRow:
    step: int
    lr: float
    total: float
    dims: float
    orientation: float
    consistency: float


@dataclass
class TrainResult:
    model: OrientationNet
    log: list[TrainLogRow]


# The loss and gradient checks catch every non-finite value, so NumPy's
# warnings on the way there would only repeat them.
@np.errstate(all="ignore")
def train(samples, cfg: ModelConfig) -> TrainResult:
    """Train a freshly initialized model on the given samples, at their
    context width.

    Fully deterministic for a fixed config and sample order: parameter
    initialization, batch sampling, and every update derive from
    ``cfg.seed``.  Batch indices are drawn ``_INDEX_BLOCK`` steps at a
    time, which gives the indices of one draw per step.  The loss graph is
    recorded on the first step and replayed on every later one, each
    batch written into its inputs in place and each parameter gradient
    landing in the graph's flat ``grad``, laid out like ``model.params``,
    so one SGD step updates them all; the results are those of a new graph
    and a new backward pass per step, bit for bit.

    Raises:
        TrainingDivergedError: as soon as any loss term or any gradient
            entry goes non-finite.
    """
    data = make_batch(samples)
    model = build_model(cfg, data.context.shape[1])
    velocity = np.zeros_like(model.params)
    rng = np.random.default_rng([cfg.seed, 1])
    log: list[TrainLogRow] = []
    lg = None
    total_steps = cfg.total_steps()
    for step in range(total_steps):
        if step % _INDEX_BLOCK == 0:
            block = rng.integers(0, len(data), size=(min(_INDEX_BLOCK, total_steps - step),
                                                    cfg.batch_size))
        lg = build_loss_graph(model, data.take(block[step % _INDEX_BLOCK]), replay=lg)
        vals = lg.term_values()
        row = TrainLogRow(
            step=step,
            lr=cfg.lr_at(step),
            total=sum(vals.values()),
            dims=vals.get("dims", 0.0),
            orientation=vals.get("orientation", 0.0),
            consistency=vals.get("consistency", 0.0),
        )
        if not math.isfinite(row.total):
            raise TrainingDivergedError(step, vals)
        lg.tape.backward(lg.loss)
        # Gradients can overflow a step before the logged loss does.
        if not np.all(np.isfinite(lg.grad)):
            grads = _named_arrays(_carve(lg.grad, cfg, model.context_width))
            bad = [name for name, g in grads if not np.isfinite(g).all()]
            raise TrainingDivergedError(step, vals, (bad, len(grads)))
        sgd_step(model.params, lg.grad, velocity, row.lr, cfg.momentum)
        log.append(row)
    return TrainResult(model, log)


def evaluate_model(model: OrientationNet, samples) -> dict:
    """Held-out metrics: validation loss (dims + orientation only) and MAE.

    Consistency terms are a training-time device and are not included in
    reported validation losses.  Samples whose decoded orientation is
    undefined (degenerate pairs or a cancelling aggregate) are skipped for
    the angular metrics and counted in ``n_undefined``.
    """
    cfg = model.cfg
    batch = make_batch(samples)
    dims_pred, bin_out = forward_batch(model, batch)
    dec = decode_bins(bin_out, cfg)
    n = len(batch)
    ok = ~dec.degenerate.any(axis=1)
    pairs = bin_out.reshape(n, cfg.num_bins, 2)[ok]
    unit = pairs / np.hypot(pairs[..., 0], pairs[..., 1])[..., None]
    res = batch.theta[ok, None] - _bin_offsets(cfg.num_bins)
    per_bin = np.maximum(1.0 - np.sin(res) * unit[..., 0] - np.cos(res) * unit[..., 1], 0.0)
    orient_ps = (per_bin * dec.include[ok]).sum(axis=1)
    dims_ps = ((dims_pred - batch.dims3d) ** 2).sum(axis=1)
    err = np.abs(wrap_angle(dec.theta - batch.theta))[dec.defined]
    n_def = int(dec.defined.sum())
    return {
        "loss": float((dims_ps[ok] + orient_ps).mean()) if ok.any() else float("nan"),
        "dims_loss": float(dims_ps.mean()),
        "orientation_loss": float(orient_ps.mean()) if ok.any() else float("nan"),
        "mae_deg": float(np.degrees(err).mean()) if n_def else float("nan"),
        "n": n,
        "n_undefined": n - n_def,
    }


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def sweep_2d_width(model: OrientationNet, sample: TrainingSample,
                   factors=None) -> list[ForwardResult]:
    """Scale the sample's 2D box width by each factor and re-predict: one
    result per factor, in factor order.  The factors run as one batch, so
    the row at factor 1.0 gives :func:`predict_orientation`'s yaw to within
    1e-12 rad, not bit for bit (see :func:`forward_batch`)."""
    factors = np.asarray(DEFAULT_SWEEP_FACTORS if factors is None else factors, dtype=float)
    batch = make_batch([sample]).take(np.zeros(len(factors), dtype=int))
    widths = batch.dims2d[:, 1]
    with np.errstate(all="ignore"):
        widths *= factors
        outputs = forward_batch(model, batch)
    _check_sweep("2D width", sample.dims2d.w, widths, factors, outputs[1], positive=True)
    return _forward_rows(model, *outputs)


def sweep_3d_height(model: OrientationNet, sample: TrainingSample,
                    factors=None) -> list[ForwardResult]:
    """Scale the 3D height flowing into the dimension feedforward link:
    one result per factor, in factor order.

    The scaling applies to the processor's input, the predicted height,
    not to the sample's ground truth.  The factors run as one batch, as in
    :func:`sweep_2d_width`.
    """
    factors = np.asarray(DEFAULT_SWEEP_FACTORS if factors is None else factors, dtype=float)
    batch = make_batch([sample]).take(np.zeros(len(factors), dtype=int))
    with np.errstate(all="ignore"):
        dims_pred, bin_out = forward_batch(model, batch, h1_feed_scale=factors)
        fed = dims_pred[:, 0] * factors
    _check_sweep("fed 3D height", dims_pred[:, 0], fed, factors, bin_out)
    return _forward_rows(model, dims_pred, bin_out)


def _check_sweep(what: str, base, swept, factors, bin_out, positive: bool = False) -> None:
    """Raise ValueError naming the first factor that scales ``what`` from
    ``base`` to ``swept`` not finite (with ``positive``, not > 0 either), or
    whose head outputs overflow; the sweeps compute these without warnings."""
    ok = np.isfinite(swept) & ((swept > 0) | (not positive))
    bad = np.flatnonzero(~(ok & np.isfinite(bin_out).all(axis=1)))
    if bad.size:
        i = bad[0]
        why = ("where the network's outputs overflow" if ok[i]
               else "not finite and > 0" if positive else "not finite")
        raise ValueError(f"factor {float(factors[i])!r} scales the {what}"
                         f" {float(np.broadcast_to(base, swept.shape)[i])!r}"
                         f" to {float(swept[i])!r}, {why}")


def analytic_selector_curve(sample: TrainingSample, factors=None,
                            baseline_theta: float | None = None) -> list[float]:
    """Geometry-only counterpart of a sweep.

    Scaling either the 2D width or the fed 3D height by f scales the
    implied span linearly, so one curve serves both sweeps: at each factor
    the implied span is rescaled, candidates are recovered analytically,
    and the candidate circularly closest to the baseline yaw is selected.
    Factors with no candidates yield NaN.
    """
    factors = DEFAULT_SWEEP_FACTORS if factors is None else factors
    base = sample.theta if baseline_theta is None else baseline_theta
    t0 = implied_width_span(sample.dims2d, sample.dims3d.h1)
    out = []
    for f in factors:
        res = candidates_for_span(sample.dims3d, t0 * float(f))
        if not res.candidates:
            out.append(float("nan"))
            continue
        out.append(min(res.candidates, key=lambda cand: circ_abs_diff(cand, base)))
    return out


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_CHECKPOINT_VERSION = 1


def save_model(model: OrientationNet, path) -> None:
    """Write a checkpoint: a versioned npz of config JSON plus raw arrays.

    Arrays are stored as float64 without any rounding, so load(save(m))
    reproduces the model bit-exactly.
    """
    meta = {"format_version": _CHECKPOINT_VERSION, "config": config.snapshot(model.cfg)}
    arrays = {name.replace(".", "__"): arr for name, arr in named_parameters(model)}
    np.savez(path, __meta__=np.array(json.dumps(meta, sort_keys=True)), **arrays)


def load_model(path) -> OrientationNet:
    """Load a checkpoint written by :func:`save_model`.  Raises ValueError,
    naming the file, on a file that is not an uncorrupted npz archive, a
    missing or non-object ``__meta__`` entry, an unknown version, a config
    that does not name every ModelConfig field exactly once, or a missing,
    unexpected, mis-shaped or non-finite parameter array.  The context
    width is the column count of the stored ``encoder__0__weights``."""
    try:
        with np.load(path, allow_pickle=False) as data:
            return _load_arrays(data)
    except (ValueError, EOFError, zipfile.BadZipFile) as e:
        raise ValueError(f"checkpoint {path}: {e}") from None


def _load_arrays(data) -> OrientationNet:
    if "__meta__" not in data.files:
        raise ValueError("no __meta__ entry")
    meta = json.loads(str(data["__meta__"][()]))
    if not isinstance(meta, dict):
        raise ValueError(f"__meta__ is not a JSON object: {meta!r}")
    if meta.get("format_version") != _CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {meta.get('format_version')}")
    cfg = config.from_mapping(ModelConfig, meta.get("config"))
    if "encoder__0__weights" not in data.files:
        raise ValueError("missing array encoder.0.weights, which sets the context width")
    shape = data["encoder__0__weights"].shape
    if len(shape) != 2:
        raise ValueError(f"array encoder.0.weights has shape {shape}, not (out, in)")
    model = build_model(cfg, shape[1])
    params = dict(named_parameters(model))
    stored = {key.replace("__", "."): key for key in data.files if key != "__meta__"}
    if stored.keys() != params.keys():
        raise ValueError(f"missing arrays {sorted(params.keys() - stored.keys())},"
                         f" unexpected arrays {sorted(stored.keys() - params.keys())}")
    for name, arr in params.items():
        value = data[stored[name]].astype(float)
        if value.shape != arr.shape:
            raise ValueError(f"array {name} has shape {value.shape}, not {arr.shape}")
        if not np.all(np.isfinite(value)):
            raise ValueError(f"array {name} is not finite")
        arr[...] = value
    return model


# ---------------------------------------------------------------------------
# Gradient checking over the full graph
# ---------------------------------------------------------------------------


def model_gradient_check(model: OrientationNet, batch: Batch,
                         eps: float = 1e-5,
                         max_entries_per_param: int | None = 25,
                         seed: int = 0):
    """Finite-difference check of the complete training graph.

    The graph is built once and differentiated once.  Each difference
    quotient reruns every node of its tape but the value-only ones, which
    keep their unperturbed values: the exclusion vote (so the loss stays
    smooth under perturbation) and the fed 3D dimensions behind the
    stop-gradient.  Backward holds exactly these constant, so the quotient
    measures the derivative that training backpropagates.
    """
    lg = build_loss_graph(model, batch)
    grads_by_node = lg.tape.backward(lg.loss)
    grads = {name: grads_by_node.get(nid, np.zeros_like(arr))
             for name, nid, arr in lg.param_nodes}
    params = [(name, arr) for name, _, arr in lg.param_nodes]
    runs = [node.run for node in lg.tape.nodes
            if node.run is not None and node.op != "value_only"]

    def loss_fn() -> float:
        for run in runs:
            run()
        return lg.loss_value()

    return finite_diff_check(params, loss_fn, grads, eps=eps,
                             max_entries_per_param=max_entries_per_param,
                             seed=seed)
