"""A small dense-network engine: layers, a gradient tape, SGD, checking.

Everything is float64 numpy.  Values flowing through a :class:`Tape` are
2-D arrays shaped (batch, width); parameters are 2-D weight matrices
(out, in) and 1-D biases.  Backpropagation is reverse-mode over an
explicit node list, so gradients are exact and reproducible, and a
``stop_gradient`` node cuts every path through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

ACTIVATIONS = ("linear", "relu")


class NonFiniteGradientError(RuntimeError):
    """A gradient or parameter update contained NaN or infinity."""


@dataclass(frozen=True)
class LayerSpec:
    """Shape and activation of one dense layer."""

    in_width: int
    out_width: int
    activation: str = "linear"

    def __post_init__(self):
        if self.in_width < 1 or self.out_width < 1:
            raise ValueError(f"layer widths must be >= 1, got {self}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass(eq=False)
class DenseLayer:
    """Parameters of one dense layer: weights (out, in) and bias (out,)."""

    weights: np.ndarray
    bias: np.ndarray
    activation: str = "linear"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ValueError(
                f"shape mismatch: weights {self.weights.shape}, bias {self.bias.shape}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ValueError("parameters must be finite")


def init_params(spec: LayerSpec, seed) -> DenseLayer:
    """Seeded uniform initialization matched to the activation.

    ReLU layers use He-uniform (limit sqrt(6 / in)); linear layers use
    Xavier-uniform (limit sqrt(6 / (in + out))).  Biases start at zero.
    """
    rng = np.random.default_rng(seed)
    if spec.activation == "relu":
        limit = math.sqrt(6.0 / spec.in_width)
    else:
        limit = math.sqrt(6.0 / (spec.in_width + spec.out_width))
    w = rng.uniform(-limit, limit, size=(spec.out_width, spec.in_width))
    b = np.zeros(spec.out_width)
    return DenseLayer(w, b, spec.activation)


def dense_forward(layer: DenseLayer, x, activation: str | None = None) -> np.ndarray:
    """Apply one dense layer to a vector or a (batch, in) matrix."""
    act = layer.activation if activation is None else activation
    if act not in ACTIVATIONS:
        raise ValueError(f"unknown activation {act!r}")
    x = np.asarray(x, dtype=float)
    y = x @ layer.weights.T + layer.bias
    if act == "relu":
        y = np.maximum(y, 0.0)
    return y


def _grouped(xv: np.ndarray, group: int | None) -> np.ndarray:
    """View (n, k * group) as (n, k, group); ``group=None`` is the whole row."""
    width = xv.shape[1] if group is None else group
    if width < 1 or xv.shape[1] % width:
        raise ValueError(f"cannot split width {xv.shape[1]} into groups of {width}")
    return xv.reshape(xv.shape[0], -1, width)


@dataclass(eq=False, slots=True)
class TapeNode:
    """One recorded operation: its kind, cached value, parents, and the
    function mapping the node's gradient to per-parent gradients."""

    op: str
    value: np.ndarray
    parents: tuple[int, ...] = ()
    grad_fn: Callable | None = None
    stop_gradient: bool = False


class Tape:
    """Define-by-run computation graph over (batch, width) float64 arrays.

    Methods push a node and return its integer id; :meth:`backward` walks
    the node list in reverse, accumulating gradients.  Node values are
    treated as immutable once pushed.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []

    def _push(self, node: TapeNode) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def value(self, nid: int) -> np.ndarray:
        return self.nodes[nid].value

    def leaf(self, value, *, op: str = "leaf") -> int:
        v = np.asarray(value, dtype=float)
        return self._push(TapeNode(op, v))

    def stop_gradient(self, x: int) -> int:
        return self._push(
            TapeNode("stop_gradient", self.nodes[x].value, (x,), None, True)
        )

    def affine(self, x: int, w: int, b: int) -> int:
        xv, wv, bv = self.nodes[x].value, self.nodes[w].value, self.nodes[b].value
        val = xv @ wv.T + bv

        def grad(g, xv=xv, wv=wv):
            return (g @ wv, g.T @ xv, g.sum(axis=0))

        return self._push(TapeNode("affine", val, (x, w, b), grad))

    def relu(self, x: int) -> int:
        xv = self.nodes[x].value
        val = np.maximum(xv, 0.0)

        def grad(g, xv=xv):
            return (g * (xv > 0.0),)

        return self._push(TapeNode("relu", val, (x,), grad))

    def concat(self, xs: list[int]) -> int:
        vals = [self.nodes[i].value for i in xs]
        widths = [v.shape[1] for v in vals]
        val = np.concatenate(vals, axis=1)

        def grad(g, widths=tuple(widths)):
            out, pos = [], 0
            for w in widths:
                out.append(g[:, pos:pos + w])
                pos += w
            return tuple(out)

        return self._push(TapeNode("concat", val, tuple(xs), grad))

    def add(self, a: int, b: int) -> int:
        val = self.nodes[a].value + self.nodes[b].value
        return self._push(TapeNode("add", val, (a, b), lambda g: (g, g)))

    def sub(self, a: int, b: int) -> int:
        val = self.nodes[a].value - self.nodes[b].value
        return self._push(TapeNode("sub", val, (a, b), lambda g: (g, -g)))

    def mul(self, a: int, b: int) -> int:
        av, bv = self.nodes[a].value, self.nodes[b].value
        val = av * bv

        def grad(g, av=av, bv=bv):
            return (g * bv, g * av)

        return self._push(TapeNode("mul", val, (a, b), grad))

    def cmul(self, x: int, const) -> int:
        c = np.asarray(const, dtype=float)
        val = self.nodes[x].value * c

        def grad(g, c=c):
            return (g * c,)

        return self._push(TapeNode("cmul", val, (x,), grad))

    def cadd(self, x: int, const) -> int:
        c = np.asarray(const, dtype=float)
        val = self.nodes[x].value + c
        return self._push(TapeNode("cadd", val, (x,), lambda g: (g,)))

    def absval(self, x: int) -> int:
        xv = self.nodes[x].value
        val = np.abs(xv)

        def grad(g, xv=xv):
            return (g * np.sign(xv),)

        return self._push(TapeNode("absval", val, (x,), grad))

    def rownorm(self, x: int, eps: float = 1e-12, group: int | None = None) -> int:
        """Normalize each row to unit L2 length, with a floor: y = x / max(|x|, eps).

        Below the floor the map is linear (x / eps), so the gradient stays
        bounded near the origin.  With ``group`` set, each run of ``group``
        consecutive columns is normalized on its own instead of the row.
        """
        xv = _grouped(self.nodes[x].value, group)
        n = np.sqrt((xv * xv).sum(axis=2, keepdims=True))
        d = np.maximum(n, eps)
        val = (xv / d).reshape(xv.shape[0], -1)

        def grad(g, xv=xv, n=n, d=d):
            g = g.reshape(xv.shape)
            dot = (xv * g).sum(axis=2, keepdims=True)
            return ((g / d - (n > eps) * xv * dot / d**3).reshape(xv.shape[0], -1),)

        return self._push(TapeNode("rownorm", val, (x,), grad))

    def rowsum(self, x: int, group: int | None = None) -> int:
        """Sum each row to width 1, or with ``group`` set, each run of
        ``group`` consecutive columns to one column."""
        xv = _grouped(self.nodes[x].value, group)
        val = xv.sum(axis=2)

        def grad(g, width=xv.shape[2]):
            return (np.repeat(g, width, axis=1),)

        return self._push(TapeNode("rowsum", val, (x,), grad))

    def mean(self, x: int) -> int:
        xv = self.nodes[x].value
        val = np.array([[xv.mean()]])

        def grad(g, shape=xv.shape, size=xv.size):
            return (np.full(shape, g[0, 0] / size),)

        return self._push(TapeNode("mean", val, (x,), grad))

    def backward(self, output: int, upstream: float = 1.0) -> dict[int, np.ndarray]:
        """Reverse-mode gradients of node ``output`` w.r.t. every reachable node.

        Nodes flagged ``stop_gradient`` receive a gradient but pass nothing
        upstream.  Returns {node_id: gradient array}; nodes with no path to
        the output are absent.  Treat the gradient arrays as read-only, like
        node values: several entries may share one array.
        """
        if not self.nodes:
            raise ValueError("backward called on an empty tape")
        if not (0 <= output < len(self.nodes)):
            raise ValueError(f"no node {output} on this tape")
        grads: dict[int, np.ndarray] = {
            output: np.full_like(self.nodes[output].value, float(upstream))
        }
        for nid in range(output, -1, -1):
            g = grads.get(nid)
            node = self.nodes[nid]
            if g is None or node.stop_gradient or node.grad_fn is None:
                continue
            for pid, pg in zip(node.parents, node.grad_fn(g)):
                if pg is None:
                    continue
                grads[pid] = grads[pid] + pg if pid in grads else pg
        return grads


def sgd_step(params, grads, velocities, lr: float, momentum: float = 0.0) -> None:
    """Classical momentum SGD, updating params and velocities in place.

    v <- momentum * v + g;  p <- p - lr * v.  All three sequences are
    index-aligned.  Zero gradients with zero velocity leave parameters
    bit-identical.

    Raises:
        NonFiniteGradientError: if any gradient entry is NaN or infinite.
    """
    if len(params) != len(grads) or len(params) != len(velocities):
        raise ValueError("params, grads, velocities must be the same length")
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError("non-finite gradient in sgd_step")
    for p, g, v in zip(params, grads, velocities):
        v *= momentum
        v += g
        p -= lr * v


@dataclass
class GradCheckReport:
    """Outcome of a finite-difference gradient check."""

    max_rel_error: float
    per_param: list[tuple[str, float]] = field(default_factory=list)

    def passed(self, threshold: float = 1e-4) -> bool:
        return self.max_rel_error < threshold


def finite_diff_check(
    params,
    loss_fn,
    grads,
    eps: float = 1e-5,
    max_entries_per_param: int | None = None,
    seed: int = 0,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Args:
        params: list of (name, array) pairs; arrays are perturbed in place
            and restored.
        loss_fn: zero-argument callable returning the scalar loss for the
            current parameter values.
        grads: {name: gradient array} produced analytically beforehand.
        eps: central-difference step.
        max_entries_per_param: if set, check at most this many randomly
            chosen entries per array (seeded); otherwise check every entry.

    Returns:
        GradCheckReport with the worst relative error overall and per array.
        Relative error uses max(|fd|, |analytic|, 1e-6) in the denominator
        so exactly-zero gradients compare cleanly.
    """
    rng = np.random.default_rng(seed)
    per_param: list[tuple[str, float]] = []
    worst = 0.0
    for name, arr in params:
        g = grads[name]
        if g.shape != arr.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        flat = arr.reshape(-1)
        gflat = np.asarray(g, dtype=float).reshape(-1)
        idx = np.arange(flat.size)
        if max_entries_per_param is not None and flat.size > max_entries_per_param:
            idx = rng.choice(flat.size, size=max_entries_per_param, replace=False)
        local = 0.0
        for i in idx:
            orig = flat[i]
            flat[i] = orig + eps
            hi = loss_fn()
            flat[i] = orig - eps
            lo = loss_fn()
            flat[i] = orig
            fd = (hi - lo) / (2.0 * eps)
            rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-6)
            local = max(local, rel)
        per_param.append((name, local))
        worst = max(worst, local)
    return GradCheckReport(worst, per_param)
