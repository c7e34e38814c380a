"""A small autodiff engine: a gradient tape, momentum SGD, and a
finite-difference gradient checker.

Everything is float64 numpy.  Values flowing through a :class:`Tape` are
2-D arrays shaped (batch, width); a leaf may also be a weight matrix
(out, in) or a 1-D bias.  Backpropagation is reverse-mode over an
explicit node list, so gradients are exact and reproducible, and a
value-only node, such as a ``stop_gradient`` copy, takes no gradient,
which cuts every path through it.  A tape is recorded once and can be
replayed: new leaf data in, every node value overwritten in place.  A
backward walk is bound once per output, and the gradient arrays it
writes are valid until the next backward.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


def _grouped(xv: np.ndarray, group: int | None) -> np.ndarray:
    """View (n, k * group) as (n, k, group); ``group=None`` is the whole row."""
    width = xv.shape[1] if group is None else group
    if width < 1 or xv.shape[1] % width:
        raise ValueError(f"cannot split width {xv.shape[1]} into groups of {width}")
    return xv.reshape(xv.shape[0], -1, width)


def _same_shapes(op: str, a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op}: operand shapes {a.shape} and {b.shape} differ")


def _constant(op: str, xv: np.ndarray, const) -> np.ndarray:
    """``const`` as a float64 array, which must broadcast onto the shape of
    ``xv`` without changing it."""
    c = np.asarray(const, dtype=float)
    try:
        keeps = np.broadcast_shapes(xv.shape, c.shape) == xv.shape
    except ValueError:
        keeps = False
    if not keeps:
        raise ValueError(f"{op}: a constant of shape {c.shape} does not keep"
                         f" the operand's shape {xv.shape}")
    return c


@dataclass(eq=False, slots=True)
class TapeNode:
    """One recorded operation: its kind, its value array, its parents, the
    function that recomputes the value in place from the parents' values,
    and the function that writes the parents' gradients for a node
    gradient.  ``needs_grad`` is False for data leaves, value-only nodes
    and nodes that depend on no leaf taking a gradient."""

    op: str
    value: np.ndarray
    parents: tuple[int, ...] = ()
    run: Callable[[], None] | None = None
    grad_fn: Callable | None = None
    needs_grad: bool = True
    grad: np.ndarray | None = None  # where a leaf's gradient lands, if given


class Tape:
    """Computation graph over (batch, width) float64 arrays, recorded once
    and replayable.

    Methods push a node and return its integer id.  Each op allocates its
    value array and computes it by running its in-place forward function
    once; :meth:`replay` runs every forward function again, in recording
    order.  Leaves, and the constants of ``cmul`` / ``cadd``, are held by
    reference, so writing new data into them (or updating a parameter in
    place) and replaying recomputes the graph.  A replay overwrites every
    node value: a value read from the tape is valid until the next replay.

    :meth:`backward` walks the node list in reverse, a walk bound once per
    output, and writes each gradient into its own array, valid until the
    next backward.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self._runs: list[Callable[[], None]] = []
        self._walks: dict[int, tuple[list, dict[int, np.ndarray]]] = {}

    def _push(self, node: TapeNode) -> int:
        if node.run is not None:
            node.run()
            self._runs.append(node.run)
        self.nodes.append(node)
        return len(self.nodes) - 1

    def _op(self, op: str, value: np.ndarray, parents: tuple[int, ...], run, grad_fn) -> int:
        needs = any(self.nodes[p].needs_grad for p in parents)
        return self._push(TapeNode(op, value, parents, run, grad_fn, needs_grad=needs))

    def value(self, nid: int) -> np.ndarray:
        return self.nodes[nid].value

    def leaf(self, value, grad: np.ndarray | None = None) -> int:
        """A leaf that takes a gradient, such as a parameter.  A C-ordered
        float64 array is held by reference, not copied; its gradient lands
        in ``grad``, shaped like it, if given, else in the tape's own array."""
        v = np.asarray(value, dtype=float, order="C")
        if grad is not None and grad.shape != v.shape:
            raise ValueError(f"leaf: gradient shape {grad.shape} is not the value's {v.shape}")
        return self._push(TapeNode("leaf", v, grad=grad))

    def data(self, value) -> int:
        """A leaf of input data: held like :meth:`leaf`, but it takes no
        gradient, so no op computes one for it."""
        v = np.asarray(value, dtype=float, order="C")
        return self._push(TapeNode("data", v, needs_grad=False))

    def stop_gradient(self, x: int) -> int:
        """A value-only copy of ``x``: it takes no gradient, so none
        reaches ``x`` through it."""
        return self.value_only(x, lambda v: v, self.nodes[x].value.shape)

    def value_only(self, x: int, fn: Callable[[np.ndarray], np.ndarray], shape) -> int:
        """A node of the given shape whose value is ``fn(value of x)``,
        recomputed on replay; it takes and passes no gradient."""
        xv = self.nodes[x].value
        val = np.empty(shape)

        def run():
            np.copyto(val, fn(xv))

        return self._push(TapeNode("value_only", val, (x,), run, needs_grad=False))

    def affine(self, x: int, w: int, b: int) -> int:
        xv, wv, bv = self.nodes[x].value, self.nodes[w].value, self.nodes[b].value
        wt = wv.T
        val = np.empty((xv.shape[0], wv.shape[0]))

        def run():
            np.matmul(xv, wt, out=val)
            np.add(val, bv, out=val)

        def grad(g, gx, gw, gb):
            if gx is not None:
                np.matmul(g, wv, out=gx)
            if gw is not None:
                np.matmul(g.T, xv, out=gw)
            if gb is not None:
                np.add.reduce(g, axis=0, out=gb)

        return self._op("affine", val, (x, w, b), run, grad)

    def relu(self, x: int) -> int:
        xv = self.nodes[x].value
        val = np.empty(xv.shape)

        def run():
            np.maximum(xv, 0.0, out=val)

        def grad(g, gx):
            np.multiply(g, xv > 0.0, out=gx)

        return self._op("relu", val, (x,), run, grad)

    def concat(self, xs: list[int]) -> int:
        vals = [self.nodes[i].value for i in xs]
        bounds = [0, *itertools.accumulate(v.shape[1] for v in vals)]
        val = np.empty((vals[0].shape[0], bounds[-1]))

        def run():
            np.concatenate(vals, axis=1, out=val)

        def grad(g, *gxs):
            for gx, lo, hi in zip(gxs, bounds, bounds[1:]):
                if gx is not None:
                    np.copyto(gx, g[:, lo:hi])

        return self._op("concat", val, tuple(xs), run, grad)

    def add(self, a: int, b: int) -> int:
        av, bv = self.nodes[a].value, self.nodes[b].value
        _same_shapes("add", av, bv)
        val = np.empty(av.shape)

        def run():
            np.add(av, bv, out=val)

        def grad(g, ga, gb):
            for gx in (ga, gb):
                if gx is not None:
                    np.copyto(gx, g)

        return self._op("add", val, (a, b), run, grad)

    def sub(self, a: int, b: int) -> int:
        av, bv = self.nodes[a].value, self.nodes[b].value
        _same_shapes("sub", av, bv)
        val = np.empty(av.shape)

        def run():
            np.subtract(av, bv, out=val)

        def grad(g, ga, gb):
            if ga is not None:
                np.copyto(ga, g)
            if gb is not None:
                np.negative(g, out=gb)

        return self._op("sub", val, (a, b), run, grad)

    def mul(self, a: int, b: int) -> int:
        av, bv = self.nodes[a].value, self.nodes[b].value
        _same_shapes("mul", av, bv)
        val = np.empty(av.shape)

        def run():
            np.multiply(av, bv, out=val)

        def grad(g, ga, gb):
            if ga is not None:
                np.multiply(g, bv, out=ga)
            if gb is not None:
                np.multiply(g, av, out=gb)

        return self._op("mul", val, (a, b), run, grad)

    def cmul(self, x: int, const) -> int:
        xv = self.nodes[x].value
        c = _constant("cmul", xv, const)
        val = np.empty(xv.shape)

        def run():
            np.multiply(xv, c, out=val)

        def grad(g, gx):
            np.multiply(g, c, out=gx)

        return self._op("cmul", val, (x,), run, grad)

    def cadd(self, x: int, const) -> int:
        xv = self.nodes[x].value
        c = _constant("cadd", xv, const)
        val = np.empty(xv.shape)

        def run():
            np.add(xv, c, out=val)

        def grad(g, gx):
            np.copyto(gx, g)

        return self._op("cadd", val, (x,), run, grad)

    def absval(self, x: int) -> int:
        xv = self.nodes[x].value
        val = np.empty(xv.shape)

        def run():
            np.abs(xv, out=val)

        def grad(g, gx):
            np.multiply(g, np.sign(xv), out=gx)

        return self._op("absval", val, (x,), run, grad)

    def rownorm(self, x: int, group: int | None = None) -> int:
        """Normalize each row to unit L2 length, with a floor: y = x / max(|x|, 1e-12).

        Below the floor the map is linear (x / 1e-12), so the gradient stays
        bounded near the origin.  With ``group`` set, each run of ``group``
        consecutive columns is normalized on its own instead of the row.
        """
        xv = _grouped(self.nodes[x].value, group)
        squares = np.empty(xv.shape)
        n = np.empty((*xv.shape[:2], 1))
        d = np.empty(n.shape)
        val = np.empty(self.nodes[x].value.shape)
        grouped_val = val.reshape(xv.shape)

        def run():
            np.multiply(xv, xv, out=squares)
            np.add.reduce(squares, axis=2, keepdims=True, out=n)
            np.sqrt(n, out=n)
            np.maximum(n, 1e-12, out=d)
            np.divide(xv, d, out=grouped_val)

        def grad(g, gx):
            g = g.reshape(xv.shape)
            dot = np.add.reduce(xv * g, axis=2, keepdims=True)
            np.subtract(g / d, (n > 1e-12) * xv * dot / d**3, out=gx.reshape(xv.shape))

        return self._op("rownorm", val, (x,), run, grad)

    def rowsum(self, x: int, group: int | None = None) -> int:
        """Sum each row to width 1, or with ``group`` set, each run of
        ``group`` consecutive columns to one column."""
        xv = _grouped(self.nodes[x].value, group)
        val = np.empty(xv.shape[:2])

        def run():
            np.add.reduce(xv, axis=2, out=val)

        def grad(g, gx):
            np.copyto(gx.reshape(xv.shape), g[:, :, None])

        return self._op("rowsum", val, (x,), run, grad)

    def mean(self, x: int) -> int:
        xv = self.nodes[x].value
        val = np.empty((1, 1))

        def run():
            val[0, 0] = np.add.reduce(xv, axis=None) / xv.size

        def grad(g, gx):
            gx.fill(g[0, 0] / xv.size)

        return self._op("mean", val, (x,), run, grad)

    def replay(self) -> None:
        """Recompute every node value in place, in recording order, from the
        current contents of the leaves and constants."""
        for run in self._runs:
            run()

    def backward(self, output: int) -> dict[int, np.ndarray]:
        """Reverse-mode gradients of node ``output`` w.r.t. every node that
        depends on a leaf taking a gradient and reaches the output; the
        output's own gradient is 1.

        Data leaves and value-only nodes receive none, so nothing flows
        upstream through them.  Returns {node_id: gradient array}; other
        nodes are absent.  A node with several consumers
        accumulates their contributions in decreasing order of consumer
        id, parents in argument order, by plain addition.  Each call for
        one output returns the same dict; treat its arrays as read-only.
        """
        walk = self._walks.get(output)
        if walk is None:
            if not 0 <= output < len(self.nodes):
                raise ValueError(f"no node {output} on this tape")
            walk = self._walks[output] = self._bind(output)
        steps, grads = walk
        grads[output].fill(1.0)
        for grad_fn, g, outs, adds in steps:
            grad_fn(g, *outs)
            for total, part in adds:
                np.add(total, part, out=total)
        return grads

    def _bind(self, output: int):
        """Lay out one backward walk from ``output``.

        Returns (steps, grads): ``grads`` maps each node that receives a
        gradient to its array, a leaf's own or new; each step is
        (grad_fn, the node's gradient, one destination per parent or None
        where the parent takes no gradient, (total, part) pairs to add
        afterwards).  A parent's first contribution is written into its
        gradient array, each later one into a spare array added on.
        """
        nodes = self.nodes

        def array(nid):
            a = nodes[nid].grad
            return np.empty(nodes[nid].value.shape) if a is None else a

        grads = {output: array(output)}
        steps = []
        for nid in range(output, -1, -1):
            node = nodes[nid]
            g = grads.get(nid)
            if g is None or node.grad_fn is None:
                continue
            outs, adds = [], []
            for pid in node.parents:
                if not nodes[pid].needs_grad:
                    outs.append(None)
                elif pid in grads:
                    part = np.empty(nodes[pid].value.shape)
                    outs.append(part)
                    adds.append((grads[pid], part))
                else:
                    grads[pid] = array(pid)
                    outs.append(grads[pid])
            if any(o is not None for o in outs):
                steps.append((node.grad_fn, g, tuple(outs), tuple(adds)))
        return steps, grads


def sgd_step(param: np.ndarray, grad: np.ndarray, velocity: np.ndarray,
             lr: float, momentum: float = 0.0) -> None:
    """Classical momentum SGD, updating ``param`` and ``velocity`` in place.

    v <- momentum * v + g;  p <- p - lr * v.  A zero gradient with zero
    velocity leaves the parameters bit-identical.
    """
    velocity *= momentum
    velocity += grad
    param -= lr * velocity


# A gradient check passes when its largest relative error is below this.
GRADCHECK_THRESHOLD = 1e-4
# A central difference across a ReLU kink errs less at a smaller step, a wrong
# gradient does not: an error at the threshold or above is measured again at a
# tenth of the step, and must then fall below the threshold and tenfold.
GRADCHECK_STEPS = (1e-5, 1e-6)


@dataclass
class GradCheckReport:
    """Outcome of a finite-difference gradient check."""

    max_rel_error: float
    per_param: list[tuple[str, float]] = field(default_factory=list)

    def passed(self) -> bool:
        return self.max_rel_error < GRADCHECK_THRESHOLD


def check_at_steps(check) -> tuple[list[GradCheckReport], bool]:
    """The reports of ``check(eps)`` at GRADCHECK_STEPS up to the first that
    passes, and whether the check passes by the rule above."""
    reports = []
    for eps in GRADCHECK_STEPS:
        reports.append(check(eps))
        if reports[-1].passed():
            break
    first, last = reports[0].max_rel_error, reports[-1].max_rel_error
    return reports, last < GRADCHECK_THRESHOLD and last <= first / 10 ** (len(reports) - 1)


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
