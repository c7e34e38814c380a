"""In-memory span tracing around pedorient's public functions.

The package itself is not modified: :func:`instrument` replaces each traced
function at the name its caller resolves it by (for example
``pedorient.model.sgd_step``, which ``model.train`` calls) and restores the
original on exit.  Spans stay in memory until the run writes them out.

A training step has no function of its own, so its span is synthesized:
every ``Batch.take`` inside ``model.train`` closes the previous step span
and opens the next one, and leaving ``model.train`` closes the last.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

STEP = "model.train.step"


@dataclass
class Span:
    """One timed call: perf-counter nanoseconds, the index of the enclosing
    span (-1 for a root) and the id shared by one training step or frame
    (-1 outside both)."""

    name: str
    start_ns: int
    end_ns: int
    parent: int
    trace_id: int


class Tracer:
    """Single-threaded span recorder with counters kept per phase.

    The phase of a span or counter is the name of the root span open when
    it was recorded (``setup`` or ``run`` in this benchmark).
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_id = 0

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @property
    def phase(self) -> str:
        return self.spans[self._stack[0]].name if self._stack else ""

    def top_name(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def open(self, name: str, trace_id: int | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if trace_id is None:
            trace_id = self.spans[parent].trace_id if parent >= 0 else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, trace_id))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        """Close span ``idx`` and every span still open inside it."""
        now = time.perf_counter_ns()
        while self._stack:
            top = self._stack.pop()
            self.spans[top].end_ns = now
            if top == idx:
                return

    @contextmanager
    def span(self, name: str, trace_id: int | None = None):
        idx = self.open(name, trace_id)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[(self.phase, key)] += value

    def step_boundary(self) -> None:
        """Called on entry to ``Batch.take``: start a new training step."""
        if self.top_name() == STEP:
            self.close(self._stack[-1])
        if self.top_name() == "model.train":
            self.open(STEP, self.new_id())


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its children cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping or out-of-bounds children are not counted
    twice.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        intervals = sorted(
            (max(spans[c].start_ns, s.start_ns), min(spans[c].end_ns, s.end_ns))
            for c in children[i]
        )
        covered = 0
        lo = hi = None
        for a, b in intervals:
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append(s.end_ns - s.start_ns - covered)
    return out


def root_names(spans: list[Span]) -> list[str]:
    roots: list[str] = []
    for s in spans:
        # Parents precede children, so the parent's root is already known.
        roots.append(s.name if s.parent < 0 else roots[s.parent])
    return roots


def span_table(spans: list[Span]) -> dict[str, dict[str, dict[str, float]]]:
    """{phase: {span name: {calls, busy_us, self_us}}} over all spans."""
    selfs = self_times_ns(spans)
    table: dict[str, dict[str, dict[str, float]]] = defaultdict(
        lambda: defaultdict(lambda: {"calls": 0, "busy_us": 0.0, "self_us": 0.0}))
    for s, root, self_ns in zip(spans, root_names(spans), selfs):
        row = table[root][s.name]
        row["calls"] += 1
        row["busy_us"] += (s.end_ns - s.start_ns) / 1e3
        row["self_us"] += self_ns / 1e3
    return {phase: dict(rows) for phase, rows in table.items()}


# ---------------------------------------------------------------------------
# Wrapping the package's functions
# ---------------------------------------------------------------------------


def _record_gen(t, result):
    t.count("synth.samples", len(result[0]))


def _record_graph(t, result):
    t.count("model.loss_graph.nodes", len(result.tape.nodes))


def _record_mask(t, result):
    t.count("binning.votes", result.shape[0])
    t.count("binning.votes_fired", int((~result).any(axis=1).sum()))


def _record_prediction(t, result):
    t.count("binning.votes", 1)
    t.count("binning.votes_fired", 1 if result[1].excluded else 0)


def _record_inversion(t, result):
    t.count("geometry.candidates", len(result.candidates))
    t.count("geometry.infeasible", 1 if result.infeasible else 0)


def _record_eval(t, result):
    t.count("evaluation.gts", result.n_gt)
    t.count("evaluation.matched", result.n_matched)


def _targets():
    """(owner, attribute, span name, counter) for every traced function.

    The owner is the module or class whose attribute the caller looks up
    at call time.
    """
    from pedorient import evaluation, geometry, kitti_io, model, nn_core, synth

    return [
        (synth, "gen_dataset", "synth.gen_dataset", _record_gen),
        (synth, "write_dataset", "synth.write_dataset", None),
        (synth, "read_dataset", "synth.read_dataset", None),
        (model, "train", "model.train", None),
        (model.Batch, "take", "model.Batch.take", None),
        (model, "build_loss_graph", "model.build_loss_graph", _record_graph),
        (model, "exclusion_mask_batch", "binning.exclusion_mask_batch", _record_mask),
        (nn_core.Tape, "backward", "nn_core.Tape.backward", None),
        (model, "sgd_step", "nn_core.sgd_step", None),
        (model, "evaluate_model", "model.evaluate_model", None),
        (model, "predict_orientation", "model.predict_orientation", _record_prediction),
        (model, "sweep_2d_width", "model.sweep_2d_width", None),
        (geometry, "invert_orientation_candidates",
         "geometry.invert_orientation_candidates", _record_inversion),
        (kitti_io, "serialize_labels", "kitti_io.serialize_labels", None),
        (kitti_io, "parse_label_file", "kitti_io.parse_label_file", None),
        (evaluation, "evaluate_detections", "evaluation.evaluate_detections", _record_eval),
    ]


def _wrap(tracer: Tracer, name: str, fn, record):
    step_start = name == "model.Batch.take"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if step_start:
            tracer.step_boundary()
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if record is not None:
            record(tracer, result)
        return result

    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Trace every target while the block runs; restore them afterwards."""
    saved = []
    try:
        for owner, attr, name, record in _targets():
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tracer, name, fn, record))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
