"""The benchmark's workloads: set-up, the measured loop and correctness checks.

Every workload is a closed loop with one caller in one process.  It calls
the package only through the public functions the CLI commands call, and
it derives every input of its timed loop from the workload seed.  See
README.md for why each workload exists and which metric each layer should
move.
"""

from __future__ import annotations

import dataclasses
import math
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pedorient import binning, cli, evaluation, geometry, kitti_io, model, synth

import tracing

OUT_DIR = Path(__file__).resolve().parent / "out"

# configs/desk.ini, read as `pedorient gen` and `pedorient train` read it:
# its [synth] generator, its [model] and [train] settings and its hold-out
# fraction.  The sizes, seeds and schedules are the workload's own (Scale).
_DESK_INI = cli._load_ini(Path(__file__).resolve().parents[1] / "configs" / "desk.ini")
SYNTH = cli._synth_config(_DESK_INI)
DESK = cli._model_config(_DESK_INI)
HOLDOUT_FRACTION = cli._getfloat(cli._sec(_DESK_INI, "train"), "holdout_fraction", 0.1)

# Same tolerances as the acceptance gates that own these comparisons.
ORACLE_TOL = math.radians(0.01)
GRADCHECK_THRESHOLD = 1e-4
GRADCHECK_EPS = (1e-5, 1e-6)
DECODE_RTOL = 1e-9


@dataclass(frozen=True)
class Scale:
    """Sizes of one run.  FULL is what the benchmark measures; the tests
    pass a tiny one."""

    n_samples: int = 5000
    train_schedule: tuple = ((1000, 1e-3), (500, 1e-4))
    infer_n_samples: int = 2000
    infer_schedule: tuple = ((500, 1e-3),)
    setup_repeats: int = 5
    warmup_steps: int = 20
    frames_min: int = 200
    # Pedestrians per frame, uniform: an assumption, not a measurement.
    # README.md ("Frame size") says how the metrics depend on it.
    frame_peds: tuple = (2, 10)
    throughput_block: int = 50
    loss_window: int = 200
    check_samples: int = 32
    oracle_frames: int = 2
    gradcheck_batch: int = 8
    gradcheck_entries: int = 25


FULL = Scale()


@dataclass
class Outcome:
    """What one run produced, before it is printed."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    tracer: tracing.Tracer | None = None

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"check failed: {what}", file=sys.stderr)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values, q: int) -> float:
    """Nearest-rank q-th percentile."""
    xs = sorted(values)
    return xs[max(1, -(-q * len(xs) // 100)) - 1]


def tail_percentile(values) -> tuple[float, float]:
    """(percentile, value) for p99, or p90 if fewer than ten samples lie
    beyond p99, or p50 if fewer still.

    Percentiles above p99 are not used: a run's sample count varies with
    the machine's speed, and a percentile that switched between runs would
    make the figure jump.
    """
    n = len(values)
    best = 50
    for q in (90, 99):
        if n - -(-q * n // 100) >= 10:
            best = q
    return float(best), percentile(values, best)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Machine-speed normalisation
# ---------------------------------------------------------------------------

# The VM the benchmark was tuned on runs the same code up to 1.5 times
# slower for seconds to minutes at a time, in CPU time as well as wall time
# (other tenants share the host), and the slowdown is the same for
# interpreter work and small NumPy calls.  So every timed operation is
# followed by a fixed calibration kernel, and the operation's time is
# rescaled to the speed at which that kernel takes CAL_REF_MS:
# time x CAL_REF_MS / cal, with cal the median kernel time over the
# CAL_WINDOW operations around it.  The raw wall times stay in the
# details line.  README.md ("Machine-speed normalisation") has the data.
CAL_REF_MS = 0.25
CAL_WINDOW = 15
_CAL_A = np.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32)


def calibrate_ns() -> int:
    """Run the calibration kernel once and return its wall time in ns.

    A fixed mix of interpreter arithmetic and small NumPy calls, like the
    package's own code; it calls nothing of the package.
    """
    t0 = time.perf_counter_ns()
    s = 0
    for i in range(1500):
        s += i * i % 7
    a = _CAL_A
    for _ in range(12):
        a = np.tanh(a @ _CAL_A) + _CAL_A.sum(axis=0)
    return time.perf_counter_ns() - t0


def speed_factors(cal_ns) -> np.ndarray:
    """CAL_REF_MS over the median calibration time of the CAL_WINDOW
    operations centred on each one (fewer at the ends)."""
    cal_ms = np.asarray(cal_ns, dtype=float) / 1e6
    if cal_ms.size == 0:
        return cal_ms
    half = CAL_WINDOW // 2
    padded = np.pad(cal_ms, half, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * half + 1)
    return CAL_REF_MS / np.median(windows, axis=1)


# ---------------------------------------------------------------------------
# Set-up helpers
# ---------------------------------------------------------------------------


def make_dataset(n: int, seed: int):
    """`pedorient gen` then the loading half of `pedorient train`, which
    splits with the model seed of desk.ini's [train] section."""
    samples, _ = synth.gen_dataset(dataclasses.replace(SYNTH, n=n, seed=seed))
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"dataset-{os.getpid()}.txt"
    try:
        synth.write_dataset(path, samples)
        loaded = synth.read_dataset(path)
    finally:
        path.unlink(missing_ok=True)
    return cli._split_holdout(loaded, HOLDOUT_FRACTION, DESK.seed)


@contextmanager
def traced_phase(tracer: tracing.Tracer, phase: str):
    """Trace the package while the block runs, under a root span ``phase``."""
    with tracing.instrument(tracer), tracer.span(phase):
        yield


@contextmanager
def step_clock(stamps: list):
    """At the start of every loss-graph build, one per training step, run
    the calibration kernel and record (entry, end of kernel) timestamps;
    the only probe in an untraced run."""
    orig = model.build_loss_graph

    def stamped(*args, **kwargs):
        entry = time.perf_counter_ns()
        calibrate_ns()
        stamps.append((entry, time.perf_counter_ns()))
        return orig(*args, **kwargs)

    model.build_loss_graph = stamped
    try:
        yield
    finally:
        model.build_loss_graph = orig


# ---------------------------------------------------------------------------
# Correctness checks shared by the workloads
# ---------------------------------------------------------------------------


def check_decode(out: Outcome, net, samples) -> None:
    """Batched decode and vote of evaluate_model against the scalar
    per_bin_global_angles / exclusion_vote / aggregate_orientation oracle,
    one sample at a time."""
    cfg = net.cfg
    bcfg = cfg.bin_config()
    for i, s in enumerate(samples):
        what = f"decode of sample {i} disagrees with the scalar oracle"
        try:
            ev = model.evaluate_model(net, [s])
            fr = model.forward(net, s)
            pairs = np.asarray(fr.bin_outputs).reshape(bcfg.num_bins, 2)
            angles = binning.per_bin_global_angles(pairs, bcfg)
            excluded = binning.exclusion_vote(angles, cfg.exclusion_tau)
            try:
                theta = binning.aggregate_orientation(angles, excluded)
            except binning.DegenerateAggregateError:
                theta = None
            truth = np.array([s.dims3d.h1, s.dims3d.w1, s.dims3d.l1])
            loss = (float(((fr.dims3d_pred - truth) ** 2).sum())
                    + binning.orientation_loss(pairs, s.theta, bcfg, excluded))
            ok = math.isclose(ev["loss"], loss, rel_tol=DECODE_RTOL)
            if theta is None:
                ok = ok and ev["n_undefined"] == 1
            else:
                err = math.degrees(geometry.circ_abs_diff(theta, s.theta))
                ok = (ok and ev["n_undefined"] == 0
                      and math.isclose(ev["mae_deg"], err, rel_tol=DECODE_RTOL,
                                       abs_tol=1e-9))
        except Exception:
            traceback.print_exc()
            ok = False
        out.check(ok, what)


def check_gradients(out: Outcome, net, samples, scale: Scale, seed: int) -> None:
    """model_gradient_check on the trained model, required below 1e-4.

    A central difference whose step straddles a kink (a ReLU at zero, or
    the absolute values of the consistency loss) is off by an amount that
    shrinks with the step; a wrong analytic gradient is off at every step.
    So a result at or above the threshold at the acceptance gate's step
    (1e-5) is measured again at a tenth of it, and passes only if it then
    falls below the threshold and to at most a tenth of what it was.
    """
    batch = model.make_batch(samples[:scale.gradcheck_batch])
    errors = []
    for eps in GRADCHECK_EPS:
        report = model.model_gradient_check(
            net, batch, eps=eps, max_entries_per_param=scale.gradcheck_entries,
            seed=seed)
        errors.append(report.max_rel_error)
        if report.max_rel_error < GRADCHECK_THRESHOLD:
            break
    out.details["gradcheck_max_rel_error"] = errors
    ok = errors[-1] < GRADCHECK_THRESHOLD and errors[-1] <= errors[0] / 10 ** (len(errors) - 1)
    out.check(ok, f"gradient check {errors} at eps {GRADCHECK_EPS[:len(errors)]}"
                  f" not below {GRADCHECK_THRESHOLD}")


def check_losses(out: Outcome, log, what: str) -> None:
    out.check(bool(log) and all(math.isfinite(r.total) for r in log),
              f"non-finite logged loss in {what}")


def check_inversion(out: Outcome, samples) -> None:
    """Analytic yaw candidates against the 0.001-degree grid oracle."""
    for i, s in enumerate(samples):
        cands = geometry.invert_orientation_candidates(s.dims2d, s.dims3d).candidates
        grid = synth.brute_force_orientation_oracle(s.dims2d, s.dims3d)
        ok = (all(any(geometry.circ_abs_diff(c, g) <= ORACLE_TOL for g in grid) for c in cands)
              and all(any(geometry.circ_abs_diff(g, c) <= ORACLE_TOL for c in cands) for g in grid))
        out.check(ok, f"analytic candidates of pedestrian {i} disagree with the grid oracle")


# ---------------------------------------------------------------------------
# Training workloads
# ---------------------------------------------------------------------------


def _setup_repeated(out: Outcome, scale: Scale, build):
    """Run set-up ``setup_repeats`` times; report the median as setup_s,
    each set-up normalised by CAL_WINDOW calibration kernels run before it
    and as many after it."""
    times, normalised = [], []
    result = None
    for _ in range(scale.setup_repeats):
        cal = [calibrate_ns() for _ in range(CAL_WINDOW)]
        with traced_phase(out.tracer, "setup") if out.tracer else nullcontext():
            t0 = time.perf_counter()
            result = build()
            times.append(time.perf_counter() - t0)
        cal += [calibrate_ns() for _ in range(CAL_WINDOW)]
        normalised.append(times[-1] * CAL_REF_MS / (statistics.median(cal) / 1e6))
    out.details["setup_s_raw_each"] = times
    out.details["setup_s_each"] = normalised
    out.details["setup_s_raw"] = statistics.median(times)
    return statistics.median(normalised), result


def _first_losses(log, window: int) -> float:
    return statistics.fmean(r.total for r in log[:window])


def run_train(cfg: model.ModelConfig, seed: int, seconds: float, trace: bool,
              scale: Scale) -> Outcome:
    """Repeated `pedorient train`: model.train then evaluate_model on the
    held-out split, with model seeds 0, 1, 2, ... on one seeded dataset."""
    out = Outcome(tracer=tracing.Tracer() if trace else None)
    cfg = dataclasses.replace(cfg, lr_schedule=scale.train_schedule)
    setup_s, (train_s, val_s) = _setup_repeated(
        out, scale, lambda: make_dataset(scale.n_samples, seed))
    steps = cfg.total_steps()

    warm = dataclasses.replace(cfg, lr_schedule=((scale.warmup_steps, 1e-3),))
    model.train(train_s, warm)

    throughput, steps_ms, quality = [], [], None
    raw_throughput, raw_steps_ms, cal_ns = [], [], []
    untraced_s, traced_s = [], []
    first_model = None
    deadline = time.perf_counter() + seconds
    call = 0
    while call == 0 or time.perf_counter() < deadline:
        call_cfg = dataclasses.replace(cfg, seed=call)
        # A traced run measures each call twice, traced and untraced, in
        # alternating order, so the difference is the tracing overhead.
        modes = ((False, True) if call % 2 == 0 else (True, False)) if trace else (False,)
        for traced in modes:
            out.attempted += 1
            stamps: list[int] = []
            probe = (traced_phase(out.tracer, "run") if traced
                     else nullcontext() if trace else step_clock(stamps))
            try:
                with probe:
                    t0 = time.perf_counter_ns()
                    result = model.train(train_s, call_cfg)
                    t1 = time.perf_counter_ns()
                    metrics = model.evaluate_model(result.model, val_s)
                    t2 = time.perf_counter_ns()
            except Exception:
                traceback.print_exc()
                out.fail(f"train call with model seed {call} raised")
                continue
            if not all(math.isfinite(r.total) for r in result.log):
                out.fail(f"non-finite logged loss with model seed {call}")
            (traced_s if traced else untraced_s).append((t2 - t0) / 1e9)
            if not trace:
                # Segment 0 is train's own work before the first step; segment
                # i + 1 is step i, from the end of its calibration kernel to
                # the next step's entry (or to train's return).
                segs_ms = (np.array([e for e, _ in stamps] + [t1])
                           - np.array([t0] + [b for _, b in stamps])) / 1e6
                cal = [b - e for e, b in stamps]
                cal_ns.extend(cal)
                f = speed_factors(cal)
                norm_ms = segs_ms * np.concatenate((f[:1], f))
                throughput.append(steps * cfg.batch_size / (norm_ms.sum() / 1e3))
                raw_throughput.append(steps * cfg.batch_size / (segs_ms.sum() / 1e3))
                steps_ms.extend(norm_ms[1:].tolist())
                raw_steps_ms.extend(segs_ms[1:].tolist())
            if first_model is None:
                first_model = result.model
                quality = {"train_loss_first200": _first_losses(result.log, scale.loss_window),
                           "val_loss": metrics["loss"],
                           "val_mae_deg": metrics["mae_deg"],
                           "val_n_undefined": metrics["n_undefined"]}
        call += 1

    if first_model is not None:
        subset = val_s[:scale.check_samples]
        check_decode(out, first_model, subset)
        check_gradients(out, first_model, subset, scale, seed)

    out.details.update(quality or {})
    out.details["train_calls"] = call
    out.details["steps_per_call"] = steps
    if trace:
        out.metrics = layer_metrics(out, untraced_s, traced_s)
        return out
    p, tail = tail_percentile(steps_ms)
    out.metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "samples_per_s": (statistics.median(throughput), "1/s"),
        "op_ms_p50": (statistics.median(steps_ms), "ms"),
        "op_ms_p90": (percentile(steps_ms, 90), "ms"),
    }
    out.details.update({
        "train_samples_per_s": statistics.median(throughput),
        "train_samples_per_s_each": throughput,
        "step_ms_p50": statistics.median(steps_ms),
        "step_ms_tail": tail,
        "step_ms_tail_percentile": p,
        "steps_timed": len(steps_ms),
        # Wall time as measured, before normalisation.
        "raw_train_samples_per_s": statistics.median(raw_throughput),
        "raw_step_ms_p50": statistics.median(raw_steps_ms),
        "raw_step_ms_p90": percentile(raw_steps_ms, 90),
        "cal_ms_p50": statistics.median(cal_ns) / 1e6,
    })
    return out


# ---------------------------------------------------------------------------
# Inference and scoring workload
# ---------------------------------------------------------------------------

_DONT_CARE_BOX = (1500.0, 40.0, 1700.0, 400.0)


def _ped_label(s, box, theta, score=None) -> kitti_io.ObjectLabel:
    d = s.dims3d
    return kitti_io.ObjectLabel(
        "Pedestrian", 0.0, 0, theta, box, (d.h1, d.w1, d.l1),
        (0.0, 1.6, 20.0), theta, score)


def _dont_care(box) -> kitti_io.ObjectLabel:
    return kitti_io.ObjectLabel(
        kitti_io.DONT_CARE, -1.0, -1, -10.0, box, (-1.0, -1.0, -1.0),
        (-1000.0, -1000.0, -1000.0), -10.0)


@dataclass
class Frame:
    """The seeded inputs of one frame, drawn before its timer starts."""

    synth_cfg: synth.SynthConfig
    sweep_index: int
    jitter: np.ndarray   # (k, 4) detection box offsets, as fractions of w, h, w, h
    scores: np.ndarray   # (k + 2,) detection scores, the last two for the extras


def make_frame(seed: int, index: int, scale: Scale) -> Frame:
    rng = np.random.default_rng([seed, 3, index])
    lo, hi = scale.frame_peds
    k = int(rng.integers(lo, hi + 1))
    return Frame(
        dataclasses.replace(SYNTH, n=k, seed=1_000_000 * (seed + 1) + index),
        int(rng.integers(0, k)),
        rng.uniform(-0.02, 0.02, size=(k, 4)),
        rng.uniform(0.05, 0.95, size=k + 2),
    )


@dataclass
class FrameResult:
    samples: list
    gt_labels: list
    det_labels: list
    gt_parsed: kitti_io.ParseResult
    det_parsed: kitti_io.ParseResult
    chosen: list            # (pedestrian index, yaw, from_candidate)
    n_undefined: int
    sweep_points: int
    report: evaluation.EvalReport


def process_frame(net, frame: Frame) -> FrameResult:
    """The read-only paths behind `invert`, `sweep` and `eval`, one frame."""
    samples, _ = synth.gen_dataset(frame.synth_cfg)
    chosen = []
    n_undefined = 0
    for j, s in enumerate(samples):
        try:
            theta_pred, _ = model.predict_orientation(net, s)
        except ValueError:
            n_undefined += 1
            theta_pred = None
        inv = geometry.invert_orientation_candidates(s.dims2d, s.dims3d)
        if theta_pred is None:
            continue
        if inv.candidates:
            yaw = min(inv.candidates,
                      key=lambda c: geometry.circ_abs_diff(c, theta_pred))
            chosen.append((j, yaw, True))
        else:
            chosen.append((j, theta_pred, False))
    sweep = model.sweep_2d_width(net, samples[frame.sweep_index])

    boxes = [(10.0 + 200.0 * j, 50.0, 10.0 + 200.0 * j + s.dims2d.w, 50.0 + s.dims2d.h)
             for j, s in enumerate(samples)]
    gt_labels = [_ped_label(s, box, s.theta) for s, box in zip(samples, boxes)]
    gt_labels.append(_dont_care(_DONT_CARE_BOX))
    det_labels = []
    for j, yaw, _ in chosen:
        w, h = samples[j].dims2d.w, samples[j].dims2d.h
        box = tuple(float(v) for v in np.add(boxes[j], frame.jitter[j] * (w, h, w, h)))
        det_labels.append(_ped_label(samples[j], box, yaw, float(frame.scores[j])))
    # One detection inside the DontCare region and one false positive.
    det_labels.append(_ped_label(samples[0], (1550.0, 100.0, 1600.0, 250.0), 0.0,
                                 float(frame.scores[-2])))
    det_labels.append(_ped_label(samples[0], (10.0, 600.0, 60.0, 750.0), 0.0,
                                 float(frame.scores[-1])))
    gt_text = kitti_io.serialize_labels(gt_labels)
    det_text = kitti_io.serialize_labels(det_labels)

    gt_parsed = kitti_io.parse_label_file(gt_text)
    det_parsed = kitti_io.parse_label_file(det_text)
    gts, ignores, dets = [], [], []
    for lb in gt_parsed.labels:
        if lb.class_name == kitti_io.DONT_CARE:
            ignores.append(lb.box2d)
        else:
            gts.append(evaluation.GroundTruth(lb.box2d, lb.rotation_y))
    for lb in det_parsed.labels:
        dets.append(evaluation.Detection(lb.box2d, lb.score, lb.rotation_y))
    report = evaluation.evaluate_detections(dets, gts, ignore_boxes=ignores)
    return FrameResult(samples, gt_labels, det_labels, gt_parsed, det_parsed,
                       chosen, n_undefined, len(sweep), report)


def check_frame(out: Outcome, fr: FrameResult, index: int) -> None:
    """Per-frame output checks, run after the frame's timer stops."""
    problems = []
    if fr.gt_parsed.labels != fr.gt_labels or fr.det_parsed.labels != fr.det_labels:
        problems.append("labels changed in a serialize/parse round trip")
    for j, yaw, from_candidate in fr.chosen:
        s = fr.samples[j]
        if from_candidate:
            target = geometry.implied_width_span(s.dims2d, s.dims3d.h1)
            if not math.isclose(geometry.width_span(s.dims3d, yaw), target,
                                rel_tol=1e-9, abs_tol=1e-12):
                problems.append(f"candidate of pedestrian {j} misses its span")
    rep = fr.report
    if rep.n_gt != len(fr.samples) or rep.n_matched != len(fr.chosen):
        problems.append(f"matched {rep.n_matched} of {len(fr.chosen)} detections")
    if not rep.aos <= rep.ap + 1e-12:
        problems.append("aos exceeds ap")
    if fr.sweep_points != len(model.DEFAULT_SWEEP_FACTORS):
        problems.append("sweep returned the wrong number of points")
    if problems:
        out.fail(f"frame {index}: " + "; ".join(problems))


def run_infer(seed: int, seconds: float, trace: bool, scale: Scale) -> Outcome:
    """Frames back to back through predict, invert, sweep, label I/O and eval.

    The set-up model is the same for every workload seed: it is trained on
    desk.ini's own [synth] seed.  How well a model has learned sets what a
    frame costs (the exclusion vote stops early when bins agree), so a
    model per workload seed would make the frame cost vary with the seed.
    """
    out = Outcome(tracer=tracing.Tracer() if trace else None)
    cfg = dataclasses.replace(DESK, lr_schedule=scale.infer_schedule)
    data_times, train_times = [], []

    def build():
        t0 = time.perf_counter()
        train_s, val_s = make_dataset(scale.infer_n_samples, SYNTH.seed)
        t1 = time.perf_counter()
        result = model.train(train_s, cfg)
        metrics = model.evaluate_model(result.model, val_s)
        data_times.append(t1 - t0)
        train_times.append(time.perf_counter() - t1)
        return result, val_s, metrics

    setup_s, (trained, val_s, val_metrics) = _setup_repeated(out, scale, build)
    # setup_s is mostly training; its two parts, so each can be told apart.
    out.details.update({"setup_data_s": statistics.median(data_times),
                        "setup_train_s": statistics.median(train_times)})
    net = trained.model
    check_losses(out, trained.log, "set-up training")
    process_frame(net, make_frame(seed, 0, scale))  # warm-up

    frame_ms, frame_peds, cal_ns = [], [], []
    untraced_s, traced_s = [], []
    aos_sum = err_sum = 0.0
    matched = undefined = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while i < scale.frames_min or time.perf_counter() < deadline:
        frame = make_frame(seed, i, scale)
        modes = ((False, True) if i % 2 == 0 else (True, False)) if trace else (False,)
        for traced in modes:
            out.attempted += 1
            try:
                t0 = time.perf_counter_ns()
                if traced:
                    with traced_phase(out.tracer, "run"), \
                            out.tracer.span("frame", out.tracer.new_id()):
                        fr = process_frame(net, frame)
                else:
                    fr = process_frame(net, frame)
                t1 = time.perf_counter_ns()
                if not trace:
                    cal_ns.append(calibrate_ns())
            except Exception:
                traceback.print_exc()
                out.fail(f"frame {i} raised")
                continue
            check_frame(out, fr, i)
            (traced_s if traced else untraced_s).append((t1 - t0) / 1e9)
            if trace and not traced:
                continue  # a frame's untraced twin only times the overhead
            frame_ms.append((t1 - t0) / 1e6)
            frame_peds.append(len(fr.samples))
            undefined += fr.n_undefined
            matched += fr.report.n_matched
            aos_sum += fr.report.aos
            err_sum += fr.report.mean_abs_angular_error_deg * fr.report.n_matched
        i += 1

    check_decode(out, net, val_s[:scale.check_samples])
    check_gradients(out, net, val_s, scale, seed)
    for f in range(scale.oracle_frames):
        samples, _ = synth.gen_dataset(make_frame(seed, f, scale).synth_cfg)
        check_inversion(out, samples)

    peds = sum(frame_peds)
    out.details.update({
        "frames": len(frame_ms),
        "pedestrians": peds,
        "yaw_mae_deg": err_sum / matched if matched else float("nan"),
        "aos": aos_sum / len(frame_ms) if frame_ms else float("nan"),
        "yaw_undefined_frac": undefined / peds if peds else float("nan"),
        # Quality of the set-up model, named as on the training workloads.
        "train_loss_first200": _first_losses(trained.log, scale.loss_window),
        "val_loss": val_metrics["loss"],
        "val_mae_deg": val_metrics["mae_deg"],
    })
    if trace:
        out.metrics = layer_metrics(out, untraced_s, traced_s)
        return out

    def block_rates(ms):
        block = scale.throughput_block
        rates = [sum(frame_peds[b:b + block]) / (sum(ms[b:b + block]) / 1e3)
                 for b in range(0, len(ms) - block + 1, block)]
        return rates or [peds / (sum(ms) / 1e3)]

    raw_ms = frame_ms
    frame_ms = (np.array(raw_ms) * speed_factors(cal_ns)).tolist()
    rates = block_rates(frame_ms)
    p, tail = tail_percentile(frame_ms)
    # frame_ms ~ fixed + per_ped * k: what a frame costs apart from its
    # pedestrians, and what each one adds.
    per_ped, fixed = (np.polyfit(frame_peds, frame_ms, 1) if len(set(frame_peds)) > 1
                      else (float("nan"), float("nan")))
    out.metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "samples_per_s": (statistics.median(rates), "1/s"),
        "op_ms_p50": (statistics.median(frame_ms), "ms"),
        "op_ms_p90": (percentile(frame_ms, 90), "ms"),
    }
    out.details.update({
        "infer_peds_per_s": statistics.median(rates),
        "frame_ms_p50": statistics.median(frame_ms),
        "frame_ms_tail": tail,
        "frame_ms_tail_percentile": p,
        "frame_ms_fixed": float(fixed),
        "frame_ms_per_ped": float(per_ped),
        # Wall time as measured, before normalisation.
        "raw_infer_peds_per_s": statistics.median(block_rates(raw_ms)),
        "raw_frame_ms_p50": statistics.median(raw_ms),
        "raw_frame_ms_p90": percentile(raw_ms, 90),
        "cal_ms_p50": statistics.median(cal_ns) / 1e6,
    })
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced run
# ---------------------------------------------------------------------------


def layer_metrics(out: Outcome, untraced_s, traced_s) -> dict:
    """Per-layer metrics from the spans and counters of a traced run.

    A layer is read from the timed loop ("run") where it runs there, and
    from set-up otherwise (synth and the trainer on some workloads).  A
    layer the workload never calls reads 0 with 0 calls.
    """
    tracer = out.tracer
    table = tracing.span_table(tracer.spans)

    def row(name):
        for phase in ("run", "setup"):
            r = table.get(phase, {}).get(name)
            if r:
                return phase, r
        return None, {"calls": 0, "busy_us": 0.0, "self_us": 0.0}

    def per_call(name, key="busy_us", unit_scale=1.0):
        _, r = row(name)
        return r[key] / r["calls"] * unit_scale if r["calls"] else 0.0

    def per_call_count(name, key):
        phase, r = row(name)
        return tracer.counts.get((phase, key), 0.0) / r["calls"] if r["calls"] else 0.0

    def ratio(num, den):
        for phase in ("run", "setup"):
            d = tracer.counts.get((phase, den), 0.0)
            if d:
                return tracer.counts.get((phase, num), 0.0) / d
        return 0.0

    step_phase, _ = row(tracing.STEP)
    roots = tracing.root_names(tracer.spans)
    step_us = [(s.end_ns - s.start_ns) / 1e3 for s, root in zip(tracer.spans, roots)
               if s.name == tracing.STEP and root == step_phase]
    _, tail = tail_percentile(step_us) if step_us else (0.0, 0.0)
    gen_phase, gen = row("synth.gen_dataset")
    gen_samples = tracer.counts.get((gen_phase, "synth.samples"), 0.0)
    overhead = (sum(traced_s) / sum(untraced_s) - 1.0) if untraced_s and traced_s else 0.0

    d = out.details
    metrics = {
        "model.build_loss_graph.self_us": (per_call("model.build_loss_graph", "self_us"), "us"),
        "model.loss_graph.nodes":
            (per_call_count("model.build_loss_graph", "model.loss_graph.nodes"), "count"),
        "nn_core.Tape.backward.us": (per_call("nn_core.Tape.backward"), "us"),
        "nn_core.sgd_step.us": (per_call("nn_core.sgd_step"), "us"),
        "binning.exclusion_mask_batch.us": (per_call("binning.exclusion_mask_batch"), "us"),
        "binning.vote_fire_frac": (ratio("binning.votes_fired", "binning.votes"), "frac"),
        "model.Batch.take.us": (per_call("model.Batch.take"), "us"),
        "model.train.step_us_p50": (statistics.median(step_us) if step_us else 0.0, "us"),
        "model.train.step_us_tail": (tail, "us"),
        "synth.gen_dataset.us_per_sample":
            (gen["busy_us"] / gen_samples if gen_samples else 0.0, "us"),
        "synth.write_dataset.ms": (per_call("synth.write_dataset", unit_scale=1e-3), "ms"),
        "synth.read_dataset.ms": (per_call("synth.read_dataset", unit_scale=1e-3), "ms"),
        "model.predict_orientation.us": (per_call("model.predict_orientation"), "us"),
        "model.sweep_2d_width.ms": (per_call("model.sweep_2d_width", unit_scale=1e-3), "ms"),
        "geometry.invert_orientation_candidates.us":
            (per_call("geometry.invert_orientation_candidates"), "us"),
        "geometry.candidates_per_call":
            (per_call_count("geometry.invert_orientation_candidates",
                            "geometry.candidates"), "count"),
        "geometry.infeasible_frac":
            (per_call_count("geometry.invert_orientation_candidates",
                            "geometry.infeasible"), "frac"),
        "kitti_io.serialize_labels.us": (per_call("kitti_io.serialize_labels"), "us"),
        "kitti_io.parse_label_file.us": (per_call("kitti_io.parse_label_file"), "us"),
        "evaluation.evaluate_detections.us": (per_call("evaluation.evaluate_detections"), "us"),
        "evaluation.matched_frac": (ratio("evaluation.matched", "evaluation.gts"), "frac"),
        "model.evaluate_model.ms": (per_call("model.evaluate_model", unit_scale=1e-3), "ms"),
        "model.train.loss_first200": (d["train_loss_first200"], "1"),
        "model.evaluate_model.val_loss": (d["val_loss"], "1"),
        "model.evaluate_model.val_mae_deg": (d["val_mae_deg"], "deg"),
        "evaluation.aos": (d.get("aos", 0.0), "1"),
        "evaluation.yaw_mae_deg": (d.get("yaw_mae_deg", 0.0), "deg"),
        "model.yaw_undefined_frac": (d.get("yaw_undefined_frac", 0.0), "frac"),
        "trace_overhead_frac": (overhead, "frac"),
    }
    d["spans"] = table
    d["wait_time"] = ("none: one thread, a closed loop with one caller and no "
                      "queues, so no layer waits")
    return metrics


WORKLOADS = {
    "train_proposed": lambda seed, seconds, trace, scale:
        run_train(DESK, seed, seconds, trace, scale),
    "train_plain_cons": lambda seed, seconds, trace, scale:
        run_train(dataclasses.replace(DESK, use_feedforward=False,
                                      use_consistency_loss=True),
                  seed, seconds, trace, scale),
    "infer_score": run_infer,
}
