"""Command line interface.

Subcommands:

* ``gen``       synthesize a dataset file
* ``train``     train a model on a dataset, write checkpoint + logs
* ``compare``   train proposed/plain variants across seeds, report medians
* ``eval``      score detections against ground truth labels
* ``sweep``     perturb one sample's inputs and trace the predicted yaw
* ``invert``    recover yaw candidates from box dimensions analytically
* ``gradcheck`` finite-difference audit of the training gradients

Settings come from an INI file (sections [synth], [model], [train],
[compare], [gradcheck]); every value has a default so the file is
optional.  File-writing commands put everything under --out and drop a
manifest.json recording the resolved settings and sha256 checksums of
inputs and outputs.

Exit codes: 0 success, 1 invalid input or a failed check, 2 unexpected
error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import json
import math
import statistics
import sys
import time
import typing
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, config
from .evaluation import MIN_IOU, Detection, GroundTruth, _check_box, evaluate_detections
from .geometry import (Dims2D, Dims3D, circ_abs_diff, implied_width_span,
                       invert_orientation_candidates)
from .kitti_io import DONT_CARE, Difficulty, classify_difficulty, parse_label_file
from .model import (
    DEFAULT_SWEEP_FACTORS,
    ModelConfig,
    TrainingDivergedError,
    analytic_selector_curve,
    build_model,
    evaluate_model,
    load_model,
    make_batch,
    model_gradient_check,
    save_model,
    sweep_2d_width,
    sweep_3d_height,
    train,
)
from .nn_core import GRADCHECK_STEPS, GRADCHECK_THRESHOLD, check_at_steps
from .synth import (_CLUSTER_TOL, GRID_STEP, SynthConfig, brute_force_orientation_oracle,
                    gen_dataset, read_dataset, write_dataset)

_PEDESTRIAN = "Pedestrian"
# Sitting people overlap pedestrians in appearance; their boxes become
# ignore regions rather than counting matched detections as false positives.
_SIMILAR_CLASSES = ("Person_sitting",)


# ---------------------------------------------------------------------------
# Small helpers: config access, manifests
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CompareSettings:
    """The [compare] section."""

    seeds: tuple[int, ...] = (0, 1, 2)

    def __post_init__(self):
        if any(seed < 0 for seed in self.seeds):
            raise ValueError(f"seeds must be >= 0, got {self.seeds}")


@dataclasses.dataclass(frozen=True)
class GradcheckSettings:
    """The [gradcheck] section."""

    batch_size: int = 8
    max_entries_per_param: int = 25

    def __post_init__(self):
        for key in ("batch_size", "max_entries_per_param"):
            if (value := getattr(self, key)) < 1:
                raise ValueError(f"{key} must be >= 1, got {value}")


def _load_ini(path) -> configparser.ConfigParser:
    """Read an INI file; bad INI text or a bad entry in a known section fails here."""
    cp = configparser.ConfigParser()
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ValueError(f"config file not found: {p}")
        try:
            cp.read(p)
            _synth_config(cp)
            _model_config(cp)
            _settings(CompareSettings, cp, "compare")
            _settings(GradcheckSettings, cp, "gradcheck")
            _holdout_fraction(cp)
        except (ValueError, configparser.Error) as e:
            raise ValueError(f"{p}: {e}") from None
    return cp


def _sec(cp, name: str):
    return cp[name] if name in cp else {}


def _getfloat(sec, key: str, default: float) -> float:
    v = sec.get(key)
    return default if v is None else float(v)


def _holdout_fraction(cp) -> float:
    """``[train] holdout_fraction``: 0.1 when unset, else a float in [0, 0.9]."""
    text = _sec(cp, "train").get("holdout_fraction", "0.1")
    try:
        if not 0.0 <= (fraction := config.coerce(text, float)) <= 0.9:
            raise ValueError("outside [0, 0.9]")
    except ValueError as e:
        raise ValueError(f"[train] holdout_fraction = {text!r}: {e}") from None
    return fraction


def _ini_config(cls, cp, sections, **given):
    """``cls`` from the fields set in the INI sections, each at most once,
    and the ``given`` values that are not None, which override the file;
    unset fields keep the dataclass defaults.  Each check of ``cls`` reads
    one field, so each value is checked on its own and one that ``cls``
    rejects is named by where it came from: an override by its flag
    ``--key``, first, then a key as written, in file order."""
    types = typing.get_type_hints(cls)
    overrides = {key: value for key, value in given.items() if value is not None}
    checks = [(f"--{key} {value}", key, value) for key, value in overrides.items()]
    values = {}
    for section in sections:
        for key, text in _sec(cp, section).items():
            if (section, key) == ("train", "holdout_fraction"):
                continue  # read by _holdout_fraction
            where = f"[{section}] {key} = {text!r}"
            try:
                if key not in types:
                    raise ValueError("unknown key")
                value = config.coerce(text, types[key])
            except ValueError as e:
                raise ValueError(f"{where}: {e}") from None
            if key in values:
                raise ValueError(f"[{section}] {key}: {key} is already set")
            values[key] = value
            checks.append((where, key, value))
    for where, key, value in checks:
        try:
            cls(**{key: value})
        except ValueError as e:
            raise ValueError(f"{where}: {e}") from None
    return cls(**{**values, **overrides})


def _synth_config(cp, seed=None, n=None) -> SynthConfig:
    return _ini_config(SynthConfig, cp, ("synth",), seed=seed, n=n)


def _model_config(cp, seed=None) -> ModelConfig:
    return _ini_config(ModelConfig, cp, ("model", "train"), seed=seed)


def _settings(cls, cp, section: str):
    return _ini_config(cls, cp, (section,))


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, command: str, settings: dict, seed,
                    inputs, outputs, started: float) -> Path:
    manifest = {
        "command": command,
        "config": settings,
        "seed": seed,
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
        "outputs": {str(p): _sha256(Path(p)) for p in outputs},
        "elapsed_seconds": round(time.monotonic() - started, 3),
        "created_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "tool_version": __version__,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return path


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _split_holdout(samples, fraction: float, seed: int):
    """Deterministic train/validation split; order within parts is stable."""
    n_val = int(round(fraction * len(samples)))
    if n_val == 0:
        return list(samples), []
    perm = np.random.default_rng([seed, 2]).permutation(len(samples))
    val_idx = set(perm[:n_val].tolist())
    train_s = [s for i, s in enumerate(samples) if i not in val_idx]
    val_s = [s for i, s in enumerate(samples) if i in val_idx]
    return train_s, val_s


def _training_split(data_path, samples, fraction: float, seed: int):
    """:func:`_split_holdout`, rejecting a split that leaves no sample to
    train on (an empty dataset, or every sample held out)."""
    train_s, val_s = _split_holdout(samples, fraction, seed)
    if not train_s:
        raise ValueError(f"{data_path}: no samples left to train on: read {len(samples)},"
                         f" held out {len(val_s)} (holdout_fraction {fraction})")
    return train_s, val_s


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    started = time.monotonic()
    cp = _load_ini(args.config)
    cfg = _synth_config(cp, seed=args.seed, n=args.n)
    samples, _ = gen_dataset(cfg)
    out = _out_dir(args)
    data_path = out / "dataset.txt"
    write_dataset(data_path, samples)
    print(f"wrote {len(samples)} samples to {data_path}")
    _write_manifest(out, "gen", config.snapshot(cfg), cfg.seed,
                    inputs=[args.config] if args.config else [],
                    outputs=[data_path], started=started)
    return 0


def cmd_train(args) -> int:
    started = time.monotonic()
    cp = _load_ini(args.config)
    cfg = _model_config(cp, seed=args.seed)
    samples = read_dataset(args.data)
    train_s, val_s = _training_split(args.data, samples, _holdout_fraction(cp), cfg.seed)

    result = train(train_s, cfg)
    out = _out_dir(args)
    model_path = out / "model.npz"
    save_model(result.model, model_path)

    log_path = out / "loss_log.csv"
    with open(log_path, "w") as fh:
        fh.write("step,lr,total,dims,orientation,consistency\n")
        for row in result.log:
            fh.write(f"{row.step},{row.lr:.10g},{row.total:.10g},"
                     f"{row.dims:.10g},{row.orientation:.10g},{row.consistency:.10g}\n")

    eval_set = val_s if val_s else train_s
    metrics = evaluate_model(result.model, eval_set)
    metrics.update(evaluated_on="validation" if val_s else "train",
                   n_train=len(train_s), n_val=len(val_s))
    metrics_path = out / "metrics.json"
    metrics_path.write_text(json.dumps(metrics, sort_keys=True, indent=2) + "\n")

    final = result.log[-1]
    print(f"trained {cfg.total_steps()} steps on {len(train_s)} samples"
          f" (final batch loss {final.total:.4f})")
    print(f"{metrics['evaluated_on']} loss {metrics['loss']:.4f},"
          f" yaw MAE {metrics['mae_deg']:.2f} deg over {metrics['n']} samples")
    inputs = [args.data] + ([args.config] if args.config else [])
    _write_manifest(out, "train", config.snapshot(cfg), cfg.seed,
                    inputs=inputs, outputs=[model_path, log_path, metrics_path],
                    started=started)
    return 0


_COMPARE_VARIANTS = (
    ("proposed", True, False),
    ("proposed+consistency", True, True),
    ("plain", False, False),
    ("plain+consistency", False, True),
)


def cmd_compare(args) -> int:
    started = time.monotonic()
    cp = _load_ini(args.config)
    base = _model_config(cp)
    seeds = _settings(CompareSettings, cp, "compare").seeds
    if args.seeds is not None:
        try:
            seeds = CompareSettings(config.coerce(args.seeds, tuple[int, ...])).seeds
        except ValueError as e:
            raise ValueError(f"--seeds {args.seeds}: {e}") from None
    samples = read_dataset(args.data)
    holdout = _holdout_fraction(cp)

    keys = ("val_loss", "dims_loss", "orientation_loss", "mae_deg")
    runs = []
    for name, use_ff, use_cons in _COMPARE_VARIANTS:
        for seed in seeds:
            cfg = dataclasses.replace(base, use_feedforward=use_ff,
                                      use_consistency_loss=use_cons, seed=seed)
            train_s, val_s = _training_split(args.data, samples, holdout, seed)
            result = train(train_s, cfg)
            metrics = evaluate_model(result.model, val_s if val_s else train_s)
            runs.append({"variant": name, "seed": seed, "val_loss": metrics["loss"],
                         **{key: metrics[key] for key in keys[1:]}})
            print(f"  {name:<22s} seed {seed}: val loss {metrics['loss']:.4f},"
                  f" MAE {metrics['mae_deg']:.2f} deg")

    # A NaN metric is named and left out of its median, which it would make order-dependent.
    nan_runs = [{"variant": r["variant"], "seed": r["seed"],
                 "metrics": [key for key in keys if math.isnan(r[key])]}
                for r in runs if any(math.isnan(r[key]) for key in keys)]
    medians = {}
    for name, _, _ in _COMPARE_VARIANTS:
        rows = [r for r in runs if r["variant"] == name]
        medians[name] = {key: statistics.median([r[key] for r in rows if not math.isnan(r[key])]
                                                or [math.nan])  # NaN if no run is finite
                         for key in keys}

    print(f"{'variant':<22s} {'median val loss':>16s} {'median MAE deg':>15s}")
    for name, _, _ in _COMPARE_VARIANTS:
        m = medians[name]
        print(f"{name:<22s} {m['val_loss']:>16.4f} {m['mae_deg']:>15.2f}")
    gap = medians["plain"]["val_loss"] - medians["proposed"]["val_loss"]
    better = "lower" if gap > 0 else "not lower"
    print(f"finding: proposed median val loss is {better} than plain"
          f" (difference {gap:+.4f})")
    if nan_runs:
        named = "; ".join(f"{r['variant']} seed {r['seed']} ({', '.join(r['metrics'])})"
                          for r in nan_runs)
        print(f"{len(nan_runs)} run(s) with a NaN metric, left out of its median: {named}")

    out = _out_dir(args)
    report_path = out / "compare.json"
    report_path.write_text(json.dumps(
        {"runs": runs, "medians": medians, "seeds": list(seeds), "nan_runs": nan_runs},
        sort_keys=True, indent=2) + "\n")
    inputs = [args.data] + ([args.config] if args.config else [])
    _write_manifest(out, "compare", config.snapshot(base), list(seeds),
                    inputs=inputs, outputs=[report_path], started=started)
    return 0


_TIER_ORDER = (Difficulty.EASY, Difficulty.MODERATE, Difficulty.HARD)


def _read_labels(path):
    """The ``ParseResult`` of the label file at ``path``; an error names
    the file and the line."""
    try:
        return parse_label_file(Path(path).read_text())
    except ValueError as e:  # a UnicodeDecodeError too
        raise ValueError(f"{path}: {e}") from None


def cmd_eval(args) -> int:
    started = time.monotonic()
    gt_parsed = _read_labels(args.labels)
    det_parsed = _read_labels(args.detections)
    tier = Difficulty(args.difficulty)
    included = set(_TIER_ORDER[: _TIER_ORDER.index(tier) + 1])

    gts, ignores = [], []
    for line_no, lb in zip(gt_parsed.line_numbers, gt_parsed.labels):
        if lb.class_name == _PEDESTRIAN and classify_difficulty(lb) in included:
            gts.append(GroundTruth(lb.box2d, getattr(lb, args.orientation)))
        elif lb.class_name in (_PEDESTRIAN, DONT_CARE, *_SIMILAR_CLASSES):
            # DontCare rows skip validation at parse time: check their boxes here.
            try:
                ignores.append(_check_box(lb.box2d))
            except ValueError as e:
                raise ValueError(f"{args.labels}: line {line_no}: {e}") from None
    if not gts:
        raise ValueError(f"{args.labels}: no {_PEDESTRIAN} label at difficulty {tier.value}"
                         " or easier; evaluation undefined without ground truths")

    dets = []
    for line_no, lb in zip(det_parsed.line_numbers, det_parsed.labels):
        if lb.class_name != _PEDESTRIAN:
            continue
        if lb.score is None:
            raise ValueError(f"{args.detections}: line {line_no}:"
                             " detection has no confidence score")
        dets.append(Detection(lb.box2d, lb.score, getattr(lb, args.orientation)))

    report = evaluate_detections(dets, gts, ignore_boxes=ignores)
    out = _out_dir(args)
    settings = {"difficulty": tier.value, "iou_threshold": MIN_IOU,
                "orientation_field": args.orientation}
    payload = {**report.to_dict(), **settings, "n_ignore_regions": len(ignores),
               "gt_angle_warnings": gt_parsed.angle_warnings,
               "det_angle_warnings": det_parsed.angle_warnings}
    report_path = out / "report.json"
    report_path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    curve_path = out / "os_recall.csv"
    with open(curve_path, "w") as fh:
        fh.write("recall,orientation_similarity\n")
        for recall, os_val in report.os_recall_curve:
            fh.write(f"{recall:.6f},{os_val:.6f}\n")

    print(f"AOS {report.aos:.4f}  AP {report.ap:.4f}"
          f"  yaw MAE {report.mean_abs_angular_error_deg:.2f} deg"
          f"  ({report.n_matched}/{report.n_gt} matched, {len(dets)} detections)")
    _write_manifest(out, "eval", settings, None,
                    inputs=[args.labels, args.detections],
                    outputs=[report_path, curve_path], started=started)
    return 0


def _parse_factors(text: str | None):
    """The factors of ``--factors MIN:MAX:COUNT``, each finite and >= 0."""
    if text is None:
        return DEFAULT_SWEEP_FACTORS
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise ValueError(f"--factors {text!r}: expected MIN:MAX:COUNT") from None
    for f in (lo, hi):
        if not (math.isfinite(f) and f >= 0):
            raise ValueError(f"--factors {text!r}: factor {f!r} is not finite and >= 0")
    if count < 1 or hi < lo:
        raise ValueError(f"--factors {text!r}: expected MIN <= MAX and COUNT >= 1")
    return tuple(np.linspace(lo, hi, count))


def cmd_sweep(args) -> int:
    started = time.monotonic()
    model = load_model(args.checkpoint)
    samples = read_dataset(args.data)
    if not 0 <= args.index < len(samples):
        raise ValueError(f"--index {args.index}: outside {args.data},"
                         f" which holds {len(samples)} samples")
    sample = samples[args.index]
    if len(sample.context) != model.context_width:
        raise ValueError(f"{args.data}: context width {len(sample.context)}, but checkpoint"
                         f" {args.checkpoint} reads {model.context_width}")
    factors = _parse_factors(args.factors)
    sweep_fn = sweep_2d_width if args.which == "2d" else sweep_3d_height
    try:
        rows = sweep_fn(model, sample, factors)
    except ValueError as e:  # a factor that scales the swept input out of range
        raise ValueError(f"--factors {args.factors!r}: {e}") from None

    # Baseline for the analytic selector: the model's own prediction at the
    # factor closest to 1.0, falling back to the true yaw.
    _, nearest = min(zip(factors, rows), key=lambda fr: abs(fr[0] - 1.0))
    baseline = nearest.theta_pred if nearest.theta_pred is not None else sample.theta
    analytic = analytic_selector_curve(sample, factors, baseline_theta=baseline)

    out = _out_dir(args)
    csv_path = out / f"sweep_{args.which}.csv"
    num_bins = model.cfg.num_bins
    with open(csv_path, "w") as fh:
        bin_cols = "".join(f",bin{i}_deg" for i in range(num_bins))
        fh.write(f"factor,model_theta_deg,analytic_theta_deg,n_excluded{bin_cols}\n")
        for f, p, a in zip(factors, rows, analytic):
            model_deg = "" if p.theta_pred is None else f"{math.degrees(p.theta_pred):.4f}"
            analytic_deg = "" if math.isnan(a) else f"{math.degrees(a):.4f}"
            bins = ("," * num_bins if p.per_bin_angles is None
                    else "".join(f",{math.degrees(b):.4f}" for b in p.per_bin_angles))
            fh.write(f"{_short(f)},{model_deg},{analytic_deg},{len(p.excluded)}{bins}\n")

    print(f"swept {len(rows)} factors over sample {args.index}"
          f" ({args.which}), wrote {csv_path}")
    settings = {"which": args.which, "index": args.index,
                "factors": [float(f) for f in factors],
                "baseline_theta": float(baseline)}
    _write_manifest(out, "sweep", settings, None,
                    inputs=[args.checkpoint, args.data],
                    outputs=[csv_path], started=started)
    return 0


def _short(x: float) -> str:
    """``x`` to six decimals, with an exponent from 1e6 up, so no line runs long."""
    return f"{x:.6e}" if x >= 1e6 else f"{x:.6f}"


def cmd_invert(args) -> int:
    for flag, value in (("--h2d", args.h2d), ("--w2d", args.w2d), ("--h1", args.h1),
                        ("--w1", args.w1), ("--l1", args.l1)):
        if not 0.0 < value < math.inf:  # as Dims2D and Dims3D check
            raise ValueError(f"{flag} {value}: must be finite and > 0")
    d2 = Dims2D(args.h2d, args.w2d)
    dims = Dims3D(args.h1, args.w1, args.l1)
    implied = implied_width_span(d2, dims.h1)
    if not math.isfinite(implied):
        raise ValueError(f"--h1 {args.h1} * --w2d {args.w2d} / --h2d {args.h2d}:"
                         f" implied width span {implied} is not finite")
    max_span = math.hypot(dims.w1, dims.l1)
    result = invert_orientation_candidates(d2, dims)

    print(f"implied width span {_short(implied)} m (max possible {_short(max_span)} m)")
    if result.infeasible:
        print("infeasible: implied span exceeds the maximum for these dimensions")
    if not result.candidates:
        if not result.infeasible:
            print("no candidates: implied span is below the minimum span")
        return 0
    degs = ", ".join(f"{math.degrees(c):+.3f}" for c in result.candidates)
    print(f"{len(result.candidates)} yaw candidate(s) [deg]: {degs}")

    oracle = brute_force_orientation_oracle(d2, dims)
    # A hit lies within half a step of its root; hits within _CLUSTER_TOL merge.
    tol = GRID_STEP + _CLUSTER_TOL
    covered = (all(any(circ_abs_diff(c, o) <= tol for c in result.candidates) for o in oracle)
               and all(any(circ_abs_diff(c, o) <= tol for o in oracle) for c in result.candidates))
    print(f"grid-search cross-check: {len(oracle)} hit(s),"
          f" {'agrees' if covered else 'DISAGREES'} with the analytic set")
    return 0 if covered else 1


def cmd_gradcheck(args) -> int:
    started = time.monotonic()
    cp = _load_ini(args.config)
    g = _settings(GradcheckSettings, cp, "gradcheck")
    # The check covers the consistency term too, whatever the config trains with.
    cfg = dataclasses.replace(_model_config(cp, seed=args.seed), use_consistency_loss=True)

    batch = make_batch(gen_dataset(_synth_config(cp, seed=cfg.seed, n=g.batch_size))[0])
    model = build_model(cfg, batch.context.shape[1])
    reports, passed = check_at_steps(lambda eps: model_gradient_check(
        model, batch, eps=eps, seed=cfg.seed,
        max_entries_per_param=g.max_entries_per_param))
    width = max(len(name) for name, _ in reports[0].per_param)
    for eps, report in zip(GRADCHECK_STEPS, reports):
        for name, err in report.per_param:
            print(f"  {name:<{width}s}  max rel err {err:.3e} at step {eps:.0e}")
    print(f"overall max rel err {reports[-1].max_rel_error:.3e}"
          f" vs threshold {GRADCHECK_THRESHOLD:.1e}: {'PASS' if passed else 'FAIL'}")

    if args.out:
        out = _out_dir(args)
        path = out / "gradcheck.json"
        path.write_text(json.dumps({
            "max_rel_error": reports[0].max_rel_error,
            "per_param": dict(reports[0].per_param),
            "threshold": GRADCHECK_THRESHOLD,
            "passed": bool(passed),
            "remeasured": None if len(reports) == 1 else {
                "eps": GRADCHECK_STEPS[1], "max_rel_error": reports[1].max_rel_error,
                "per_param": dict(reports[1].per_param)},
        }, sort_keys=True, indent=2) + "\n")
        _write_manifest(out, "gradcheck", config.snapshot(cfg), cfg.seed,
                        inputs=[args.config] if args.config else [],
                        outputs=[path], started=started)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pedorient",
        description="Pedestrian yaw estimation from monocular box geometry.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="synthesize a dataset")
    p.add_argument("--config", help="INI settings file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the dataset seed")
    p.add_argument("--n", type=int, help="override the sample count")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", help="INI settings file")
    p.add_argument("--data", required=True, help="dataset file from gen")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the training seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compare", help="train all variants across seeds")
    p.add_argument("--config", help="INI settings file")
    p.add_argument("--data", required=True, help="dataset file from gen")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seeds", help="comma separated seed list override")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("eval", help="score detections against labels")
    p.add_argument("--labels", required=True, help="ground truth label file")
    p.add_argument("--detections", required=True, help="scored detection file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--difficulty", default="Hard",
                   choices=[t.value for t in _TIER_ORDER],
                   help="most difficult tier still counted as ground truth")
    p.add_argument("--orientation", default="rotation_y",
                   choices=["rotation_y", "alpha"],
                   help="which label angle to compare")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="perturb one sample and trace the yaw")
    p.add_argument("--checkpoint", required=True, help="model.npz from train")
    p.add_argument("--data", required=True, help="dataset file from gen")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--index", type=int, default=0, help="sample index")
    p.add_argument("--which", required=True, choices=["2d", "3d"],
                   help="sweep the 2D box width or the fed 3D height")
    p.add_argument("--factors", help="factor range MIN:MAX:COUNT")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("invert", help="analytic yaw candidates from dimensions")
    p.add_argument("--h2d", type=float, required=True, help="box height px")
    p.add_argument("--w2d", type=float, required=True, help="box width px")
    p.add_argument("--h1", type=float, required=True, help="person height m")
    p.add_argument("--w1", type=float, required=True, help="person width m")
    p.add_argument("--l1", type=float, required=True, help="person length m")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--config", help="INI settings file")
    p.add_argument("--seed", type=int, help="override the model and probe seed")
    p.add_argument("--out", help="optional output directory for the report")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, TrainingDivergedError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception:
        import traceback

        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
