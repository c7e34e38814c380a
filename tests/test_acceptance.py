"""Release acceptance suite.

Twelve gates covering geometry, binning, gradients, training direction,
evaluation machinery, sweeps, and the known worked example.  Each test
prints one ``[criterion NN] ... PASS|FAIL`` line directly to the terminal
(bypassing capture) so the checklist is visible in any pytest run.
"""

import csv
import json
import math
import statistics
import time

import numpy as np
import pytest

from pedorient.binning import (
    BinConfig,
    decode_angle,
    encode_targets,
    exclusion_vote,
    orientation_loss,
    per_bin_global_angles,
)
from pedorient.cli import _split_holdout, main
from pedorient.evaluation import (
    Detection,
    GroundTruth,
    aos,
    average_precision,
)
from pedorient.geometry import (
    Dims2D,
    Dims3D,
    circ_abs_diff,
    circ_diff,
    consistency_residual,
    invert_orientation_candidates,
    width_span,
    width_span_abs,
    wrap_angle,
)
from pedorient.kitti_io import TrainingSample
from pedorient.model import (
    ModelConfig,
    analytic_selector_curve,
    build_loss_graph,
    build_model,
    evaluate_model,
    make_batch,
    model_gradient_check,
    train,
)
from pedorient.synth import SynthConfig, brute_force_orientation_oracle, gen_dataset


def _verdict(capsys, num, label, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} failed{tail}"


def test_criterion_01_span_forms_agree(capsys):
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        dims = Dims3D(rng.uniform(0.5, 2.5), rng.uniform(0.2, 1.2),
                      rng.uniform(0.2, 1.2))
        th = rng.uniform(-math.pi, math.pi, size=1000)
        worst = max(worst, float(np.max(np.abs(
            width_span(dims, th) - width_span_abs(dims, th)))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    _verdict(capsys, 1, "quadrant-case span equals |sin|/|cos| span", ok,
             f"max diff {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_span_symmetries(capsys):
    rng = np.random.default_rng(2)
    worst_shift = 0.0
    worst_mirror = 0.0
    for _ in range(100):
        dims = Dims3D(rng.uniform(0.5, 2.5), rng.uniform(0.2, 1.2),
                      rng.uniform(0.2, 1.2))
        th = rng.uniform(-math.pi, math.pi, size=1000)
        base = width_span(dims, th)
        worst_shift = max(worst_shift, float(np.max(np.abs(
            width_span(dims, th + math.pi) - base))))
        worst_mirror = max(worst_mirror, float(np.max(np.abs(
            width_span(dims, -th) - base))))
    ok = worst_shift < 1e-12 and worst_mirror < 1e-12
    _verdict(capsys, 2, "half-turn and mirror span symmetries", ok,
             f"shift {worst_shift:.2e}, mirror {worst_mirror:.2e}")


def test_criterion_03_inversion_matches_grid_oracle(capsys):
    samples, _ = gen_dataset(SynthConfig(n=1000, seed=7, box_noise_sd=0.0,
                                         context_noise=0.0, context_width=8))
    start = time.perf_counter()
    pair_tol = math.radians(0.01)
    worst_truth = 0.0
    max_count = 0
    ok = True
    for s in samples:
        cands = invert_orientation_candidates(s.dims2d, s.dims3d).candidates
        oracle = brute_force_orientation_oracle(s.dims2d, s.dims3d)
        max_count = max(max_count, len(cands))
        if not cands or len(cands) > 8 or not oracle:
            ok = False
            break
        fwd = max(min(circ_abs_diff(c, o) for o in oracle) for c in cands)
        bwd = max(min(circ_abs_diff(o, c) for c in cands) for o in oracle)
        if fwd > pair_tol or bwd > pair_tol:
            ok = False
            break
        worst_truth = max(worst_truth,
                          min(circ_abs_diff(c, s.theta) for c in cands))
    elapsed = time.perf_counter() - start
    ok = ok and worst_truth < 1e-6 and elapsed < 30.0
    _verdict(capsys, 3, "analytic inversion vs 0.001-degree grid oracle", ok,
             f"truth gap {worst_truth:.2e} rad, <= {max_count} candidates, "
             f"{elapsed:.1f}s")


def test_criterion_04_decode_roundtrip(capsys):
    cfg = BinConfig(4)
    n = 3600
    angles = -math.pi + (np.arange(n) + 1.0) * (2.0 * math.pi / n)
    worst = 0.0
    for th in angles:
        decoded = per_bin_global_angles(encode_targets(th, cfg), cfg)
        worst = max(worst, max(circ_abs_diff(d, th) for d in decoded))
    rng = np.random.default_rng(4)
    worst_scale = 0.0
    for _ in range(1000):
        s, c = rng.normal(size=2)
        if s == 0.0 and c == 0.0:
            continue
        k = rng.uniform(1e-3, 1e3)
        worst_scale = max(worst_scale, circ_abs_diff(
            decode_angle(k * s, k * c), decode_angle(s, c)))
    ok = worst < 1e-9 and worst_scale < 1e-9
    _verdict(capsys, 4, "per-bin decode inverts encoding", ok,
             f"roundtrip {worst:.2e} rad, scale {worst_scale:.2e} rad")


def test_criterion_05_loss_identities(capsys):
    cfg = BinConfig(4)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(2000):
        th = rng.uniform(-math.pi, math.pi)
        out = rng.normal(size=(4, 2))
        loss = orientation_loss(out, th, cfg)
        expected = 0.0
        for i in range(4):
            pred = math.atan2(out[i, 0], out[i, 1])
            target = wrap_angle(th - cfg.offsets[i])
            expected += 1.0 - math.cos(pred - target)
        worst = max(worst, abs(loss - expected))
    single = BinConfig(1)
    exact_zero = orientation_loss([[0.0, 1.0]], 0.0, single)
    exact_two = orientation_loss([[0.0, -1.0]], 0.0, single)
    ok = worst < 1e-9 and exact_zero == 0.0 and exact_two == 2.0
    _verdict(capsys, 5, "per-bin loss equals one minus cosine gap", ok,
             f"max dev {worst:.2e}, extremes {exact_zero}/{exact_two}")


def test_criterion_06_exclusion_voting_cases(capsys):
    tau = math.radians(5.0)
    outlier = [math.radians(a) for a in (10.0, 11.0, 12.0, 100.0)]
    spread = [math.radians(a) for a in (0.0, 90.0, 180.0, -90.0)]
    equal = [math.radians(33.0)] * 4
    got = (exclusion_vote(outlier, tau), exclusion_vote(spread, tau),
           exclusion_vote(equal, tau))
    ok = got == ({3}, set(), set())
    _verdict(capsys, 6, "exclusion voting on the three constructed cases", ok,
             f"got {got[0] or '{}'}, {got[1] or '{}'}, {got[2] or '{}'}")


def test_criterion_07_gradients_match_finite_differences(capsys):
    cfg = ModelConfig(encoder_hidden=(16, 16),
                      proc_hidden=(16, 32), head_hidden=16, batch_size=8,
                      use_consistency_loss=True, seed=3)
    samples, _ = gen_dataset(SynthConfig(n=8, seed=3, context_width=8))
    model = build_model(cfg, 8)
    batch = make_batch(samples)
    report = model_gradient_check(model, batch, eps=1e-5,
                                  max_entries_per_param=25, seed=3)

    # The orientation loss reaches the dimension regressor only through the
    # gradient-truncated feed, so on its own it must leave those parameters
    # untouched.
    lg = build_loss_graph(model, batch)
    grads = lg.tape.backward(lg.terms["orientation"])
    regressor_silent = []
    encoder_live = []
    for name, nid, _ in lg.param_nodes:
        g = grads.get(nid)
        if name.startswith("dims3d_regressor"):
            regressor_silent.append(g is None or not np.any(g))
        elif name.startswith("encoder"):
            encoder_live.append(g is not None and bool(np.any(g)))
    ok = (report.max_rel_error < 1e-4 and regressor_silent
          and all(regressor_silent) and any(encoder_live))
    _verdict(capsys, 7, "finite-difference check of the full graph", ok,
             f"max rel err {report.max_rel_error:.2e}, truncated path silent")


def test_criterion_08_feedforward_beats_plain_on_holdout(capsys):
    synth = SynthConfig(n=20000, seed=0, box_noise_sd=1.0, context_noise=0.5,
                        context_width=16)
    samples, _ = gen_dataset(synth)
    train_s, val_s = _split_holdout(samples, 0.1, seed=0)
    base = dict(encoder_hidden=(64, 64),
                proc_hidden=(64, 128), head_hidden=128, batch_size=32,
                momentum=0.95,
                lr_schedule=((12000, 1e-3), (8000, 1e-4), (4000, 1e-5)))
    start = time.perf_counter()
    runs = []
    for seed in (0, 1, 2):
        for name, cfg in (
            ("proposed", ModelConfig(seed=seed, use_feedforward=True, **base)),
            ("plain", ModelConfig(seed=seed, use_feedforward=False, **base)),
        ):
            stats = evaluate_model(train(train_s, cfg).model, val_s)
            runs.append((name, seed, stats["loss"], stats["mae_deg"]))
    ok, detail = _holdout_gate(runs, time.perf_counter() - start)
    _verdict(capsys, 8, "dimension feedforward beats plain on held-out data", ok, detail)


def _holdout_gate(runs, elapsed):
    """Criterion 8's verdict and detail from (variant, seed, loss, MAE) runs.
    A run with a non-finite loss or MAE fails the gate by name: a NaN would
    make a median depend on the order of the runs."""
    bad = [f"{name} seed {seed}" for name, seed, loss, mae in runs
           if not (math.isfinite(loss) and math.isfinite(mae))]
    med = statistics.median
    prop_loss = med([loss for name, _, loss, _ in runs if name == "proposed"])
    plain_loss = med([loss for name, _, loss, _ in runs if name == "plain"])
    prop_mae = med([mae for name, _, _, mae in runs if name == "proposed"])
    ok = not bad and prop_loss < plain_loss and prop_mae <= 10.0 and elapsed <= 300.0
    detail = (f"median loss {prop_loss:.4f} vs {plain_loss:.4f}, "
              f"median MAE {prop_mae:.2f} deg, {elapsed:.0f}s")
    if bad:
        detail += f", non-finite loss or MAE: {'; '.join(bad)}"
    return ok, detail


def test_criterion_08_gate_fails_on_a_non_finite_run():
    runs = [("proposed", 0, 0.10, 5.0), ("plain", 0, 0.20, 9.0),
            ("proposed", 1, 0.11, math.nan), ("plain", 1, 0.21, 9.1),
            ("proposed", 2, 0.12, 6.0), ("plain", 2, math.inf, 9.2)]
    for order in (runs, runs[::-1]):
        ok, detail = _holdout_gate(order, 1.0)
        assert not ok and "proposed seed 1" in detail and "plain seed 2" in detail
    assert _holdout_gate([r for r in runs if r[1] == 0], 1.0)[0]


COMPARE_INI = """\
[synth]
n = 800
seed = 0
context_width = 8
box_noise_sd = 1.0
context_noise = 0.5

[model]
encoder_hidden = 16, 16
proc_hidden = 16, 32
head_hidden = 16

[train]
seed = 0
batch_size = 8
momentum = 0.9
lr_schedule = 300:1e-3,200:1e-4
holdout_fraction = 0.2
"""


def test_criterion_09_four_way_comparison(tmp_path, capsys):
    ini = tmp_path / "cmp.ini"
    ini.write_text(COMPARE_INI)
    assert main(["gen", "--config", str(ini), "--out", str(tmp_path)]) == 0
    rc = main(["compare", "--config", str(ini),
               "--data", str(tmp_path / "dataset.txt"),
               "--out", str(tmp_path / "cmp"), "--seeds", "0,1"])
    out = capsys.readouterr().out
    report = json.loads((tmp_path / "cmp" / "compare.json").read_text())
    variants = ("proposed", "proposed+consistency", "plain",
                "plain+consistency")
    ok = (rc == 0 and len(report["runs"]) == 8
          and set(report["medians"]) == set(variants)
          and all(v in out for v in variants) and "finding:" in out)
    # Whether the consistency term helps is reported, not gated.
    gap = (report["medians"]["proposed+consistency"]["val_loss"]
           - report["medians"]["proposed"]["val_loss"])
    effect = "hurts" if gap > 0 else "helps"
    _verdict(capsys, 9, "four-way comparison table", ok,
             f"seeds {report['seeds']}, consistency {effect} val loss by "
             f"{abs(gap):.4f} (reported, not gated)")


def _det(x, score=1.0, theta=0.0, size=10.0):
    return Detection((x, 0.0, x + size, size), score, theta)


def _gt(x, theta=0.0, size=10.0):
    return GroundTruth((x, 0.0, x + size, size), theta)


def test_criterion_10_orientation_similarity_metric(capsys):
    gts = [_gt(50.0 * i) for i in range(5)]
    perfect = [_det(50.0 * i, score=1.0 - 0.1 * i) for i in range(5)]
    flipped = [_det(50.0 * i, score=1.0 - 0.1 * i, theta=math.pi)
               for i in range(5)]
    aos_perfect, _ = aos(perfect, gts)
    aos_flipped, _ = aos(flipped, gts)
    aos_half, curve = aos([_det(0.0, 0.9, math.pi / 2.0)], [_gt(0.0)])

    rng = np.random.default_rng(10)
    bounded = True
    for _ in range(100):
        n_gt = int(rng.integers(1, 7))
        gts_r = [_gt(rng.uniform(0.0, 500.0), rng.uniform(-math.pi, math.pi),
                     size=rng.uniform(8.0, 30.0)) for _ in range(n_gt)]
        dets_r = []
        for _ in range(int(rng.integers(1, 9))):
            if rng.random() < 0.5:
                src = gts_r[int(rng.integers(0, n_gt))].box2d
                box = tuple(v + rng.uniform(-3.0, 3.0) for v in src)
                box = (min(box[0], box[2] - 1.0), min(box[1], box[3] - 1.0),
                       box[2], box[3])
                dets_r.append(Detection(box, rng.random(),
                                        rng.uniform(-math.pi, math.pi)))
            else:
                x = rng.uniform(600.0, 1000.0)
                dets_r.append(_det(x, rng.random(),
                                   rng.uniform(-math.pi, math.pi)))
        a, _ = aos(dets_r, gts_r)
        if a > average_precision(dets_r, gts_r) + 1e-12:
            bounded = False
            break
    ok = (aos_perfect == 1.0 and aos_flipped == 0.0 and aos_half == 0.5
          and curve == [(1.0, 0.5)] and bounded)
    _verdict(capsys, 10, "orientation-similarity landmarks and AP bound", ok,
             f"perfect {aos_perfect}, flipped {aos_flipped}, half {aos_half}")


SWEEP_INI = """\
[synth]
n = 60
seed = 0
context_width = 8
box_noise_sd = 1.0
context_noise = 0.5

[model]
encoder_hidden = 8, 8
proc_hidden = 8, 12
head_hidden = 8

[train]
seed = 0
batch_size = 8
momentum = 0.9
lr_schedule = 60:1e-3
holdout_fraction = 0.2
"""


def test_criterion_11_dimension_sweeps(tmp_path, capsys):
    ini = tmp_path / "sweep.ini"
    ini.write_text(SWEEP_INI)
    assert main(["gen", "--config", str(ini), "--out", str(tmp_path)]) == 0
    assert main(["train", "--config", str(ini),
                 "--data", str(tmp_path / "dataset.txt"),
                 "--out", str(tmp_path / "run")]) == 0
    ok_cli = True
    curves = {}
    for which in ("2d", "3d"):
        rc = main(["sweep", "--checkpoint", str(tmp_path / "run" / "model.npz"),
                   "--data", str(tmp_path / "dataset.txt"),
                   "--out", str(tmp_path / f"sw_{which}"), "--which", which])
        with open(tmp_path / f"sw_{which}" / f"sweep_{which}.csv") as fh:
            rows = list(csv.reader(fh))
        factors = [float(r[0]) for r in rows[1:]]
        curves[which] = [float(r[1]) for r in rows[1:]]
        ok_cli = (ok_cli and rc == 0 and len(rows) == 21
                  and np.allclose(factors, np.linspace(0.1, 2.0, 20)))

    # Geometry-only counterpart on a noiseless sample: walk outward from
    # factor 1.0 while the curve stays defined and continuous, then demand
    # strict monotonicity over that window.
    dims = Dims3D(1.7, 1.0, 0.5)
    theta = math.radians(160.0)
    d2 = Dims2D(50.0 * dims.h1, 50.0 * width_span(dims, theta))
    sample = TrainingSample(d2, dims, theta, np.zeros(8))
    grid = np.linspace(0.1, 2.0, 20)
    curve = analytic_selector_curve(sample, grid)
    jump = math.radians(20.0)
    lo = hi = int(np.argmin(np.abs(grid - 1.0)))
    while lo > 0 and not math.isnan(curve[lo - 1]) \
            and circ_abs_diff(curve[lo - 1], curve[lo]) < jump:
        lo -= 1
    while hi + 1 < len(curve) and not math.isnan(curve[hi + 1]) \
            and circ_abs_diff(curve[hi + 1], curve[hi]) < jump:
        hi += 1
    seg = curve[lo:hi + 1]
    steps = [circ_diff(b, a) for a, b in zip(seg, seg[1:])]
    ok_mono = len(seg) >= 5 and (all(s > 0 for s in steps)
                                 or all(s < 0 for s in steps))
    model_dir = ("rising" if curves["2d"][-1] > curves["2d"][0] else "falling")
    ok = ok_cli and ok_mono
    _verdict(capsys, 11, "width/height sweeps and selector monotonicity", ok,
             f"analytic window {len(seg)} pts over factors "
             f"{grid[lo]:.1f}-{grid[hi]:.1f}, trained 2d curve {model_dir} "
             f"(archived, not gated)")


def test_criterion_12_known_exemplar(capsys):
    d2 = Dims2D(86.0, 33.0)
    dims = Dims3D(1.68, 0.50, 0.42)
    reference = math.radians(-127.26)
    cands = invert_orientation_candidates(d2, dims).candidates
    gap = min(circ_abs_diff(c, reference) for c in cands)
    residual = consistency_residual(d2, dims, reference)
    ok = gap <= math.radians(10.0) and abs(residual - 0.63) <= 0.05
    _verdict(capsys, 12, "known exemplar inversion and residual", ok,
             f"nearest candidate {math.degrees(min(cands, key=lambda c: circ_abs_diff(c, reference))):.1f} deg "
             f"(gap {math.degrees(gap):.1f} deg), residual {residual:.3f} px*m")
