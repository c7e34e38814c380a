"""Tests for the orientation network: config, forward, loss, training."""

import dataclasses
import itertools
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import pedorient.model as model_module

from pedorient.binning import (
    DegenerateAggregateError,
    aggregate_orientation,
    encode_targets,
    exclusion_vote,
    per_bin_global_angles,
)
from pedorient.cli import (
    _holdout_fraction, _load_ini, _model_config, _split_holdout, _synth_config,
)
from pedorient.geometry import Dims2D, Dims3D, circ_abs_diff, width_span_abs
from pedorient.kitti_io import TrainingSample
from pedorient.nn_core import Tape
from pedorient.model import (
    DEFAULT_SWEEP_FACTORS,
    Batch,
    ForwardResult,
    ModelConfig,
    TrainingDivergedError,
    analytic_selector_curve,
    build_loss_graph,
    build_model,
    decode_bins,
    evaluate_model,
    forward,
    forward_batch,
    load_model,
    make_batch,
    model_gradient_check,
    named_parameters,
    predict_orientation,
    save_model,
    sgd_step,
    sweep_2d_width,
    sweep_3d_height,
    total_loss,
    train,
)
from pedorient.synth import SynthConfig, gen_dataset

WIDTH = 8  # context columns of tiny_samples
TINY = dict(encoder_hidden=(8, 8), proc_hidden=(8, 12),
            head_hidden=8, batch_size=8)


def tiny_cfg(**kw):
    return ModelConfig(**{**TINY, **kw})


def tiny_samples(n=24, seed=0, **kw):
    samples, _ = gen_dataset(SynthConfig(n=n, seed=seed, context_width=WIDTH, **kw))
    return samples


def scalar_decode(pairs, cfg):
    """The per-sample reference chain: angles, excluded bins, theta or None."""
    angles = per_bin_global_angles(pairs, cfg.bin_config())
    excluded = exclusion_vote(angles, cfg.exclusion_tau)
    try:
        return angles, excluded, aggregate_orientation(angles, excluded)
    except DegenerateAggregateError:
        return angles, excluded, None


def max_circ_gap(a, b):
    return max(circ_abs_diff(x, y) for x, y in zip(a, b))


def reference_train(samples, cfg):
    """Training with a new graph, a new backward pass and one SGD update
    per parameter array at every step, on batch indices drawn one step at
    a time.  Returns (the model, the logged totals, the number of batch
    rows where the vote dropped a bin)."""
    ref = model_module.build_model(cfg, WIDTH)
    velocities = [np.zeros_like(arr) for _, arr in named_parameters(ref)]
    data = make_batch(samples)
    rng = np.random.default_rng([cfg.seed, 1])
    totals, dropped = [], 0
    for step in range(cfg.total_steps()):
        lg = build_loss_graph(ref, data.take(rng.integers(0, len(data), size=cfg.batch_size)))
        dropped += int((lg.include_mask == 0).any(axis=1).sum())
        totals.append(sum(lg.term_values().values()))
        grads = lg.tape.backward(lg.loss)
        for (_, nid, arr), v in zip(lg.param_nodes, velocities):
            sgd_step(arr, grads.get(nid, np.zeros_like(arr)), v, cfg.lr_at(step), cfg.momentum)
    return ref, totals, dropped


WIRINGS = {"fed": dict(), "plain": dict(use_feedforward=False)}


def set_bin0_apart(model, turn):
    """Point every bin near one global angle except bin 0, turned by
    ``turn``, with small head weights so the rows still differ."""
    last = model.stacks["head"][-1]
    last.weights *= 0.05
    local = 0.3 - np.array(model.cfg.bin_config().offsets)
    local[0] += turn
    last.bias[:] = np.stack([np.sin(local), np.cos(local)], axis=1).ravel()
    return model


class TestModelConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_cfg(num_bins=0)
        with pytest.raises(ValueError):
            tiny_cfg(momentum=1.0)
        with pytest.raises(ValueError):
            tiny_cfg(proc_hidden=(8, 8, 8))
        with pytest.raises(ValueError):
            tiny_cfg(lr_schedule=())
        with pytest.raises(ValueError):
            tiny_cfg(lr_schedule=((100, -1e-3),))
        for steps in (((0, 1e-3),), ((0, 1e-3), (0, 1e-4))):
            with pytest.raises(ValueError, match="lr_schedule must total at least one step"):
                tiny_cfg(lr_schedule=steps)
        assert tiny_cfg(lr_schedule=((0, 1e-3), (1, 1e-4))).total_steps() == 1
        for widths in (dict(encoder_hidden=(0, 8)), dict(proc_hidden=(8, 0)), dict(head_hidden=0)):
            with pytest.raises(ValueError, match="widths"):
                tiny_cfg(**widths)

    def test_method_constants_are_not_fields(self):
        assert [f.name for f in dataclasses.fields(ModelConfig)] == [
            "num_bins", "encoder_hidden", "proc_hidden", "head_hidden",
            "use_feedforward", "use_consistency_loss", "seed", "batch_size", "momentum",
            "lr_schedule"]
        cfg = tiny_cfg()
        assert cfg.exclusion_tau == math.radians(15.0)
        assert cfg.consistency_weight == 0.01 and cfg.dims2d_scale == 0.01
        for key in ("exclusion_tau", "consistency_weight", "dims2d_scale"):
            with pytest.raises(TypeError, match=key):
                tiny_cfg(**{key: 0.02})

    def test_schedule_helpers(self):
        cfg = tiny_cfg(lr_schedule=((10, 1e-2), (5, 1e-3)))
        assert cfg.total_steps() == 15
        assert cfg.lr_at(0) == 1e-2
        assert cfg.lr_at(9) == 1e-2
        assert cfg.lr_at(10) == 1e-3
        assert cfg.lr_at(999) == 1e-3

    def test_bin_config(self):
        assert tiny_cfg(num_bins=6).bin_config().num_bins == 6


class TestBuildModel:
    def test_seeded_and_distinct(self):
        a = build_model(tiny_cfg(seed=1), WIDTH)
        b = build_model(tiny_cfg(seed=1), WIDTH)
        c = build_model(tiny_cfg(seed=2), WIDTH)
        for (na, pa), (nb, pb) in zip(named_parameters(a), named_parameters(b)):
            assert na == nb and np.array_equal(pa, pb)
        assert any(not np.array_equal(pa, pc)
                   for (_, pa), (_, pc) in zip(named_parameters(a), named_parameters(c)))

    def test_stack_layout(self):
        full = build_model(tiny_cfg(), WIDTH)
        assert list(full.stacks) == [
            "encoder", "dims3d_regressor", "proc2d", "proc3d", "head",
        ]
        plain = build_model(tiny_cfg(use_feedforward=False), WIDTH)
        assert list(plain.stacks) == ["encoder", "dims3d_regressor", "head"]

    @pytest.mark.parametrize("source", ["build_model", "train", "load_model"])
    @pytest.mark.parametrize("feedforward", [False, True])
    def test_parameters_are_views_of_one_array(self, tmp_path, source, feedforward):
        cfg = tiny_cfg(use_feedforward=feedforward, lr_schedule=((5, 1e-3),))
        model = build_model(cfg, WIDTH)
        if source == "train":
            model = train(tiny_samples(10), cfg).model
        elif source == "load_model":
            save_model(train(tiny_samples(10), cfg).model, tmp_path / "model.npz")
            model = load_model(tmp_path / "model.npz")
        order = ["encoder", "dims3d_regressor", *(["proc2d", "proc3d"] if feedforward else []),
                 "head"]
        assert list(model.stacks) == order
        assert model.params.dtype == np.float64 and model.params.ndim == 1
        for stack in model.stacks.values():
            for layer in stack:
                for arr in (layer.weights, layer.bias):
                    assert np.shares_memory(arr, model.params)
        flat = np.concatenate([a.ravel() for _, a in named_parameters(model)])
        assert np.array_equal(flat, model.params)
        # Writing through the flat array reaches every layer.
        model.params[...] = 0.0
        assert all(not a.any() for _, a in named_parameters(model))

    def test_named_parameters(self):
        model = build_model(tiny_cfg(), WIDTH)
        names = [n for n, _ in named_parameters(model)]
        assert "encoder.0.weights" in names
        assert "head.1.bias" in names
        # 9 layers, each with weights and bias.
        assert len(names) == 18
        plain = build_model(tiny_cfg(use_feedforward=False), WIDTH)
        assert len(named_parameters(plain)) == 10

    def test_init_matches_independent_reference(self):
        # The layer table written out by hand; layer li of stack si draws
        # uniform(-limit, limit) from default_rng([seed, si, li]), with He
        # limits before a ReLU, Xavier limits on the two linear outputs,
        # and zero biases; the last weight block of proc2d and of proc3d is
        # then multiplied by 0.1.
        for (wiring, kw), bins, seed in itertools.product(WIRINGS.items(), (1, 4), (0, 7)):
            cfg = tiny_cfg(num_bins=bins, seed=seed, **kw)
            c, (e0, e1), (p0, p1), hh = (WIDTH, cfg.encoder_hidden,
                                         cfg.proc_hidden, cfg.head_hidden)
            stacks = [("encoder", [(c, e0, True, 1), (e0, e1, True, 1)]),
                      ("dims3d_regressor", [(e1, 3, False, 1)])]
            if wiring != "plain":
                stacks += [("proc2d", [(2, p0, True, 1), (p0, p1, True, 0.1)]),
                           ("proc3d", [(3, p0, True, 1), (p0, p1, True, 0.1)])]
            head_in = e1 if wiring == "plain" else e1 + 2 * p1
            stacks += [("head", [(head_in, hh, True, 1), (hh, 2 * bins, False, 1)])]
            names, arrays = [], []
            for si, (name, layers) in enumerate(stacks):
                for li, (n_in, n_out, relu, scale) in enumerate(layers):
                    limit = math.sqrt(6.0 / n_in) if relu else math.sqrt(6.0 / (n_in + n_out))
                    w = scale * np.random.default_rng([seed, si, li]).uniform(
                        -limit, limit, size=(n_out, n_in))
                    names += [f"{name}.{li}.weights", f"{name}.{li}.bias"]
                    arrays += [w, np.zeros(n_out)]
            model = build_model(cfg, WIDTH)
            assert [(n, a.shape) for n, a in named_parameters(model)] == \
                [(n, a.shape) for n, a in zip(names, arrays)], wiring
            want = np.concatenate([a.ravel() for a in arrays])
            assert model.params.tobytes() == want.tobytes(), (wiring, bins, seed)
            assert [layer.relu for stack in model.stacks.values() for layer in stack] == \
                [relu for _, layers in stacks for _, _, relu, _ in layers]

    def test_context_width_is_an_argument(self):
        for width in (1, 3, 9):
            model = build_model(tiny_cfg(), width)
            assert model.context_width == width
            assert model.stacks["encoder"][0].weights.shape == (8, width)
        for width in (0, -1):
            with pytest.raises(ValueError, match="context_width must be >= 1"):
                build_model(tiny_cfg(), width)
        with pytest.raises(TypeError):
            build_model(tiny_cfg())

    def test_head_width_scales_with_bins(self):
        for bins in (2, 4, 5):
            model = build_model(tiny_cfg(num_bins=bins), WIDTH)
            head_out = dict(named_parameters(model))["head.1.weights"]
            assert head_out.shape[0] == 2 * bins


class TestBatch:
    def test_make_batch_shapes(self):
        samples = tiny_samples(10)
        batch = make_batch(samples)
        assert len(batch) == 10
        assert batch.context.shape == (10, 8)
        assert batch.dims2d.shape == (10, 2)
        assert batch.dims3d.shape == (10, 3)
        assert batch.theta.shape == (10,)
        np.testing.assert_allclose(batch.dims2d[3],
                                   [samples[3].dims2d.h, samples[3].dims2d.w])

    def test_take(self):
        batch = make_batch(tiny_samples(10))
        sub = batch.take(np.array([7, 2]))
        assert len(sub) == 2
        np.testing.assert_array_equal(sub.theta, batch.theta[[7, 2]])


class TestForward:
    def test_shapes(self):
        cfg = tiny_cfg(num_bins=4)
        model = build_model(cfg, WIDTH)
        batch = make_batch(tiny_samples(6))
        dims_pred, bin_out = forward_batch(model, batch)
        assert dims_pred.shape == (6, 3)
        assert bin_out.shape == (6, 8)

    def test_h1_scale_inert_without_feedforward(self):
        model = build_model(tiny_cfg(use_feedforward=False), WIDTH)
        batch = make_batch(tiny_samples(4))
        _, a = forward_batch(model, batch)
        _, b = forward_batch(model, batch, h1_feed_scale=3.0)
        assert np.array_equal(a, b)

    def test_h1_scale_alters_feedforward_model(self):
        model = build_model(tiny_cfg(), WIDTH)
        batch = make_batch(tiny_samples(4))
        _, a = forward_batch(model, batch)
        _, b = forward_batch(model, batch, h1_feed_scale=3.0)
        assert not np.array_equal(a, b)

    def test_single_sample_result_consistent(self):
        model = build_model(tiny_cfg(), WIDTH)
        sample = tiny_samples(3)[1]
        r = forward(model, sample)
        assert r.bin_outputs.shape == (4, 2)
        assert r.per_bin_angles is not None and len(r.per_bin_angles) == 4
        want = aggregate_orientation(r.per_bin_angles, r.excluded)
        assert r.theta_pred == pytest.approx(want)
        theta, r2 = predict_orientation(model, sample)
        assert theta == r.theta_pred

    def test_degenerate_head_reported(self):
        model = build_model(tiny_cfg(), WIDTH)
        for layer in model.stacks["head"]:
            layer.weights[...] = 0.0
        samples = tiny_samples(2)
        # The head outputs its last bias: all zero, then bin 1 not finite.
        good = [0.3, 1.0] * 4
        for bias, want in (([0.0] * 8, (0, 1, 2, 3)),
                           (good[:2] + [np.nan, 1.0] + good[4:], (1,)),
                           (good[:2] + [0.3, np.inf] + good[4:], (1,))):
            model.stacks["head"][-1].bias[...] = bias
            r = forward(model, samples[0])
            assert r.degenerate_bins == want
            assert r.theta_pred is None and r.per_bin_angles is None
            with pytest.raises(ValueError, match="degenerate"):
                predict_orientation(model, samples[0])
            assert evaluate_model(model, samples)["n_undefined"] == 2


    def test_apply_stack_matches_manual(self):
        # The value-only forward is x @ W.T + b, then max(., 0) on ReLU
        # layers, bit for bit, and leaves its input alone.
        rng = np.random.default_rng(42)
        relu, linear = build_model(tiny_cfg(), WIDTH).stacks["head"]
        assert relu.relu and not linear.relu
        for layer in (relu, linear):
            layer.bias[...] = rng.normal(size=layer.bias.shape)
        x = rng.normal(size=(7, relu.weights.shape[1]))
        x_before = x.copy()
        hidden = np.maximum(x @ relu.weights.T + relu.bias, 0.0)
        assert np.array_equal(model_module._apply_stack([relu], x), hidden)
        assert np.array_equal(model_module._apply_stack([relu, linear], x),
                              hidden @ linear.weights.T + linear.bias)
        assert np.array_equal(x, x_before)


class TestDecodeBins:
    def test_rows_match_scalar_chain(self):
        rng = np.random.default_rng(3)
        for b in range(1, 7):
            cfg = tiny_cfg(num_bins=b)
            bcfg = cfg.bin_config()
            rows = [rng.normal(size=(b, 2)) for _ in range(20)]
            for _ in range(20):  # consistent bins, some with one outlier
                row = encode_targets(rng.uniform(-math.pi, math.pi), bcfg)
                row += rng.normal(scale=0.05, size=(b, 2))
                if rng.random() < 0.5:
                    row[rng.integers(b)] = rng.normal(size=2)
                rows.append(row * rng.uniform(0.1, 10.0))
            for bad in ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (np.nan, 1.0), (0.5, np.inf)):
                row = rng.normal(size=(b, 2))
                row[rng.integers(b)] = bad
                rows.append(row)
            for signed_zero in ((-0.0, 1.0), (0.0, -1.0), (-0.0, -1.0), (1.0, -0.0)):
                rows.append(np.tile(signed_zero, (b, 1)))  # valid, on the axes
            if b == 2:  # global angles 0 and pi cancel
                rows.append(np.array([[1.0, 0.0], [1.0, 0.0]]))
            dec = decode_bins(np.stack(rows).reshape(len(rows), 2 * b), cfg)
            for i, row in enumerate(rows):
                want_bad = ~np.isfinite(row).all(axis=1) | (row == 0.0).all(axis=1)
                assert np.array_equal(dec.degenerate[i], want_bad)
                if want_bad.any():
                    assert not dec.defined[i] and math.isnan(dec.theta[i])
                    continue
                angles, excluded, theta = scalar_decode(row, cfg)
                assert max_circ_gap(dec.angles[i], angles) <= 1e-12
                assert {j for j in range(b) if not dec.include[i, j]} == excluded
                assert dec.defined[i] == (theta is not None)
                if theta is not None:
                    assert circ_abs_diff(dec.theta[i], theta) <= 1e-12
            assert b != 2 or not dec.defined[-1]


class TestLossGraph:
    def test_matches_reference_loss(self):
        samples = tiny_samples(6)
        configs = [dict(), dict(use_feedforward=False)]
        configs += [dict(use_consistency_loss=True, num_bins=b, use_feedforward=ff)
                    for b in range(1, 7) for ff in (True, False)]
        for kw in configs:
            cfg = tiny_cfg(**kw)
            # Bin 0 half a turn from the others: the vote drops it where the
            # others stay within tau of each other.
            model = set_bin0_apart(build_model(cfg, WIDTH), math.pi)

            lg = build_loss_graph(model, make_batch(samples))
            if cfg.num_bins >= 3:
                assert not lg.include_mask.all(), kw
            refs = [total_loss(forward(model, s), s, cfg) for s in samples]
            ref_total = np.mean([total for total, _ in refs])
            assert lg.loss_value() == pytest.approx(ref_total, rel=1e-9), kw
            got_terms = lg.term_values()
            for key in refs[0][1]:
                if key == "consistency" and not cfg.use_consistency_loss:
                    assert key not in got_terms
                    continue
                want = np.mean([terms[key] for _, terms in refs])
                assert got_terms[key] == pytest.approx(want, rel=1e-9, abs=1e-12), (kw, key)

    def test_batch_loss_is_mean_of_samples(self):
        cfg = tiny_cfg()
        model = build_model(cfg, WIDTH)
        samples = tiny_samples(6)
        whole = build_loss_graph(model, make_batch(samples)).loss_value()
        singles = [build_loss_graph(model, make_batch([s])).loss_value()
                   for s in samples]
        assert whole == pytest.approx(np.mean(singles), rel=1e-12)

    def test_orientation_only_stops_dims_gradient(self):
        cfg = tiny_cfg()
        model = build_model(cfg, WIDTH)
        batch = make_batch(tiny_samples(4))
        lg = build_loss_graph(model, batch)
        grads = lg.tape.backward(lg.terms["orientation"])
        by_name = {name: grads.get(nid) for name, nid, _ in lg.param_nodes}
        # The dims regressor feeds the orientation head only through a
        # stop-gradient, so the orientation term alone leaves it untouched.
        assert by_name["dims3d_regressor.0.weights"] is None
        assert by_name["encoder.0.weights"] is not None

    def test_dims_term_reaches_regressor(self):
        cfg = tiny_cfg()
        model = build_model(cfg, WIDTH)
        batch = make_batch(tiny_samples(4))
        lg = build_loss_graph(model, batch)
        grads = lg.tape.backward(lg.terms["dims"])
        by_name = {name: grads.get(nid) for name, nid, _ in lg.param_nodes}
        assert by_name["dims3d_regressor.0.weights"] is not None
        assert by_name["head.0.weights"] is None

    def test_data_leaves_take_no_gradient(self, monkeypatch):
        # The default wiring reads the batch through data leaves (context,
        # scaled 2D dims, true 3D dims): backward computes no gradient for
        # them, and the parameter gradients are those of the same graph
        # with ordinary leaves in their place.
        model = build_model(tiny_cfg(), WIDTH)
        batch = make_batch(tiny_samples(6))
        lg = build_loss_graph(model, batch)
        grads = lg.tape.backward(lg.loss)
        data = {i for i, node in enumerate(lg.tape.nodes) if node.op == "data"}
        assert len(data) == 3 and not data & grads.keys()

        monkeypatch.setattr(Tape, "data", Tape.leaf)
        ref = build_loss_graph(model, batch)
        ref_grads = ref.tape.backward(ref.loss)
        assert data <= ref_grads.keys()
        assert [(name, nid) for name, nid, _ in ref.param_nodes] == \
            [(name, nid) for name, nid, _ in lg.param_nodes]
        for name, nid, _ in lg.param_nodes:
            assert np.array_equal(grads[nid], ref_grads[nid]), name

    def test_each_call_returns_a_new_graph(self):
        model = build_model(tiny_cfg(), WIDTH)
        first = build_loss_graph(model, make_batch(tiny_samples(4, seed=1)))
        loss, mask = first.loss_value(), first.include_mask.copy()
        second = build_loss_graph(model, make_batch(tiny_samples(4, seed=2)))
        assert second.tape is not first.tape
        assert first.loss_value() == loss and np.array_equal(first.include_mask, mask)

    @pytest.mark.parametrize("bins", [1, 4])
    @pytest.mark.parametrize("wiring", WIRINGS)
    def test_graph_runs_the_forward_wiring(self, wiring, bins):
        # forward_batch and the loss graph run one wiring: the graph's
        # regressor and head values are forward_batch's outputs, bit for bit.
        # Its value-only nodes are the vote on the head output and, on the
        # fed wiring only, the stop-gradient copy of the regressor output.
        cfg = tiny_cfg(num_bins=bins, use_consistency_loss=True, **WIRINGS[wiring])
        model = build_model(cfg, WIDTH)
        batch = make_batch(tiny_samples(6))
        dims_pred, head_out = forward_batch(model, batch)
        lg = build_loss_graph(model, batch)
        nodes = lg.tape.nodes
        reg_w = {name: nid for name, nid, _ in lg.param_nodes}["dims3d_regressor.0.weights"]
        [reg] = [i for i, node in enumerate(nodes)
                 if node.op == "affine" and node.parents[1] == reg_w]
        *feed, vote = [node for node in nodes if node.op == "value_only"]
        assert np.array_equal(nodes[reg].value, dims_pred)
        assert np.array_equal(nodes[vote.parents[0]].value, head_out)
        assert vote.value is lg.include_mask
        assert len(feed) == (wiring == "fed")
        for node in feed:
            assert node.parents == (reg,) and np.array_equal(node.value, dims_pred)

    @pytest.mark.parametrize("bins", [1, 4])
    @pytest.mark.parametrize("wiring", WIRINGS)
    def test_replay_equals_a_fresh_build(self, wiring, bins):
        cfg = tiny_cfg(num_bins=bins, use_consistency_loss=True, **WIRINGS[wiring])
        # Bin 0 just over tau from the others: the vote differs between
        # rows and between the two batches.
        turn = (1.15 if cfg.use_feedforward else 1.05) * cfg.exclusion_tau
        model = set_bin0_apart(build_model(cfg, WIDTH), turn)
        lg = build_loss_graph(model, make_batch(tiny_samples(8, seed=1)))
        lg.tape.backward(lg.loss)
        first_mask = lg.include_mask.copy()
        batch = make_batch(tiny_samples(8, seed=2))
        replayed = build_loss_graph(model, batch, replay=lg)
        fresh = build_loss_graph(model, batch)
        assert replayed is lg
        assert replayed.loss_value() == fresh.loss_value()
        assert replayed.term_values() == fresh.term_values()
        assert np.array_equal(replayed.include_mask, fresh.include_mask)
        if bins > 1:
            assert not np.array_equal(fresh.include_mask, first_mask)
        for a, b in zip(replayed.tape.nodes, fresh.tape.nodes, strict=True):
            if a.op == "value_only":
                assert np.array_equal(a.value, b.value)
        got = replayed.tape.backward(replayed.loss)
        want = fresh.tape.backward(fresh.loss)
        for (name, nid, _), (_, fid, _) in zip(replayed.param_nodes, fresh.param_nodes):
            assert np.array_equal(got[nid], want[fid]), name
        with pytest.raises(ValueError, match="rows"):
            build_loss_graph(model, make_batch(tiny_samples(3)), replay=lg)


class TestTraining:
    def test_log_and_determinism(self):
        samples = tiny_samples(40)
        cfg = tiny_cfg(seed=3, lr_schedule=((30, 1e-3), (10, 1e-4)))
        a = train(samples, cfg)
        b = train(samples, cfg)
        assert len(a.log) == 40
        assert a.log[0].lr == 1e-3 and a.log[29].lr == 1e-3
        assert a.log[30].lr == 1e-4
        assert all(ra == rb for ra, rb in zip(a.log, b.log))
        for (na, pa), (nb, pb) in zip(named_parameters(a.model),
                                      named_parameters(b.model)):
            assert na == nb and np.array_equal(pa, pb)

    def test_loss_decreases(self):
        samples = tiny_samples(40)
        cfg = tiny_cfg(seed=0, lr_schedule=((300, 1e-3),))
        res = train(samples, cfg)
        first = np.mean([r.total for r in res.log[:20]])
        last = np.mean([r.total for r in res.log[-20:]])
        assert last < 0.7 * first

    def test_overfits_single_sample(self):
        samples = tiny_samples(1)
        cfg = tiny_cfg(seed=0, batch_size=2, lr_schedule=((600, 1e-2),))
        res = train(samples, cfg)
        assert res.log[-1].total < 1e-6

    def test_matches_per_array_update_loop(self, monkeypatch):
        # train() records the loss graph once, replays it on every later step
        # and updates every parameter through one flat buffer; the result must
        # equal a new graph, a new backward pass and one SGD update per array
        # at every step, bit for bit.  Bin 0 starts just over tau from the
        # other bins, so the vote drops it on some rows and keeps it on others.
        monkeypatch.setattr(model_module, "build_model",
                            lambda c, w: set_bin0_apart(build_model(c, w), 1.05 * c.exclusion_tau))
        samples = tiny_samples(40)
        for kw, cons, bins in itertools.product(WIRINGS.values(), (False, True), (1, 4, 6)):
            kw = dict(kw, use_consistency_loss=cons, num_bins=bins)
            cfg = tiny_cfg(seed=2, momentum=0.9, lr_schedule=((25, 1e-3), (5, 1e-4)), **kw)
            got = train(samples, cfg)
            ref, totals, dropped = reference_train(samples, cfg)
            assert [row.total for row in got.log] == totals, kw
            if bins > 1:
                assert 0 < dropped < cfg.total_steps() * cfg.batch_size, kw
            for (name, a), (_, b) in zip(named_parameters(got.model), named_parameters(ref)):
                assert np.array_equal(a, b), (kw, name)

    def test_index_blocks_match_per_step_draws(self):
        # train draws its batch indices a block of steps at a time; a
        # schedule that crosses a block boundary, at an odd batch size,
        # trains on the indices of one draw per step, bit for bit.
        assert model_module._INDEX_BLOCK < 1030
        cfg = tiny_cfg(use_consistency_loss=True, batch_size=7, seed=3,
                       lr_schedule=((1030, 1e-3),))
        samples = tiny_samples(40)
        got = train(samples, cfg)
        ref, totals, _ = reference_train(samples, cfg)
        assert [row.total for row in got.log] == totals
        assert np.array_equal(got.model.params, ref.params)

    @pytest.mark.parametrize("data_seed, model_seed", [(24, 10), (2, 19)])
    def test_consistency_trains_at_desk_widths(self, data_seed, model_seed):
        # The benchmark's plain + consistency runs: desk.ini's model and
        # generator, 5000 samples, its hold-out split, 1000 steps at 1e-3
        # and 500 at 1e-4.  With residuals in pixel-meters these two pairs
        # went non-finite at step 443 and peaked at a loss of 2.4e25.
        cp = _load_ini(Path(__file__).resolve().parents[1] / "configs" / "desk.ini")
        samples, _ = gen_dataset(dataclasses.replace(_synth_config(cp), n=5000, seed=data_seed))
        cfg = dataclasses.replace(_model_config(cp), use_feedforward=False,
                                  use_consistency_loss=True, seed=model_seed,
                                  lr_schedule=((1000, 1e-3), (500, 1e-4)))
        train_s, val_s = _split_holdout(samples, _holdout_fraction(cp), _model_config(cp).seed)
        res = train(train_s, cfg)
        assert max(r.total for r in res.log) < 1e3
        assert evaluate_model(res.model, val_s)["mae_deg"] < 20.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detected(self):
        samples = tiny_samples(20)
        cfg = tiny_cfg(seed=0, lr_schedule=((200, 1e12),))
        with pytest.raises(TrainingDivergedError) as exc_info:
            train(samples, cfg)
        assert isinstance(exc_info.value.step, int)

    def test_trains_at_the_width_of_its_data(self):
        # No config names the width: a 9-wide dataset gives a 9-wide encoder.
        samples = gen_dataset(SynthConfig(n=12, seed=1, context_width=9))[0]
        model = train(samples, tiny_cfg(lr_schedule=((4, 1e-3),))).model
        assert model.context_width == 9
        assert model.stacks["encoder"][0].weights.shape == (8, 9)
        with pytest.raises(ValueError, match="context width 8 != model 9"):
            forward_batch(model, make_batch(tiny_samples(2)))

    def test_empty_sample_list_is_rejected_before_building(self):
        with pytest.raises(ValueError, match="empty sample list"):
            train([], tiny_cfg())


class TestEvaluate:
    def test_metrics_keys_and_composition(self):
        samples = tiny_samples(30)
        cfg = tiny_cfg(seed=0, lr_schedule=((200, 1e-3),))
        res = train(samples, cfg)
        m = evaluate_model(res.model, samples)
        assert set(m) == {"loss", "dims_loss", "orientation_loss",
                          "mae_deg", "n", "n_undefined"}
        assert m["n"] == 30
        if m["n_undefined"] == 0:
            assert m["loss"] == pytest.approx(m["dims_loss"] + m["orientation_loss"])
        assert 0.0 <= m["mae_deg"] <= 180.0

    def test_mae_matches_single_sample_forwards(self):
        samples = tiny_samples(12)
        cfg = tiny_cfg(seed=1, lr_schedule=((100, 1e-3),))
        model = train(samples, cfg).model
        m = evaluate_model(model, samples)
        errs = []
        for s in samples:
            r = forward(model, s)
            if r.theta_pred is not None:
                errs.append(math.degrees(circ_abs_diff(r.theta_pred, s.theta)))
        assert m["mae_deg"] == pytest.approx(np.mean(errs), rel=1e-9)


class TestSweeps:
    def test_default_factor_grid(self):
        assert len(DEFAULT_SWEEP_FACTORS) == 20
        assert DEFAULT_SWEEP_FACTORS[0] == pytest.approx(0.1)
        assert DEFAULT_SWEEP_FACTORS[-1] == pytest.approx(2.0)

    def test_width_sweep_runs(self):
        model = build_model(tiny_cfg(), WIDTH)
        s = tiny_samples(1)[0]
        rows = sweep_2d_width(model, s, factors=(0.5, 1.0, 1.5))
        assert len(rows) == 3 and all(isinstance(r, ForwardResult) for r in rows)
        with pytest.raises(ValueError):
            sweep_2d_width(model, s, factors=(0.0, 1.0))

    def test_overflowing_factor_is_named_without_warnings(self):
        model = build_model(tiny_cfg(), WIDTH)
        s = tiny_samples(1)[0]
        # The height as the two-row sweep predicts it, to the last bit.
        h1 = float(forward_batch(model, make_batch([s, s]))[0][0, 0])
        w = s.dims2d.w
        cases = [(sweep_2d_width, 1e308, f"2D width {w!r} to inf, not finite and > 0"),
                 (sweep_2d_width, math.nan, f"2D width {w!r} to nan, not finite and > 0"),
                 (sweep_3d_height, math.inf, f"fed 3D height {h1!r} to {h1 * math.inf!r},"
                                             " not finite"),
                 (sweep_3d_height, math.nan, f"fed 3D height {h1!r} to nan, not finite")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sweep, factor, what in cases:
                with pytest.raises(ValueError) as info:
                    sweep(model, s, factors=(1.0, factor))
                assert str(info.value) == f"factor {factor!r} scales the {what}"
            # Widths each finite, though their sum overflows, are swept.
            big = 0.9e308 / w
            assert all(r.theta_pred is not None
                       for r in sweep_2d_width(model, s, factors=(big, big)))
            # A finite fed height whose processor outputs overflow.
            model.stacks["proc3d"][0].weights[:, 0] = 1e308
            with pytest.raises(ValueError, match="where the network's outputs overflow$"):
                sweep_3d_height(model, s, factors=(1.0, -10.0))

    def test_batched_sweeps_match_per_factor_forward(self, monkeypatch):
        s = tiny_samples(1)[0]
        factors = tuple(np.linspace(0.2, 2.0, 7))

        def width_scaled(f):
            return TrainingSample(Dims2D(s.dims2d.h, s.dims2d.w * f),
                                  s.dims3d, s.theta, s.context), 1.0

        # Three bins and a wide tau, so the vote fires on these models.
        monkeypatch.setattr(ModelConfig, "exclusion_tau", 1.0)
        fired = 0
        for kw in WIRINGS.values():
            cfg = tiny_cfg(seed=2, num_bins=3, lr_schedule=((40, 1e-3),), **kw)
            model = train(tiny_samples(16), cfg).model
            for sweep, per_factor in ((sweep_2d_width, width_scaled),
                                      (sweep_3d_height, lambda f: (s, f))):
                rows = sweep(model, s, factors)
                assert len(rows) == len(factors)
                for p, f in zip(rows, factors):
                    sample, scale = per_factor(f)
                    _, out = forward_batch(model, make_batch([sample]), h1_feed_scale=scale)
                    angles, excluded, theta = scalar_decode(out.reshape(-1, 2), cfg)
                    assert p.excluded == excluded
                    fired += len(excluded)
                    assert max_circ_gap(p.per_bin_angles, angles) <= 1e-12
                    assert (p.theta_pred is None) == (theta is None)
                    if theta is not None:
                        assert circ_abs_diff(p.theta_pred, theta) <= 1e-12
        assert fired > 0

    def test_points_match_forward_rows_on_undefined_rows(self, monkeypatch):
        # Row 1's bin 0 is exactly (0, 0); row 2's two bins point at global
        # angles 0 and pi, which cancel.  Each sweep row must say why its
        # orientation is undefined, as forward does.
        model = build_model(tiny_cfg(num_bins=2), WIDTH)
        s = tiny_samples(1)[0]
        factors = (0.5, 1.0, 1.5, 2.0)
        real_forward = model_module.forward_batch

        def forced(m, batch, h1_feed_scale=1.0):
            dims, out = real_forward(m, batch, h1_feed_scale)
            out[1] = (0.0, 0.0, 0.3, 1.0)
            out[2] = (1.0, 0.0, 1.0, 0.0)
            return dims, out

        monkeypatch.setattr(model_module, "forward_batch", forced)
        for rows in (sweep_2d_width(model, s, factors), sweep_3d_height(model, s, factors)):
            assert len(rows) == len(factors)
            assert (rows[1].theta_pred, rows[1].per_bin_angles, rows[1].excluded,
                    rows[1].degenerate_bins) == (None, None, set(), (0,))
            assert rows[2].theta_pred is None and len(rows[2].per_bin_angles) == 2
            assert rows[2].degenerate_bins == ()
            assert rows[0].theta_pred is not None and rows[3].theta_pred is not None

    def test_height_sweep_inert_for_plain_model(self):
        model = build_model(tiny_cfg(use_feedforward=False), WIDTH)
        s = tiny_samples(1)[0]
        points = sweep_3d_height(model, s, factors=(0.5, 1.0, 2.0))
        thetas = {p.theta_pred for p in points}
        assert len(thetas) == 1

    def test_height_sweep_moves_feedforward_model(self):
        model = build_model(tiny_cfg(), WIDTH)
        s = tiny_samples(1)[0]
        points = sweep_3d_height(model, s, factors=tuple(np.linspace(0.2, 2.0, 10)))
        thetas = {p.theta_pred for p in points if p.theta_pred is not None}
        assert len(thetas) > 1

    def test_analytic_curve_recovers_truth_at_unit_factor(self):
        samples, _ = gen_dataset(SynthConfig(n=10, seed=2, context_width=8,
                                             box_noise_sd=0.0))
        for s in samples:
            got = analytic_selector_curve(s, factors=(1.0,))[0]
            assert circ_abs_diff(got, s.theta) < 1e-6

    def test_analytic_curve_nan_when_infeasible(self):
        dims = Dims3D(1.7, 0.6, 0.6)
        theta = math.pi / 4  # span at its maximum; any factor > 1 is out
        h = 100.0
        w = h * width_span_abs(dims, theta) / dims.h1
        s = TrainingSample(Dims2D(h, w), dims, theta, np.zeros(8))
        vals = analytic_selector_curve(s, factors=(1.0, 1.5))
        assert not math.isnan(vals[0])
        assert math.isnan(vals[1])


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        cfg = tiny_cfg(seed=4, use_consistency_loss=True)
        model = train(tiny_samples(10), cfg).model
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.cfg == cfg
        for (na, pa), (nb, pb) in zip(named_parameters(model),
                                      named_parameters(loaded)):
            assert na == nb
            assert np.array_equal(pa, pb)
        batch = make_batch(tiny_samples(5))
        _, a = forward_batch(model, batch)
        _, b = forward_batch(loaded, batch)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("width", [3, 9])
    def test_roundtrip_bit_exact_at_each_width(self, tmp_path, width):
        samples = gen_dataset(SynthConfig(n=8, seed=2, context_width=width))[0]
        model = train(samples, tiny_cfg(lr_schedule=((3, 1e-3),))).model
        save_model(model, tmp_path / "model.npz")
        loaded = load_model(tmp_path / "model.npz")
        assert loaded.context_width == width
        assert loaded.params.tobytes() == model.params.tobytes()
        batch = make_batch(samples)
        for a, b in zip(forward_batch(model, batch), forward_batch(loaded, batch)):
            assert a.tobytes() == b.tobytes()

    def test_version_gate(self, tmp_path):
        model = build_model(tiny_cfg(), WIDTH)
        path = tmp_path / "model.npz"
        save_model(model, path)
        with np.load(path, allow_pickle=False) as data:
            payload = {k: data[k] for k in data.files}
        meta = json.loads(str(payload["__meta__"][()]))
        meta["format_version"] = 99
        payload["__meta__"] = np.array(json.dumps(meta))
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    def test_rejects_bad_checkpoints(self, tmp_path):
        model = build_model(tiny_cfg(), WIDTH)
        path = tmp_path / "model.npz"
        save_model(model, path)
        with np.load(path, allow_pickle=False) as data:
            good = {k: data[k] for k in data.files}
        meta = json.loads(str(good["__meta__"][()]))

        def with_config(drop=None, **change):
            cfg = {k: v for k, v in meta["config"].items() if k != drop}
            return {**good, "__meta__": np.array(json.dumps({**meta, "config": {**cfg, **change}}))}

        cases = [
            (with_config(use_feedfoward=True), "use_feedfoward"),
            (with_config(drop="momentum"), "momentum"),
            (with_config(num_bins=4.0), "num_bins"),
            (with_config(encoder_hidden=[8]), "encoder_hidden"),
            # Written when the method's constants were fields.
            (with_config(consistency_weight=0.01, exclusion_tau=math.radians(15.0),
                         dims2d_scale=0.01),
             "unknown keys ['consistency_weight', 'dims2d_scale', 'exclusion_tau']"),
            ({**good, "head__1__bias": np.zeros(1)}, "head.1.bias"),
            ({**good, "head__1__bias": np.full(8, np.nan)}, "head.1.bias"),
            ({k: v for k, v in good.items() if k != "encoder__0__weights"},
             "encoder.0.weights"),
            ({**good, "extra__0__bias": np.zeros(3)}, "extra.0.bias"),
            ({k: v for k, v in good.items() if k != "__meta__"}, "__meta__"),
            ({**good, "__meta__": np.array(json.dumps([1, 2]))}, "__meta__"),
        ]
        for payload, name in cases:
            np.savez(path, **payload)
            with pytest.raises(ValueError, match=re.escape(name)) as info:
                load_model(path)
            assert str(path) in str(info.value)

    @staticmethod
    def assert_config_key_rejected(path, key, value):
        """A checkpoint whose config also names ``key`` is rejected by it."""
        save_model(build_model(tiny_cfg(), WIDTH), path)
        with np.load(path, allow_pickle=False) as data:
            payload = {k: data[k] for k in data.files}
        meta = json.loads(str(payload["__meta__"][()]))
        meta["config"][key] = value
        np.savez(path, **{**payload, "__meta__": np.array(json.dumps(meta))})
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value) == (f"checkpoint {path}: ModelConfig: unknown keys"
                                   f" [{key!r}], missing keys []")

    @pytest.mark.parametrize("value", [False, True])
    def test_rejects_a_config_naming_teacher_forcing(self, tmp_path, value):
        # The fed wiring is the only one; a config that names the deleted
        # teacher_force_dims3d field is rejected by name.
        self.assert_config_key_rejected(tmp_path / "model.npz", "teacher_force_dims3d", value)

    def test_rejects_a_config_naming_context_width(self, tmp_path):
        # Written when the width was a field; the encoder's array holds it now.
        self.assert_config_key_rejected(tmp_path / "model.npz", "context_width", WIDTH)


class TestGradientCheck:
    def test_full_graph_passes(self):
        cfg = tiny_cfg(seed=0, use_consistency_loss=True)
        model = build_model(cfg, WIDTH)
        batch = make_batch(tiny_samples(6))
        report = model_gradient_check(model, batch, max_entries_per_param=6)
        assert report.max_rel_error < 1e-4
        assert all(isinstance(name, str) and err >= 0.0
                   for name, err in report.per_param)

    def test_holds_the_vote_and_the_feed(self):
        # Each quotient reruns every node but the value-only ones, which
        # backward holds.  On the fed wiring the regressor reaches the
        # orientation term only through the fed dimensions: rerun, the feed
        # would add that path to the regressor's quotients.
        batch = make_batch(tiny_samples(6))
        model = build_model(tiny_cfg(seed=0), WIDTH)
        report = model_gradient_check(model, batch, max_entries_per_param=6)
        assert dict(report.per_param)["dims3d_regressor.0.weights"] < 1e-4
        # Every row puts bin 0 just over tau from three coinciding bins, so
        # a step of eps on the head moves it inside tau on one side: a rerun
        # vote would make the loss jump.
        cfg = tiny_cfg(seed=0, use_feedforward=False)
        model = set_bin0_apart(build_model(cfg, WIDTH), cfg.exclusion_tau + 1e-7)
        model.stacks["head"][-1].weights[:] = 0.0
        mask = build_loss_graph(model, batch).include_mask
        assert not mask[:, 0].any() and mask[:, 1:].all()
        report = model_gradient_check(model, batch, max_entries_per_param=None)
        assert report.max_rel_error < 1e-4

    def test_plain_variant_passes(self):
        cfg = tiny_cfg(seed=1, use_feedforward=False)
        model = build_model(cfg, WIDTH)
        batch = make_batch(tiny_samples(6))
        report = model_gradient_check(model, batch, max_entries_per_param=6)
        assert report.max_rel_error < 1e-4
