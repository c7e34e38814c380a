"""Tests for the dense-network engine: layer init, tape autodiff, SGD, checking."""

import math
import re

import numpy as np
import pytest

from pedorient.nn_core import (
    GRADCHECK_STEPS,
    GRADCHECK_THRESHOLD,
    GradCheckReport,
    Tape,
    check_at_steps,
    finite_diff_check,
    sgd_step,
)
from pedorient.model import ModelConfig, build_model


def fd_grad(fn, arr, eps=1e-6):
    """Central finite differences of scalar fn w.r.t. every entry of arr."""
    out = np.zeros_like(arr)
    flat = arr.reshape(-1)
    oflat = out.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn()
        flat[i] = orig - eps
        lo = fn()
        flat[i] = orig
        oflat[i] = (hi - lo) / (2 * eps)
    return out


class TestLayerBasics:
    # Dense layers are drawn by build_model; these pin the per-layer init.
    @staticmethod
    def layer(stack, index, width=16, **kw):
        cfg = ModelConfig(**{"encoder_hidden": (16, 8), "use_feedforward": False, **kw})
        return build_model(cfg, width).stacks[stack][index]

    def test_init_is_seeded_and_bounded(self):
        kw = dict(width=8)
        a = self.layer("encoder", 0, seed=1, **kw)
        b = self.layer("encoder", 0, seed=1, **kw)
        c = self.layer("encoder", 0, seed=2, **kw)
        assert a.weights.shape == (16, 8) and a.relu
        assert np.array_equal(a.weights, b.weights)
        assert not np.array_equal(a.weights, c.weights)
        assert np.all(np.abs(a.weights) <= math.sqrt(6.0 / 8))
        assert np.array_equal(a.bias, np.zeros(16))

    def test_init_limit_depends_on_activation(self):
        # encoder.1 (ReLU follows) and head.1 (linear output) are both 100 -> 4.
        kw = dict(encoder_hidden=(100, 4), head_hidden=100, num_bins=2)
        relu = self.layer("encoder", 1, **kw)
        lin = self.layer("head", 1, **kw)
        assert relu.weights.shape == lin.weights.shape == (4, 100)
        assert relu.relu and not lin.relu
        assert np.max(np.abs(relu.weights)) <= math.sqrt(6.0 / 100)
        assert np.max(np.abs(lin.weights)) <= math.sqrt(6.0 / 104)
        # The He draw reaches past the tighter Xavier limit.
        assert np.max(np.abs(relu.weights)) > math.sqrt(6.0 / 104)


class TestTapeValues:
    def test_ops_match_numpy(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(4, 3))
        w = rng.normal(size=(2, 3))
        bias = rng.normal(size=2)
        t = Tape()
        ia, ib = t.leaf(a), t.leaf(b)
        iw, ibias = t.leaf(w), t.leaf(bias)
        np.testing.assert_allclose(t.value(t.add(ia, ib)), a + b)
        np.testing.assert_allclose(t.value(t.sub(ia, ib)), a - b)
        np.testing.assert_allclose(t.value(t.mul(ia, ib)), a * b)
        np.testing.assert_allclose(t.value(t.cmul(ia, 2.5)), a * 2.5)
        np.testing.assert_allclose(t.value(t.cadd(ia, -1.0)), a - 1.0)
        np.testing.assert_allclose(t.value(t.absval(ia)), np.abs(a))
        np.testing.assert_allclose(t.value(t.relu(ia)), np.maximum(a, 0))
        np.testing.assert_allclose(
            t.value(t.affine(ia, iw, ibias)), a @ w.T + bias
        )
        np.testing.assert_allclose(
            t.value(t.concat([ia, ib])), np.concatenate([a, b], axis=1)
        )
        np.testing.assert_allclose(
            t.value(t.rowsum(ia)), a.sum(axis=1, keepdims=True)
        )
        np.testing.assert_allclose(t.value(t.mean(ia)), [[a.mean()]])
        norms = np.linalg.norm(a, axis=1, keepdims=True)
        np.testing.assert_allclose(t.value(t.rownorm(ia)), a / norms)

    def test_grouped_ops_match_per_group(self):
        x = np.random.default_rng(5).normal(size=(4, 6))
        t = Tape()
        ix = t.leaf(x)
        norm = t.value(t.rownorm(ix, group=2))
        total = t.value(t.rowsum(ix, group=3))
        for k in range(3):
            want = t.value(t.rownorm(t.leaf(x[:, 2 * k:2 * k + 2])))
            assert np.array_equal(norm[:, 2 * k:2 * k + 2], want)
        for k in range(2):
            want = t.value(t.rowsum(t.leaf(x[:, 3 * k:3 * k + 3])))
            assert np.array_equal(total[:, k:k + 1], want)
        with pytest.raises(ValueError, match="groups of 4"):
            t.rowsum(ix, group=4)

    def test_rownorm_floor(self):
        t = Tape()
        x = np.array([[1e-15, 0.0], [3.0, 4.0]])
        out = t.value(t.rownorm(t.leaf(x)))
        np.testing.assert_allclose(out[0], [1e-3, 0.0])
        np.testing.assert_allclose(out[1], [0.6, 0.8])

    def test_binary_ops_require_matching_shapes(self):
        # add, sub and mul take operands of one shape; a constant of cmul or
        # cadd must keep its operand's shape.  A mismatch is rejected when
        # the op is recorded, not later by backward.
        t = Tape()
        col, wide = t.leaf(np.ones((4, 1))), t.leaf(np.ones((4, 3)))
        for op in (t.add, t.sub, t.mul):
            for a, b in ((col, wide), (wide, col)):
                with pytest.raises(ValueError, match=rf"^{op.__name__}: .*\(4, [13]\)"):
                    op(a, b)
        for op in (t.cmul, t.cadd):
            for const in (np.ones((4, 3)), np.ones(2), np.ones((2, 4, 1))):
                with pytest.raises(ValueError, match=rf"^{op.__name__}: .*{re.escape(str(const.shape))}"):
                    op(col, const)
            for const in (2.0, np.ones(3), np.ones((4, 1)), np.ones((4, 3))):
                assert t.value(op(wide, const)).shape == (4, 3)
        assert len(t.nodes) == 2 + 2 * 4


class TestTapeGradients:
    def check_unary(self, build, x):
        """Gradient-check a graph built from a single leaf input."""
        def run():
            t = Tape()
            node = build(t, t.leaf(x))
            return t, node

        t, node = run()
        out = t.mean(node)
        grads = t.backward(out)
        want = fd_grad(lambda: float(run()[0].value(run()[1]).mean()), x)

        # Rebuild to locate the leaf id (always 0 by construction).
        np.testing.assert_allclose(grads[0], want, atol=1e-7)

    def test_unary_op_gradients(self):
        rng = np.random.default_rng(42)
        # Keep values away from relu/abs kinks so fd is clean.
        x = rng.uniform(0.2, 1.5, size=(3, 4)) * rng.choice([-1, 1], size=(3, 4))
        self.check_unary(lambda t, i: t.relu(i), x.copy())
        self.check_unary(lambda t, i: t.absval(i), x.copy())
        self.check_unary(lambda t, i: t.cmul(i, 1.7), x.copy())
        self.check_unary(lambda t, i: t.cadd(i, 0.3), x.copy())
        self.check_unary(lambda t, i: t.rownorm(i), x.copy())
        self.check_unary(lambda t, i: t.rowsum(i), x.copy())

    def test_grouped_op_gradients(self):
        rng = np.random.default_rng(43)
        x = rng.uniform(0.2, 1.5, size=(3, 4)) * rng.choice([-1, 1], size=(3, 4))
        weights = rng.normal(size=(3, 4))
        self.check_unary(lambda t, i: t.cmul(t.rownorm(i, group=2), weights), x.copy())
        self.check_unary(lambda t, i: t.cmul(t.rowsum(i, group=2), weights[:, :2]), x.copy())

    def test_affine_gradients(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(5, 3))
        w = rng.normal(size=(2, 3))
        b = rng.normal(size=2)

        def loss():
            return float((x @ w.T + b).mean())

        t = Tape()
        ix, iw, ib = t.leaf(x), t.leaf(w), t.leaf(b)
        grads = t.backward(t.mean(t.affine(ix, iw, ib)))
        np.testing.assert_allclose(grads[0], fd_grad(loss, x), atol=1e-8)
        np.testing.assert_allclose(grads[1], fd_grad(loss, w), atol=1e-8)
        np.testing.assert_allclose(grads[2], fd_grad(loss, b), atol=1e-8)
        # Bit for bit the plain products, so replaying a graph cannot drift.
        g = np.full((5, 2), 1.0 / 10)
        assert np.array_equal(grads[0], g @ w)
        assert np.array_equal(grads[1], g.T @ x)
        assert np.array_equal(grads[2], g.sum(axis=0))

    def test_binary_and_concat_gradients(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(4, 2))
        b = rng.normal(size=(4, 2))

        def loss():
            cat = np.concatenate([a * b, a - b], axis=1)
            return float((cat * cat).mean())

        t = Tape()
        ia, ib = t.leaf(a), t.leaf(b)
        cat = t.concat([t.mul(ia, ib), t.sub(ia, ib)])
        out = t.mean(t.mul(cat, cat))
        grads = t.backward(out)
        np.testing.assert_allclose(grads[ia], fd_grad(loss, a), atol=1e-7)
        np.testing.assert_allclose(grads[ib], fd_grad(loss, b), atol=1e-7)

    def test_shared_parent_accumulates(self):
        x = np.array([[3.0]])
        t = Tape()
        ix = t.leaf(x)
        # y = x*x + x  =>  dy/dx = 2x + 1 = 7
        out = t.mean(t.add(t.mul(ix, ix), ix))
        grads = t.backward(out)
        np.testing.assert_allclose(grads[ix], [[7.0]])

    def test_stop_gradient_blocks_upstream(self):
        x = np.array([[2.0, -1.0]])
        t = Tape()
        ix = t.leaf(x)
        stopped = t.stop_gradient(t.mul(ix, ix))
        out = t.mean(t.mul(stopped, ix))
        grads = t.backward(out)
        # The stopped node receives no gradient; the leaf only sees the
        # direct multiplicative path, value x*x, not 3x^2.
        assert stopped not in grads
        np.testing.assert_allclose(grads[ix], x * x / x.size)
        # It is a value-only copy, recomputed by a replay.
        assert t.nodes[stopped].op == "value_only"
        x *= 3.0
        t.replay()
        np.testing.assert_array_equal(t.value(stopped), x * x)

    def test_unreachable_nodes_absent(self):
        t = Tape()
        used = t.leaf(np.ones((1, 1)))
        kept = np.full((1, 1), 7.0)
        unused = t.leaf(np.ones((1, 1)), kept)
        grads = t.backward(t.mean(used))
        assert used in grads
        assert unused not in grads
        assert kept[0, 0] == 7.0  # an unreached leaf's array is left as it was

    def test_leaf_gradient_lands_in_the_given_array(self):
        # Two consumers: the first contribution is written into the
        # array, the later ones added on; the rest of the buffer is not
        # touched.
        x = np.array([[3.0, -1.0]])
        buf = np.full(5, np.nan)
        gx = buf[1:3].reshape(1, 2)
        t = Tape()
        ix = t.leaf(x, gx)
        out = t.mean(t.add(t.mul(ix, ix), ix))
        grads = t.backward(out)
        assert grads[ix] is gx
        np.testing.assert_array_equal(buf[1:3], [3.5, -0.5])  # (2x + 1) / 2
        assert np.isnan(buf[[0, 3, 4]]).all()

    def test_leaf_rejects_a_misshaped_gradient_array(self):
        t = Tape()
        with pytest.raises(ValueError, match=r"gradient shape \(3, 2\).*\(2, 3\)"):
            t.leaf(np.ones((2, 3)), np.empty((3, 2)))
        assert t.nodes == []

    def test_backward_after_replay_reuses_its_walk(self):
        x = np.array([[1.0, 2.0]])
        t = Tape()
        ix = t.leaf(x)
        out = t.mean(t.mul(ix, ix))
        first = t.backward(out)
        arrays = dict(first)
        np.testing.assert_array_equal(first[ix], x)
        x *= 3.0
        t.replay()
        second = t.backward(out)
        assert second is first
        assert all(second[nid] is g for nid, g in arrays.items())
        np.testing.assert_array_equal(second[ix], [[3.0, 6.0]])

    def test_backward_validates(self):
        t = Tape()
        with pytest.raises(ValueError):
            t.backward(0)
        t.leaf(np.ones((1, 1)))
        with pytest.raises(ValueError):
            t.backward(5)


class TestSgdStep:
    def test_momentum_recursion(self):
        p = np.array([1.0, 2.0])
        v = np.zeros(2)
        g1 = np.array([0.5, -0.5])
        g2 = np.array([0.1, 0.1])
        sgd_step(p, g1, v, lr=0.1, momentum=0.9)
        np.testing.assert_allclose(v, g1)
        np.testing.assert_allclose(p, [1.0, 2.0] - 0.1 * g1)
        p_before = p.copy()
        sgd_step(p, g2, v, lr=0.1, momentum=0.9)
        want_v = 0.9 * g1 + g2
        np.testing.assert_allclose(v, want_v)
        np.testing.assert_allclose(p, p_before - 0.1 * want_v)

    def test_zero_gradient_is_identity(self):
        p = np.array([1.2345678901234567, -7.0])
        orig = p.copy()
        sgd_step(p, np.zeros(2), np.zeros(2), lr=0.1, momentum=0.9)
        assert np.array_equal(p, orig)



class TestFiniteDiffCheck:
    def test_correct_gradient_passes(self):
        rng = np.random.default_rng(42)
        w = rng.normal(size=(3, 4))

        def loss():
            return 0.5 * float((w * w).sum())

        report = finite_diff_check([("w", w)], loss, {"w": w.copy()})
        assert report.max_rel_error < 1e-8
        assert report.passed()
        assert report.per_param[0][0] == "w"

    def test_wrong_gradient_caught(self):
        w = np.ones((2, 2))

        def loss():
            return 0.5 * float((w * w).sum())

        report = finite_diff_check([("w", w)], loss, {"w": 2.0 * w})
        assert report.max_rel_error > 0.4
        assert not report.passed()

    def test_subsampling_is_seeded(self):
        rng = np.random.default_rng(42)
        w = rng.normal(size=(10, 10))

        def loss():
            return float((w ** 3).sum())

        g = 3.0 * w ** 2
        a = finite_diff_check([("w", w)], loss, {"w": g},
                              max_entries_per_param=5, seed=3)
        b = finite_diff_check([("w", w)], loss, {"w": g},
                              max_entries_per_param=5, seed=3)
        assert a.max_rel_error == b.max_rel_error

    def test_restores_parameters(self):
        w = np.array([[1.0, 2.0]])
        orig = w.copy()
        finite_diff_check([("w", w)], lambda: float(w.sum()), {"w": np.ones((1, 2))})
        assert np.array_equal(w, orig)

    def test_shape_mismatch_rejected(self):
        w = np.ones((2, 2))
        with pytest.raises(ValueError):
            finite_diff_check([("w", w)], lambda: 0.0, {"w": np.ones(3)})

    def test_report_threshold(self):
        assert GradCheckReport(5e-5).passed()
        assert not GradCheckReport(GRADCHECK_THRESHOLD).passed()

    @pytest.mark.parametrize("errors, steps_run, passed", [
        ((5e-5, None), 1, True),    # passes at the first step
        ((1e-3, 1e-5), 2, True),    # a kink: below the threshold and tenfold
        ((2e-4, 5e-5), 2, False),   # below the threshold, but not tenfold
        ((1e-3, 1e-3), 2, False),   # wrong at every step
    ])
    def test_check_at_steps_measures_again_at_a_tenth(self, errors, steps_run, passed):
        asked = []

        def check(eps):
            asked.append(eps)
            return GradCheckReport(dict(zip(GRADCHECK_STEPS, errors))[eps])

        reports, ok = check_at_steps(check)
        assert asked == list(GRADCHECK_STEPS[:steps_run]) == [1e-5, 1e-6][:steps_run]
        assert [r.max_rel_error for r in reports] == list(errors[:steps_run]) and ok is passed
