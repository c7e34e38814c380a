"""Tests for multi-bin encoding, decoding, loss, voting, and aggregation."""

import math

import numpy as np
import pytest

from pedorient.binning import (
    BinConfig,
    DegenerateAggregateError,
    DegenerateBinError,
    aggregate_orientation,
    decode_angle,
    default_offsets,
    encode_targets,
    exclusion_mask_batch,
    exclusion_vote,
    orientation_loss,
    per_bin_global_angles,
)
from pedorient.geometry import circ_abs_diff, wrap_angle


class TestOffsetsAndConfig:
    def test_default_offsets_four_bins(self):
        np.testing.assert_allclose(
            default_offsets(4),
            (-3 * math.pi / 4, -math.pi / 4, math.pi / 4, 3 * math.pi / 4),
        )

    def test_default_offsets_small_counts(self):
        np.testing.assert_allclose(default_offsets(1), (0.0,), atol=1e-15)
        np.testing.assert_allclose(default_offsets(2), (-math.pi / 2, math.pi / 2))

    def test_offsets_evenly_spaced_in_range(self):
        for b in range(1, 9):
            offs = default_offsets(b)
            assert len(offs) == b
            assert all(-math.pi < o <= math.pi for o in offs)
            gaps = [b2 - a for a, b2 in zip(offs, offs[1:])]
            np.testing.assert_allclose(gaps, 2 * math.pi / b)

    def test_config_validation(self):
        # The offsets follow from the bin count; no caller sets them.
        for b in range(1, 9):
            assert BinConfig(b).offsets == default_offsets(b)
        with pytest.raises(TypeError):
            BinConfig(2, (0.0, 1.0))
        for bad in (0, -1):
            with pytest.raises(ValueError, match="num_bins must be >= 1"):
                BinConfig(bad)
        with pytest.raises(ValueError):
            default_offsets(0)


class TestDecodeAngle:
    def test_matches_atan2(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            th = rng.uniform(-math.pi, math.pi)
            assert decode_angle(math.sin(th), math.cos(th)) == pytest.approx(
                th, abs=1e-12
            )

    def test_scale_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            th = rng.uniform(-math.pi, math.pi)
            k = rng.uniform(1e-6, 1e6)
            a = decode_angle(math.sin(th), math.cos(th))
            b = decode_angle(k * math.sin(th), k * math.cos(th))
            assert circ_abs_diff(a, b) < 1e-9

    def test_zero_pair_rejected(self):
        with pytest.raises(DegenerateBinError):
            decode_angle(0.0, 0.0)


class TestEncodeDecodeRoundtrip:
    def test_targets_are_unit_rows(self):
        cfg = BinConfig(4)
        t = encode_targets(1.234, cfg)
        assert t.shape == (4, 2)
        np.testing.assert_allclose(np.hypot(t[:, 0], t[:, 1]), 1.0, atol=1e-12)

    def test_roundtrip_all_bins(self):
        cfg = BinConfig(4)
        rng = np.random.default_rng(42)
        for _ in range(300):
            th = rng.uniform(-math.pi, math.pi)
            t = encode_targets(th, cfg)
            for i in range(cfg.num_bins):
                back = wrap_angle(decode_angle(t[i, 0], t[i, 1]) + cfg.offsets[i])
                assert circ_abs_diff(back, th) < 1e-12


class TestPerBinGlobalAngles:
    def test_consistent_outputs_agree(self):
        cfg = BinConfig(4)
        th = -2.0
        angles = per_bin_global_angles(encode_targets(th, cfg), cfg)
        for a in angles:
            assert circ_abs_diff(a, th) < 1e-12

    def test_shape_check(self):
        cfg = BinConfig(4)
        with pytest.raises(ValueError):
            per_bin_global_angles(np.zeros((3, 2)), cfg)

    def test_degenerate_row_names_bin(self):
        cfg = BinConfig(4)
        out = encode_targets(0.3, cfg)
        out[2] = 0.0
        with pytest.raises(DegenerateBinError, match="bin 2"):
            per_bin_global_angles(out, cfg)


class TestOrientationLoss:
    def test_zero_at_truth(self):
        cfg = BinConfig(4)
        rng = np.random.default_rng(42)
        for _ in range(100):
            th = rng.uniform(-math.pi, math.pi)
            # Exact zero is only guaranteed for exactly-representable pairs;
            # generic angles leave one-ulp dust from the normalization.
            assert orientation_loss(encode_targets(th, cfg), th, cfg) < 1e-12

    def test_equals_cosine_gap_sum(self):
        cfg = BinConfig(4)
        rng = np.random.default_rng(42)
        for _ in range(200):
            th = rng.uniform(-math.pi, math.pi)
            out = rng.normal(size=(4, 2))
            expected = 0.0
            for i in range(4):
                pred = math.atan2(out[i, 0], out[i, 1])
                resid_truth = th - cfg.offsets[i]
                expected += 1.0 - math.cos(pred - resid_truth)
            got = orientation_loss(out, th, cfg)
            assert got == pytest.approx(expected, abs=1e-9)

    def test_exact_extremes_single_bin(self):
        cfg = BinConfig(1)
        assert orientation_loss([[0.0, 1.0]], 0.0, cfg) == 0.0
        assert orientation_loss([[0.0, -1.0]], 0.0, cfg) == 2.0

    def test_scale_invariance(self):
        cfg = BinConfig(4)
        rng = np.random.default_rng(42)
        out = rng.normal(size=(4, 2))
        a = orientation_loss(out, 0.7, cfg)
        b = orientation_loss(out * 37.5, 0.7, cfg)
        assert a == pytest.approx(b, abs=1e-12)

    def test_excluded_bins_skipped(self):
        cfg = BinConfig(4)
        out = encode_targets(1.0, cfg)
        out[3] = (0.0, -1.0)  # wreck one bin, then exclude it
        assert orientation_loss(out, 1.0, cfg, excluded={3}) == pytest.approx(
            0.0, abs=1e-12
        )
        assert orientation_loss(out, 1.0, cfg) > 1.0

    def test_all_excluded_rejected(self):
        cfg = BinConfig(2)
        with pytest.raises(ValueError):
            orientation_loss(np.ones((2, 2)), 0.0, cfg, excluded={0, 1})

    def test_degenerate_pair_rejected_unless_excluded(self):
        cfg = BinConfig(2)
        out = encode_targets(0.5, cfg)
        out[0] = 0.0
        with pytest.raises(DegenerateBinError):
            orientation_loss(out, 0.5, cfg)
        assert orientation_loss(out, 0.5, cfg, excluded={0}) == pytest.approx(
            0.0, abs=1e-12
        )


class TestExclusionVote:
    def test_single_outlier_excluded(self):
        angles = [math.radians(d) for d in (10, 11, 12, 100)]
        assert exclusion_vote(angles, math.radians(5)) == {3}

    def test_all_equal_keeps_everything(self):
        angles = [0.5, 0.5, 0.5, 0.5]
        assert exclusion_vote(angles, math.radians(5)) == set()

    def test_no_consensus_keeps_everything(self):
        angles = [math.radians(d) for d in (10, 50, 90, 130)]
        assert exclusion_vote(angles, math.radians(5)) == set()

    def test_two_bin_disagreement_clamped(self):
        # With two bins the vote is symmetric; rejecting both identifies
        # nothing, so nothing is excluded.
        assert exclusion_vote([0.0, math.pi / 2], math.radians(5)) == set()

    def test_singleton(self):
        assert exclusion_vote([1.0], math.radians(5)) == set()

    def test_circular_distances_used(self):
        angles = [math.radians(d) for d in (179, -179, 178, 100)]
        assert exclusion_vote(angles, math.radians(5)) == {3}

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            exclusion_vote([0.0, 1.0], 0.0)
        with pytest.raises(ValueError):
            exclusion_vote([0.0, 1.0], float("nan"))


class TestExclusionMaskBatch:
    @staticmethod
    def assert_matches_scalar_vote(angles, tau):
        mask = exclusion_mask_batch(angles, tau)
        assert mask.shape == angles.shape and mask.dtype == bool
        for i, row in enumerate(angles):
            expect = exclusion_vote(row, tau)
            got = {j for j in range(angles.shape[1]) if not mask[i, j]}
            assert got == expect, f"row {i} {row}: {got} != {expect}"
        return mask

    def test_matches_scalar_vote(self):
        rng = np.random.default_rng(42)
        more = np.random.default_rng(7)
        tau = math.radians(15)
        # Differences among these are exactly 0, tau, 2 tau or 3 tau, or far.
        lattice = (-tau, 0.0, tau, 2 * tau, 2.5)
        for b in range(1, 8):
            angles = rng.uniform(-math.pi, math.pi, size=(50, b))
            # Salt in clustered rows, some with one outlier, and rows spread
            # around tau, so both vote conditions are exercised.
            for i in range(0, 50, 3):
                base = rng.uniform(-math.pi, math.pi)
                spread = (0.05, tau / 2, tau)[(i // 3) % 3]
                angles[i] = wrap_angle(
                    base + rng.uniform(-spread, spread, size=b)
                )
                if b >= 2 and i % 2 == 0:
                    angles[i, rng.integers(b)] = wrap_angle(base + 2.0)
            angles[49, 0] = np.nan
            mask = self.assert_matches_scalar_vote(angles, tau)
            assert b < 3 or not mask.all()

            # No pair farther apart than tau, so no bin can be voted out:
            # NaN rows, a row across the seam and one exactly tau apart.
            calm = wrap_angle(more.uniform(-math.pi, math.pi, size=(40, 1))
                              + more.uniform(-0.49 * tau, 0.49 * tau, size=(40, b)))
            calm[::7, more.integers(b)] = np.nan
            calm[5] = wrap_angle(math.pi + np.linspace(-0.4 * tau, 0.4 * tau, b))
            calm[6] = [(0.0, tau)[j % 2] for j in range(b)]
            diff = np.abs(wrap_angle(calm[:, :, None] - calm[:, None, :]))
            assert not (diff > tau).any() and (b < 2 or (diff == tau).any())
            assert self.assert_matches_scalar_vote(calm, tau).all()

            # Pairs exactly tau apart are neither far nor close: rows of one
            # lattice value with two bins redrawn.
            ties = np.repeat(more.choice(lattice, size=(300, 1)), b, axis=1)
            for _ in range(2):
                ties[np.arange(300), more.integers(b, size=300)] = more.choice(lattice, size=300)
            mask = self.assert_matches_scalar_vote(ties, tau)
            assert b < 3 or not mask.all()
        # Bin 2 exactly tau from the others is not far, so it stays; at
        # 2 tau it is far and goes.  A far bin 2 stays when the others are
        # exactly tau apart, which is not close.
        rows = np.array([[0.0, 0.0, tau], [0.0, 0.0, 2 * tau], [0.0, tau, 2.5], [0.0, 0.0, 2.5]])
        mask = self.assert_matches_scalar_vote(rows, tau)
        assert mask.tolist() == [[True] * 3, [True, True, False], [True] * 3, [True, True, False]]

    def test_nan_row_keeps_every_bin(self):
        # A NaN angle is neither far from nor close to any other, so its row
        # keeps every bin, even where the other bins would vote one out; the
        # first row, with no NaN, still loses its outlier.
        tau = math.radians(15)
        nan = math.nan
        rows = np.array([[0.0, 0.0, 0.0, 2.5], [nan, 0.0, 0.0, 2.5],
                         [0.0, 0.0, 0.0, nan], [0.0, nan, 2.5, 2.5], [nan] * 4])
        mask = self.assert_matches_scalar_vote(rows, tau)
        assert mask.tolist() == [[True, True, True, False]] + [[True] * 4] * 4
        for row in rows[1:]:
            assert exclusion_vote(row, tau) == set()

    def test_input_validation(self):
        with pytest.raises(ValueError):
            exclusion_mask_batch(np.zeros(4), math.radians(5))
        with pytest.raises(ValueError):
            exclusion_mask_batch(np.zeros((2, 4)), -1.0)


class TestAggregateOrientation:
    def test_mean_of_cluster(self):
        angles = [0.1, 0.2, 0.3]
        assert aggregate_orientation(angles) == pytest.approx(0.2, abs=1e-12)

    def test_antipodal_seam_pair(self):
        angles = [math.radians(179), math.radians(-179)]
        assert aggregate_orientation(angles) == pytest.approx(math.pi)

    def test_exclusion_filtering(self):
        angles = [0.1, 0.2, 0.3, 3.0]
        with_outlier = aggregate_orientation(angles)
        without = aggregate_orientation(angles, excluded={3})
        assert without == pytest.approx(0.2, abs=1e-12)
        assert abs(with_outlier - 0.2) > 0.1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_orientation([], set())
        with pytest.raises(ValueError):
            aggregate_orientation([0.1, 0.2], excluded={0, 1})

    def test_cancellation_rejected(self):
        with pytest.raises(DegenerateAggregateError):
            aggregate_orientation([0.0, math.pi])

