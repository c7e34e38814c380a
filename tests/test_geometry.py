"""Tests for the 2D/3D box geometry: spans, residuals, yaw inversion."""

import dataclasses
import math
import struct

import numpy as np
import pytest

from pedorient import geometry
from pedorient.geometry import (
    Dims2D,
    Dims3D,
    candidates_for_span,
    circ_abs_diff,
    circ_diff,
    consistency_residual,
    implied_width_span,
    invert_orientation_candidates,
    width_span,
    width_span_abs,
    wrap_angle,
)


def random_dims(rng):
    h1 = rng.uniform(1.2, 2.2)
    w1 = rng.uniform(0.2, 1.0)
    l1 = rng.uniform(0.2, 1.0)
    return Dims3D(h1, w1, l1)


# Seam, quadrant-edge, signed-zero, huge and non-finite angles.
EDGE_ANGLES = (math.pi, -math.pi, math.nextafter(math.pi, 4), math.nextafter(-math.pi, -4),
               math.pi / 2, -math.pi / 2, 0.0, -0.0, 1e300, -1e300, math.inf, -math.inf, math.nan)


def probe_angles(seed=0, n=400):
    return np.concatenate([np.random.default_rng(seed).uniform(-50.0, 50.0, n), EDGE_ANGLES])


def same_bits(scalar, element):
    """Bit equality of a scalar result and an array element; any NaN
    matches any NaN."""
    if math.isnan(element):
        return math.isnan(scalar)
    return struct.pack("<d", scalar) == struct.pack("<d", element)


class TestScalarMatchesArray:
    """The plain-float paths give the array paths' elements bit for bit."""

    def check(self, fn, *arrays):
        with np.errstate(invalid="ignore"):
            want = fn(*arrays)
            for i, elem in enumerate(want):
                for cast in (float, np.float64):
                    got = fn(*(cast(a[i]) for a in arrays))
                    assert type(got) is float, (fn.__name__, cast, got)
                    assert same_bits(got, elem), (fn.__name__, [a[i] for a in arrays], got, elem)

    def test_wrap_angle(self):
        self.check(wrap_angle, probe_angles())

    def test_circular_differences(self):
        a = probe_angles(1)
        b = np.concatenate([np.random.default_rng(2).permutation(a), a[::-1], a])
        a = np.concatenate([a, a, a[::-1]])
        self.check(circ_diff, a, b)
        self.check(circ_abs_diff, a, b)

    def test_width_span(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            dims = random_dims(rng)
            self.check(lambda th: width_span(dims, th), probe_angles(int(rng.integers(100))))


class TestWrapAngle:
    def test_known_values(self):
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(2 * math.pi) == pytest.approx(0.0, abs=1e-15)
        assert wrap_angle(3.5 * math.pi) == pytest.approx(-0.5 * math.pi)

    def test_in_range_is_bit_identical(self):
        rng = np.random.default_rng(42)
        vals = rng.uniform(-math.pi + 1e-9, math.pi, size=1000)
        out = wrap_angle(vals)
        assert np.array_equal(out, vals)

    def test_range_membership(self):
        rng = np.random.default_rng(42)
        vals = rng.uniform(-50.0, 50.0, size=5000)
        out = wrap_angle(vals)
        assert np.all(out > -math.pi) and np.all(out <= math.pi)
        np.testing.assert_allclose(np.sin(out), np.sin(vals), atol=1e-12)
        np.testing.assert_allclose(np.cos(out), np.cos(vals), atol=1e-12)

    def test_scalar_returns_float(self):
        # np.float64 is a float subclass, so check the exact type: an
        # out-of-range np.float64 must not come back as np.float64.
        for theta in (7.0, 1.0, -math.pi, np.float64(7.0), np.float64(1.0),
                      np.float64(-math.pi), np.float32(7.0), 7, np.array(7.0)):
            assert type(wrap_angle(theta)) is float, theta
            assert type(circ_diff(theta, np.float64(0.5))) is float, theta
            assert type(circ_abs_diff(0.5, theta)) is float, theta
            assert type(width_span(Dims3D(1.7, 0.6, 0.5), theta)) is float, theta


class TestCircularDiff:
    def test_wraps_across_seam(self):
        a = math.radians(179.0)
        b = math.radians(-179.0)
        # Going from -179 deg to +179 deg is a short -2 deg hop, not +358.
        assert circ_diff(a, b) == pytest.approx(math.radians(-2.0))
        assert circ_abs_diff(a, b) == pytest.approx(math.radians(2.0))

    def test_antisymmetry(self):
        rng = np.random.default_rng(42)
        a = rng.uniform(-math.pi, math.pi, size=500)
        b = rng.uniform(-math.pi, math.pi, size=500)
        d_ab = circ_diff(a, b)
        d_ba = circ_diff(b, a)
        # Antisymmetric except at the pi seam where both signs map to +pi.
        seam = np.isclose(np.abs(d_ab), math.pi)
        np.testing.assert_allclose(d_ab[~seam], -d_ba[~seam], atol=1e-12)

    def test_abs_diff_bounds(self):
        rng = np.random.default_rng(42)
        a = rng.uniform(-20, 20, size=1000)
        b = rng.uniform(-20, 20, size=1000)
        d = circ_abs_diff(a, b)
        assert np.all(d >= 0) and np.all(d <= math.pi)


class TestDimsValidation:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Dims2D(0.0, 10.0)
        with pytest.raises(ValueError):
            Dims2D(10.0, -1.0)
        with pytest.raises(ValueError):
            Dims3D(1.7, 0.0, 0.5)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Dims2D(float("nan"), 10.0)
        with pytest.raises(ValueError):
            Dims3D(1.7, 0.5, float("inf"))

    def test_numpy_reals_accepted_as_floats_and_bools_rejected(self):
        d2 = Dims2D(np.float32(1.5), np.int64(40))
        d3 = Dims3D(np.float64(1.7), np.float32(0.5), 1)
        assert (d2, d3) == (Dims2D(1.5, 40.0), Dims3D(1.7, 0.5, 1.0))
        assert all(type(v) is float for v in (d2.h, d2.w, d3.h1, d3.w1, d3.l1))
        assert Dims3D(np.float64(1.7), 2, 0.5).w1 == 2.0

    @pytest.mark.parametrize("bad", [
        True, np.bool_(True), "1.5", None, math.nan, math.inf, -math.inf, 0.0, -0.0, -1.5,
        np.float64(math.nan), np.float64(math.inf), np.float64(-0.0), np.float32(-1.5), 0,
        -2])
    def test_every_field_rejects(self, bad):
        # Exact floats take a shorter path than other reals; both must reject.
        for cls, good in ((Dims2D, (10.0, 40.0)), (Dims3D, (1.7, 0.5, 0.4))):
            for k, name in enumerate(f.name for f in dataclasses.fields(cls)):
                args = list(good)
                args[k] = bad
                with pytest.raises(ValueError, match=f"{cls.__name__}.{name} must be"):
                    cls(*args)


class TestWidthSpan:
    def test_axis_angles(self):
        dims = Dims3D(1.7, 0.6, 0.5)
        assert width_span(dims, 0.0) == pytest.approx(0.5)
        assert width_span(dims, math.pi / 2) == pytest.approx(0.6)
        assert width_span(dims, math.pi) == pytest.approx(0.5)
        assert width_span(dims, -math.pi / 2) == pytest.approx(0.6)

    def test_matches_absolute_form(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            dims = random_dims(rng)
            th = rng.uniform(-math.pi, math.pi, size=200)
            np.testing.assert_allclose(
                width_span(dims, th), width_span_abs(dims, th), atol=1e-12
            )

    def test_pi_shift_symmetry(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            dims = random_dims(rng)
            th = rng.uniform(-math.pi, math.pi, size=500)
            np.testing.assert_allclose(
                width_span(dims, th), width_span(dims, th + math.pi), atol=1e-12
            )

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            dims = random_dims(rng)
            th = rng.uniform(-math.pi, math.pi, size=500)
            np.testing.assert_allclose(
                width_span(dims, th), width_span(dims, -th), atol=1e-12
            )

    def test_bounds(self):
        rng = np.random.default_rng(42)
        dims = random_dims(rng)
        th = rng.uniform(-math.pi, math.pi, size=2000)
        spans = width_span(dims, th)
        assert np.all(spans >= min(dims.w1, dims.l1) - 1e-12)
        assert np.all(spans <= math.hypot(dims.w1, dims.l1) + 1e-12)

    def test_out_of_range_input_wrapped(self):
        dims = Dims3D(1.7, 0.6, 0.5)
        assert width_span(dims, 5 * math.pi) == pytest.approx(
            width_span(dims, math.pi)
        )

    def test_scalar_gives_float(self):
        dims = Dims3D(1.7, 0.6, 0.5)
        assert isinstance(width_span(dims, 1.0), float)
        assert isinstance(width_span_abs(dims, 1.0), float)


class TestImpliedSpanAndResidual:
    def test_implied_span_formula(self):
        assert implied_width_span(Dims2D(100.0, 40.0), 1.7) == pytest.approx(0.68)
        assert implied_width_span((100.0, 0.0), 1.7) == 0.0

    def test_implied_span_validates(self):
        with pytest.raises(ValueError):
            implied_width_span(Dims2D(100.0, 40.0), -1.0)
        with pytest.raises(ValueError):
            implied_width_span((0.0, 40.0), 1.7)

    def test_residual_zero_on_consistent_boxes(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            dims = random_dims(rng)
            theta = rng.uniform(-math.pi, math.pi)
            h = rng.uniform(40.0, 200.0)
            w = h * width_span_abs(dims, theta) / dims.h1
            resid = consistency_residual((h, w), dims, theta)
            assert abs(resid) < 1e-9

    def test_residual_sign_tracks_width(self):
        dims = Dims3D(1.7, 0.6, 0.5)
        theta = 0.8
        h = 100.0
        w_consistent = h * width_span_abs(dims, theta) / dims.h1
        assert consistency_residual((h, w_consistent + 5.0), dims, theta) < 0
        assert consistency_residual((h, w_consistent - 5.0), dims, theta) > 0


class TestCandidatesForSpan:
    def test_too_large_target_is_infeasible(self):
        dims = Dims3D(1.7, 0.6, 0.5)
        res = candidates_for_span(dims, math.hypot(0.6, 0.5) * 1.01)
        assert res.infeasible
        assert res.candidates == ()

    def test_below_minimum_is_empty_but_feasible(self):
        dims = Dims3D(1.7, 0.6, 0.5)
        res = candidates_for_span(dims, 0.0)
        assert not res.infeasible
        assert res.candidates == ()

    def test_peak_target_four_candidates(self):
        dims = Dims3D(1.7, 0.6, 0.5)
        r = math.hypot(dims.w1, dims.l1)
        res = candidates_for_span(dims, r)
        star = math.atan2(dims.w1, dims.l1)
        expected = sorted(
            wrap_angle(t) for t in (star, -star, math.pi - star, star - math.pi)
        )
        assert len(res.candidates) == 4
        np.testing.assert_allclose(res.candidates, expected, atol=1e-6)

    def test_candidates_reproduce_target(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            dims = random_dims(rng)
            theta = rng.uniform(-math.pi, math.pi)
            target = width_span_abs(dims, theta)
            res = candidates_for_span(dims, target)
            assert not res.infeasible
            assert 1 <= len(res.candidates) <= 8
            # The generating angle is recovered...
            assert min(circ_abs_diff(theta, c) for c in res.candidates) < 1e-7
            # ...and every candidate maps back onto the target span.
            for c in res.candidates:
                assert abs(width_span_abs(dims, c) - target) < 1e-9

    def test_candidates_sorted_unique_in_range(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            dims = random_dims(rng)
            target = rng.uniform(0.0, math.hypot(dims.w1, dims.l1))
            cands = candidates_for_span(dims, target).candidates
            assert list(cands) == sorted(cands)
            for a, b in zip(cands, cands[1:]):
                assert circ_abs_diff(a, b) > 1e-9
            assert all(-math.pi < c <= math.pi for c in cands)

    def test_square_plan_dedups_boundary_roots(self):
        # Equal plan sides put the peak exactly on quadrant boundaries
        # shared by two cases; duplicates must merge.
        dims = Dims3D(1.7, 0.5, 0.5)
        res = candidates_for_span(dims, math.hypot(0.5, 0.5))
        assert len(res.candidates) == 4

    def test_merge_matches_all_survivors_loop(self, monkeypatch):
        # Each root is checked against the last and first survivors only;
        # the reference checks every survivor.
        def every_survivor(roots):
            kept = []
            for th in sorted(roots):
                if all(circ_abs_diff(th, prev) > geometry._DEDUP_TOL for prev in kept):
                    kept.append(th)
            if len(kept) >= 2 and circ_abs_diff(kept[0], kept[-1]) <= geometry._DEDUP_TOL:
                kept.pop()
            return kept

        seen = []

        def spy(roots):
            seen.append(list(roots))
            return merge(roots)

        merge = geometry._merge_roots
        monkeypatch.setattr(geometry, "_merge_roots", spy)
        rng = np.random.default_rng(18)
        for trial in range(400):
            dims = random_dims(rng)
            if trial % 4 == 0:
                dims = Dims3D(dims.h1, dims.w1, dims.w1)
            w1, l1 = dims.w1, dims.l1
            r = math.hypot(w1, l1)
            for target in (0.0, w1, l1, r, r * (1 + 5e-10), rng.uniform(0.0, r)):
                seen.clear()
                cands = candidates_for_span(dims, target).candidates
                if target > r * (1 + 1e-9):
                    assert not seen
                    continue
                assert list(cands) == every_survivor(seen[0])
        # Clusters of roots closer and farther than the tolerance, on both
        # sides of the seam.
        tol = geometry._DEDUP_TOL
        for _ in range(3000):
            centres = rng.choice([-math.pi, -1.0, 0.0, 2.0, math.pi], size=int(rng.integers(1, 4)))
            roots = [wrap_angle(float(c + d)) for c in centres
                     for d in rng.choice([0.0, 0.4, 0.9, 1.0, 1.1, 2.5], size=3) * tol
                     * rng.choice([-1.0, 1.0], size=3)]
            assert merge(roots) == every_survivor(roots)

    def test_seam_distances_straddle_the_tolerance_one_way_only(self):
        # Across the seam, circ_abs_diff(th, first) and circ_abs_diff(first,
        # th) can round to opposite sides of the tolerance.  Both depend only
        # on the rounded y = th - first.  At every double y near 2 pi - tol
        # the (th, first) order is within it whenever the other order is, so
        # the merge loop's (th, first) test also drops every duplicate that
        # the other order finds.
        tol = geometry._DEDUP_TOL
        y, straddles = 2 * math.pi - tol - 2e-12, 0
        while y < 2 * math.pi - tol + 2e-12:
            fwd, back = circ_abs_diff(y, 0.0), circ_abs_diff(0.0, y)
            assert not back <= tol < fwd, y
            straddles += fwd <= tol < back
            y = math.nextafter(y, math.inf)
        assert straddles
        # A root pair at that straddle merges into its first root.
        first, th = -3.1415926527169837, 3.1415926534626033
        assert circ_abs_diff(th, first) <= tol < circ_abs_diff(first, th)
        assert geometry._merge_roots([th, 0.5, first]) == [first, 0.5]

    def test_rejects_bad_target(self):
        dims = Dims3D(1.7, 0.6, 0.5)
        with pytest.raises(ValueError):
            candidates_for_span(dims, -0.1)
        with pytest.raises(ValueError):
            candidates_for_span(dims, float("nan"))


class TestInvertFromBoxes:
    def test_recovers_generating_yaw(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            dims = random_dims(rng)
            theta = rng.uniform(-math.pi, math.pi)
            h = rng.uniform(40.0, 200.0)
            w = h * width_span_abs(dims, theta) / dims.h1
            res = invert_orientation_candidates((h, w), dims)
            assert min(circ_abs_diff(theta, c) for c in res.candidates) < 1e-7

    def test_wide_box_is_infeasible(self):
        dims = Dims3D(1.7, 0.6, 0.5)
        res = invert_orientation_candidates(Dims2D(50.0, 200.0), dims)
        assert res.infeasible

    def test_zero_width_box_has_no_solutions(self):
        dims = Dims3D(1.7, 0.6, 0.5)
        res = invert_orientation_candidates((80.0, 0.0), dims)
        assert not res.infeasible
        assert res.candidates == ()
