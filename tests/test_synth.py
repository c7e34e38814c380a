"""Tests for the synthetic generator, the grid oracle, and dataset files."""

import math

import numpy as np
import pytest

from pedorient.geometry import (
    Dims2D,
    Dims3D,
    candidates_for_span,
    circ_abs_diff,
    implied_width_span,
    width_span,
    width_span_abs,
    wrap_angle,
)
from pedorient.synth import (
    SynthConfig,
    brute_force_orientation_oracle,
    gen_dataset,
    oracle_candidates_for_span,
    read_dataset,
    write_dataset,
)


class TestSynthConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(n=-1)
        with pytest.raises(ValueError):
            SynthConfig(n=1, context_noise=1.5)
        with pytest.raises(ValueError):
            SynthConfig(n=1, context_width=2)
        for value in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="^box_noise_sd must"):
                SynthConfig(n=1, box_noise_sd=value)
        SynthConfig(n=1, box_noise_sd=0.0)


# The generator's fixed prior, written out: (mean, sd, lo, hi) of h1, w1
# and l1 in meters, and the pixel scale's (lo, hi).
PRIORS = ((1.7, 0.1, 1.4, 2.0), (0.6, 0.1, 0.3, 0.9), (0.5, 0.15, 0.2, 0.9))
SCALE_RANGE = (30.0, 120.0)


class TestGenDataset:
    def test_deterministic_per_seed(self):
        a, ra = gen_dataset(SynthConfig(n=20, seed=5))
        b, rb = gen_dataset(SynthConfig(n=20, seed=5))
        c, _ = gen_dataset(SynthConfig(n=20, seed=6))
        for sa, sb in zip(a, b):
            assert sa.dims2d == sb.dims2d
            assert sa.theta == sb.theta
            assert np.array_equal(sa.context, sb.context)
        assert ra == rb
        assert any(x.theta != y.theta for x, y in zip(a, c))

    def test_matches_array_reference(self):
        # Sample i redrawn from its own stream with np.clip and the array
        # forms of wrap_angle and width_span gives the same bits.  At this
        # size and seed the clip fires at both ends of all three ranges.
        cfg = SynthConfig(n=5000, seed=0)
        samples, records = gen_dataset(cfg)
        dims = []
        for i, (s, r) in enumerate(zip(samples, records)):
            rng = np.random.default_rng([cfg.seed, i])
            want = [float(np.clip(rng.normal(m, sd), lo, hi)) for m, sd, lo, hi in PRIORS]
            theta = wrap_angle(np.array([rng.uniform(-math.pi, math.pi)]))[0]
            scale = rng.uniform(*SCALE_RANGE)
            span = width_span(s.dims3d, np.array([theta]))[0]
            assert [s.dims3d.h1, s.dims3d.w1, s.dims3d.l1] == want
            assert (s.theta, r.scale, r.span) == (theta, scale, span)
            assert (r.h_clean, r.w_clean) == (scale * want[0], scale * span)
            dims.append(want)
        lo, hi = np.min(dims, axis=0), np.max(dims, axis=0)
        assert lo.tolist() == [p[2] for p in PRIORS]
        assert hi.tolist() == [p[3] for p in PRIORS]

    @pytest.mark.parametrize("context_noise", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("box_noise_sd", [0.0, 1.0])
    @pytest.mark.parametrize("context_width", [3, 16])
    def test_matches_call_reference(self, context_noise, box_noise_sd, context_width):
        # The whole draw sequence of sample i, redrawn from its own stream
        # with the Generator calls spelled out (uniform, normal, a size-2
        # normal added into a zero context), gives the same bits.
        cfg = SynthConfig(n=150, seed=9, box_noise_sd=box_noise_sd,
                          context_noise=context_noise, context_width=context_width)
        samples, records = gen_dataset(cfg)
        cells = context_width - 2
        for i, (s, r) in enumerate(zip(samples, records)):
            rng = np.random.default_rng([cfg.seed, i])
            h1, w1, l1 = (float(np.clip(rng.normal(m, sd), lo, hi)) for m, sd, lo, hi in PRIORS)
            theta = wrap_angle(rng.uniform(-math.pi, math.pi))
            scale = rng.uniform(*SCALE_RANGE)
            span = width_span(Dims3D(h1, w1, l1), theta)
            h, w = scale * h1, scale * span
            if box_noise_sd > 0:
                h = max(h + rng.normal(0.0, box_noise_sd), 0.5)
                w = max(w + rng.normal(0.0, box_noise_sd), 0.5)
            cell = min(int((theta + math.pi) / (2 * math.pi) * cells), cells - 1)
            if cells > 1 and rng.uniform() < context_noise:
                cell = (cell + 1 + rng.integers(0, cells - 1)) % cells
            ctx = np.zeros(context_width)
            ctx[cell] = 1.0
            gain = 1.0 - context_noise
            ctx[cells] = gain * math.sin(theta)
            ctx[cells + 1] = gain * math.cos(theta)
            if context_noise > 0:
                ctx[cells:] += rng.normal(0.0, 0.25 * context_noise, size=2)
            got = (s.dims3d.h1, s.dims3d.w1, s.dims3d.l1, s.theta, r.scale, r.span,
                   r.h_clean, r.w_clean, s.dims2d.h, s.dims2d.w)
            want = (h1, w1, l1, theta, scale, span, scale * h1, scale * span, h, w)
            assert got == want
            assert s.context.tobytes() == ctx.tobytes()

    def test_prefix_stability(self):
        # Sample i depends only on (seed, i), so growing n keeps a prefix.
        small, _ = gen_dataset(SynthConfig(n=5, seed=3))
        big, _ = gen_dataset(SynthConfig(n=10, seed=3))
        for s, b in zip(small, big):
            assert s.dims2d == b.dims2d and s.theta == b.theta

    def test_field_ranges(self):
        cfg = SynthConfig(n=300, seed=0)
        samples, records = gen_dataset(cfg)
        assert len(samples) == len(records) == 300
        for s, r in zip(samples, records):
            for dim, (_, _, lo, hi) in zip((s.dims3d.h1, s.dims3d.w1, s.dims3d.l1), PRIORS):
                assert lo <= dim <= hi
            assert -math.pi < s.theta <= math.pi
            assert SCALE_RANGE[0] <= r.scale <= SCALE_RANGE[1]
            assert s.dims2d.h > 0 and s.dims2d.w > 0
            assert s.context.shape == (cfg.context_width,)

    def test_noiseless_boxes_are_exact_projections(self):
        cfg = SynthConfig(n=100, seed=0, box_noise_sd=0.0)
        samples, records = gen_dataset(cfg)
        for s, r in zip(samples, records):
            assert r.span == pytest.approx(width_span(s.dims3d, s.theta))
            assert s.dims2d.h == pytest.approx(r.scale * s.dims3d.h1)
            assert s.dims2d.w == pytest.approx(r.scale * r.span)
            implied = implied_width_span(s.dims2d, s.dims3d.h1)
            assert implied == pytest.approx(r.span, abs=1e-12)

    def test_noisy_boxes_stay_positive(self):
        cfg = SynthConfig(n=200, seed=0, box_noise_sd=50.0)
        samples, _ = gen_dataset(cfg)
        for s in samples:
            assert s.dims2d.h >= 0.5 and s.dims2d.w >= 0.5

    def test_clean_context_encodes_orientation(self):
        cfg = SynthConfig(n=100, seed=0, context_noise=0.0)
        samples, _ = gen_dataset(cfg)
        cells = cfg.context_width - 2
        for s in samples:
            onehot = s.context[:cells]
            assert onehot.sum() == 1.0
            cell = int(np.argmax(onehot))
            want = min(int((s.theta + math.pi) / (2 * math.pi) * cells), cells - 1)
            assert cell == want
            assert s.context[cells] == pytest.approx(math.sin(s.theta))
            assert s.context[cells + 1] == pytest.approx(math.cos(s.theta))

    def test_pure_noise_context_is_uninformative(self):
        cfg = SynthConfig(n=400, seed=0, context_noise=1.0)
        samples, _ = gen_dataset(cfg)
        cells = cfg.context_width - 2
        # Trig channels carry zero gain at full noise; the one-hot cell is
        # rerolled away from the truth with probability 1.
        hits = 0
        for s in samples:
            want = min(int((s.theta + math.pi) / (2 * math.pi) * cells), cells - 1)
            hits += int(np.argmax(s.context[:cells]) == want)
        assert hits == 0

    def test_empty_dataset(self):
        samples, records = gen_dataset(SynthConfig(n=0))
        assert samples == [] and records == []


class TestGridOracle:
    def test_matches_analytic_candidates(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            dims = Dims3D(rng.uniform(1.4, 2.0), rng.uniform(0.3, 0.9),
                          rng.uniform(0.2, 0.9))
            theta = rng.uniform(-math.pi, math.pi)
            target = width_span_abs(dims, theta)
            got = oracle_candidates_for_span(dims, target)
            want = candidates_for_span(dims, target).candidates
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert circ_abs_diff(g, w) < math.radians(0.01)

    def test_close_roots_merge_into_one_candidate(self):
        # The span is l1 + w1 |t| near t = 0 and near t = pi, so the span at
        # t = eps is reached at -eps, eps, pi - eps and -pi + eps.  With eps
        # three grid steps, each pair of roots lies 0.006 degrees apart and
        # gives two grid hits closer than 0.01 degrees: consecutive hits
        # about 0, and the last and first hit across the +/-pi seam.  Each
        # pair is one candidate.
        dims = Dims3D(1.7, 0.6, 0.5)
        eps = 3 * math.radians(1e-3)
        got = oracle_candidates_for_span(dims, width_span_abs(dims, eps))
        near_zero = [g for g in got if abs(g) < math.radians(0.01)]
        near_seam = [g for g in got if circ_abs_diff(g, math.pi) < math.radians(0.01)]
        assert len(near_zero) == 1 and len(near_seam) == 1 and len(got) == 2, got
        assert abs(abs(near_zero[0]) - eps) < math.radians(1e-3)
        assert abs(circ_abs_diff(near_seam[0], math.pi) - eps) < math.radians(1e-3)

    def test_unreachable_target_empty(self):
        dims = Dims3D(1.7, 0.6, 0.5)
        assert oracle_candidates_for_span(dims, 2.0) == []

    def test_from_boxes_wrapper(self):
        dims = Dims3D(1.7, 0.6, 0.5)
        theta = 2.4
        h = 120.0
        w = h * width_span_abs(dims, theta) / dims.h1
        got = brute_force_orientation_oracle(Dims2D(h, w), dims)
        assert any(circ_abs_diff(g, theta) < math.radians(0.01) for g in got)


class TestDatasetFiles:
    def test_write_read_roundtrip(self, tmp_path):
        samples, _ = gen_dataset(SynthConfig(n=25, seed=1))
        path = tmp_path / "data.txt"
        write_dataset(path, samples)
        back = read_dataset(path)
        assert len(back) == len(samples)
        for s, b in zip(samples, back):
            assert b.dims2d == s.dims2d
            assert b.dims3d == s.dims3d
            assert b.theta == s.theta
            assert np.array_equal(b.context, s.context)

    def test_seeded_roundtrips_keep_every_bit(self, tmp_path):
        # read -> write -> read is the identity on generated rows and on
        # edge values: signed zero, the smallest subnormal, 1e308 and
        # inexact decimals.
        rng = np.random.default_rng(18)
        edges = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1.0 / 3.0, math.pi)

        def pick(ok):
            vals = [v for v in edges if ok(v)]
            return repr(vals[rng.integers(len(vals))])

        def bits(samples):
            return repr([(s.dims2d, s.dims3d, s.theta, s.context.tolist()) for s in samples])

        edge_rows, generated, out = (tmp_path / name for name in ("edges", "gen", "out"))
        for trial in range(40):
            edge_rows.write_text("".join(
                " ".join([pick(lambda v: v > 0) for _ in range(5)]
                         + [pick(lambda v: -math.pi < v <= math.pi)]
                         + [pick(lambda v: True) for _ in range(3)]) + "\n"
                for _ in range(3)))
            write_dataset(generated, gen_dataset(SynthConfig(n=4, seed=trial, context_width=3))[0])
            for source in (edge_rows, generated):
                first = read_dataset(source)
                write_dataset(out, first)
                text = out.read_text()
                again = read_dataset(out)
                assert bits(again) == bits(first)
                write_dataset(out, again)
                assert out.read_text() == text

    def test_file_bytes(self, tmp_path):
        # One %.17g per field, in column order, after the header; a change
        # of context width between samples changes the line's length.
        samples = (gen_dataset(SynthConfig(n=30, seed=2))[0]
                   + gen_dataset(SynthConfig(n=5, seed=3, context_width=3))[0])
        path = tmp_path / "data.txt"
        write_dataset(path, samples)
        want = "# h w h1 w1 l1 theta context...\n" + "".join(
            " ".join("%.17g" % v for v in [s.dims2d.h, s.dims2d.w, s.dims3d.h1, s.dims3d.w1,
                                            s.dims3d.l1, s.theta, *s.context]) + "\n"
            for s in samples)
        assert path.read_text() == want

    def test_read_gives_python_floats(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("# header\n  # indented comment\n  90 40 1.7 0.6 0.5 4.0 0 1 -2.5\t\n")
        (s,) = read_dataset(path)
        fields = (s.dims2d.h, s.dims2d.w, s.dims3d.h1, s.dims3d.w1, s.dims3d.l1, s.theta)
        assert all(type(v) is float for v in fields)
        assert fields == (90.0, 40.0, 1.7, 0.6, 0.5, 4.0 - 2 * math.pi)
        assert s.context.dtype == np.float64 and s.context.tolist() == [0.0, 1.0, -2.5]

    def test_header_and_blank_lines_skipped(self, tmp_path):
        samples, _ = gen_dataset(SynthConfig(n=2, seed=0))
        path = tmp_path / "data.txt"
        write_dataset(path, samples)
        text = path.read_text()
        assert text.startswith("#")
        path.write_text("\n" + text + "\n# trailing comment\n")
        assert len(read_dataset(path)) == 2

    def test_malformed_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 2.0 3.0\n")
        with pytest.raises(ValueError, match="line 1"):
            read_dataset(path)
        path.write_text("90 40 1.7 0.6 0.5 x 0 0 0\n")
        with pytest.raises(ValueError, match="non-numeric"):
            read_dataset(path)
        good = "90 40 1.7 0.6 0.5 0.3 0 0 0\n"
        for row, field in (("90 40 1.7 0.6 0.5 0.3 0 0\n", "context"),
                           ("90 40 1.7 0.6 0.5 0.3 0 0 0 0\n", "context"),
                           ("90 40 1.7 0.6 0.5 nan 0 0 0\n", "theta"),
                           ("90 40 1.7 0.6 0.5 inf 0 0 0\n", "theta"),
                           ("90 -4 1.7 0.6 0.5 0.3 0 0 0\n", "Dims2D.w")):
            path.write_text("# header\n" + good + row)
            with pytest.raises(ValueError, match=f"line 3: .*{field}") as info:
                read_dataset(path)
            assert str(path) in str(info.value)
        path.write_bytes(b"90 40 1.7 0.6 0.5 0.3 \xd0\xff 0 0\n")
        with pytest.raises(ValueError) as info:
            read_dataset(path)
        assert str(info.value).startswith(f"{path}: 'utf-8' codec can't decode byte 0xd0")
