"""Synthetic pedestrian boxes with controllable noise, plus a grid oracle.

The generator draws plausible 3D pedestrian dimensions, a uniform yaw, and
a pixel scale, then renders the 2D box from the exact projective relation
(h = scale * h1, w = scale * span) with optional pixel noise.  The context
vector gives the model a deliberately imperfect look at the yaw: a one-hot
sector label that lies with probability ``context_noise``, plus the yaw's
sin/cos attenuated by the same factor and buried in Gaussian noise.  With
clean context the task is trivial; with noisy context the box dimensions
carry the information needed to refine the angle.

Each sample is drawn from its own RNG stream seeded by (seed, index), so
results do not depend on generation order or chunking.

The grid oracle scans in two passes: the span error at each block's middle
point, then every point of the blocks that the span's slope bound cannot
rule out, so it finds the hits of a dense scan without whole-grid arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Dims2D, Dims3D, implied_width_span, width_span, width_span_abs, wrap_angle
from .kitti_io import TrainingSample

TWO_PI = 2.0 * math.pi

# Pixel floor applied after box noise so 2D dimensions stay positive.
_MIN_PIXELS = 0.5
_CLUSTER_TOL = math.radians(0.01)  # grid hits closer than this are one root
GRID_STEP = math.radians(1e-3)  # the oracle's step; coarser grids give false hits at kinks
_BLOCK = 100  # grid points per block of the oracle's coarse pass


# The body-size prior: each 3D dimension is a normal draw (mean, sd)
# clipped to (lo, hi) in meters, and the pixel scale is uniform on
# (lo, hi) px per meter.
_H1_PRIOR = (1.7, 0.1, 1.4, 2.0)
_W1_PRIOR = (0.6, 0.1, 0.3, 0.9)
_L1_PRIOR = (0.5, 0.15, 0.2, 0.9)
_SCALE_RANGE = (30.0, 120.0)


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic generator.

    The 3D dimensions and the pixel scale come from a fixed prior (see
    ``_H1_PRIOR`` and its neighbours); the yaw is uniform on (-pi, pi].
    ``box_noise_sd`` is additive pixel noise on the rendered 2D box, and
    ``context_noise`` in [0, 1] blends the context from fully informative
    (0) to pure noise (1).
    """

    n: int = 1000
    seed: int = 0
    box_noise_sd: float = 1.0
    context_noise: float = 0.5
    context_width: int = 16

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.context_noise <= 1.0:
            raise ValueError(f"context_noise must be in [0, 1], got {self.context_noise}")
        if self.context_width < 3:
            raise ValueError(f"context_width must be >= 3, got {self.context_width}")
        if not (math.isfinite(self.box_noise_sd) and self.box_noise_sd >= 0):
            raise ValueError(f"box_noise_sd must be finite and >= 0, got {self.box_noise_sd!r}")


@dataclass(frozen=True)
class GenRecord:
    """Per-sample generation ground truth kept alongside the sample."""

    scale: float
    span: float
    h_clean: float
    w_clean: float


def _context_vector(rng, theta: float, cfg: SynthConfig) -> np.ndarray:
    cells = cfg.context_width - 2
    frac = (theta + math.pi) / TWO_PI  # in (0, 1]
    cell = min(int(frac * cells), cells - 1)
    if cells > 1 and rng.random() < cfg.context_noise:
        cell = (cell + 1 + rng.integers(0, cells - 1)) % cells
    ctx = np.zeros(cfg.context_width)
    ctx[cell] = 1.0
    gain = 1.0 - cfg.context_noise
    # Additive corruption at a quarter of the corruption level: the trig
    # channel stays coarsely informative at mid settings instead of
    # drowning entirely, which keeps bin-level orientation recoverable
    # from context alone while leaving room for geometric refinement.
    noise_sd = 0.25 * cfg.context_noise
    sin_t = gain * math.sin(theta)
    cos_t = gain * math.cos(theta)
    if noise_sd > 0:
        # Generator.normal(0.0, sd) returns 0.0 + sd * z; the 0.0 turns a
        # z of -0.0 into +0.0, which matters when gain is 0.
        z_sin, z_cos = rng.standard_normal(2).tolist()
        sin_t += 0.0 + noise_sd * z_sin
        cos_t += 0.0 + noise_sd * z_cos
    ctx[cells] = sin_t
    ctx[cells + 1] = cos_t
    return ctx


def gen_dataset(cfg: SynthConfig) -> tuple[list[TrainingSample], list[GenRecord]]:
    """Generate ``cfg.n`` samples and their generation records.

    Every draw is written as the arithmetic that ``Generator.normal`` and
    ``Generator.uniform`` do after checking their arguments:
    ``normal(loc, sd)`` is ``loc + sd * standard_normal()`` and
    ``uniform(lo, hi)`` is ``lo + (hi - lo) * random()``.  The draws and
    their order are those of the method calls, so the samples are the same
    bit for bit.
    """
    mean_h1, sd_h1, lo_h1, hi_h1 = _H1_PRIOR
    mean_w1, sd_w1, lo_w1, hi_w1 = _W1_PRIOR
    mean_l1, sd_l1, lo_l1, hi_l1 = _L1_PRIOR
    s_lo, s_hi = _SCALE_RANGE
    s_width = s_hi - s_lo
    box_sd = float(cfg.box_noise_sd)
    samples: list[TrainingSample] = []
    records: list[GenRecord] = []
    for i in range(cfg.n):
        rng = np.random.default_rng([cfg.seed, i])
        z_h1, z_w1, z_l1 = rng.standard_normal(3).tolist()
        # min(max(...)) is np.clip without its 0-d array round trip.
        h1 = min(max(mean_h1 + sd_h1 * z_h1, lo_h1), hi_h1)
        w1 = min(max(mean_w1 + sd_w1 * z_w1, lo_w1), hi_w1)
        l1 = min(max(mean_l1 + sd_l1 * z_l1, lo_l1), hi_l1)
        dims3d = Dims3D(h1, w1, l1)
        theta = wrap_angle(-math.pi + TWO_PI * rng.random())
        scale = s_lo + s_width * rng.random()
        span = width_span(dims3d, theta)
        h_clean = scale * h1
        w_clean = scale * span
        h, w = h_clean, w_clean
        if box_sd > 0:
            # h and w are > 0, so the 0.0 of normal's 0.0 + box_sd * z changes nothing.
            z_h, z_w = rng.standard_normal(2).tolist()
            h = max(h + box_sd * z_h, _MIN_PIXELS)
            w = max(w + box_sd * z_w, _MIN_PIXELS)
        ctx = _context_vector(rng, theta, cfg)
        samples.append(TrainingSample(Dims2D(h, w), dims3d, theta, ctx))
        records.append(GenRecord(scale, span, h_clean, w_clean))
    return samples, records


# ---------------------------------------------------------------------------
# Brute-force orientation oracle
# ---------------------------------------------------------------------------


def _span_error(dims: Dims3D, target: float, i: np.ndarray, n: int):
    """The n-point grid over (-pi, pi] at indices i (mod n), and |span - target| there."""
    th = -math.pi + (i % n + 1.0) * (TWO_PI / n)
    return th, np.abs(width_span_abs(dims, th) - target)


def oracle_candidates_for_span(dims: Dims3D, target: float) -> list[float]:
    """Grid-scan solutions of span(theta) == target over (-pi, pi].

    Scans at the fixed ``GRID_STEP`` resolution, keeps grid points where the
    absolute span error is a local minimum below tol = amplitude * step (the
    slope bound guarantees every true root produces such a dip), then
    merges hits closer than 0.01 degrees circularly and returns each
    cluster's best point, sorted ascending.

    Two passes over blocks of ``_BLOCK`` grid points: the error at each
    block's middle point, then at every point of the blocks it cannot rule
    out, with a one-point halo each side that wraps at +/-pi.  Since
    |d span/d theta| <= amplitude, a block whose middle error is at least
    tol * (half + 2) holds no point below tol.  Each grid index is tested
    once, so the hits are those of a dense scan of the whole grid.
    """
    n = round(TWO_PI / GRID_STEP)
    tol = math.hypot(dims.w1, dims.l1) * (TWO_PI / n)
    half = _BLOCK // 2
    starts = np.arange(0, n, _BLOCK)
    _, f_mid = _span_error(dims, target, np.minimum(starts + half, n - 1), n)
    i = starts[f_mid < tol * (half + 2), None] + np.arange(-1, _BLOCK + 1)
    th, f = _span_error(dims, target, i, n)
    # Columns 1.._BLOCK hold each block's points; those at or past n are padding.
    f_c = f[:, 1:-1]
    is_min = (f_c <= f[:, :-2]) & (f_c <= f[:, 2:]) & (f_c < tol) & (i[:, 1:-1] < n)
    if not is_min.any():
        return []

    hits = th[:, 1:-1][is_min]
    errs = f_c[is_min]
    # Cluster consecutive hits (hits are sorted in angle); join across the
    # +/-pi seam at the end.
    clusters: list[list[int]] = [[0]]
    for k in range(1, len(hits)):
        if hits[k] - hits[k - 1] <= _CLUSTER_TOL:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    if len(clusters) > 1:
        seam = (hits[0] + TWO_PI) - hits[-1]
        if seam <= _CLUSTER_TOL:
            clusters[0] = clusters.pop() + clusters[0]

    centers = []
    for members in clusters:
        best = min(members, key=lambda k: errs[k])
        centers.append(float(hits[best]))
    centers.sort()
    return centers


def brute_force_orientation_oracle(d2: Dims2D, dims: Dims3D) -> list[float]:
    """Grid-scan counterpart of the analytic orientation inversion.

    Solves span(theta) == implied span of the 2D box; see
    :func:`oracle_candidates_for_span`.
    """
    return oracle_candidates_for_span(dims, implied_width_span(d2, dims.h1))


# ---------------------------------------------------------------------------
# Dataset files
# ---------------------------------------------------------------------------

_HEADER = "# h w h1 w1 l1 theta context..."


def write_dataset(path, samples) -> None:
    """Write samples as plain text, one per line.

    Column order: h w h1 w1 l1 theta ctx_0 ... ctx_{k-1}.  Floats are
    printed with %.17g so reading the file back reproduces every value
    bit-exactly.
    """
    with open(path, "w") as fh:
        fh.write(_HEADER + "\n")
        width, fmt = -1, ""
        for s in samples:
            ctx = s.context.tolist()
            if len(ctx) != width:
                width = len(ctx)
                fmt = " ".join(["%.17g"] * (6 + width)) + "\n"
            d2, d3 = s.dims2d, s.dims3d
            fh.write(fmt % (d2.h, d2.w, d3.h1, d3.w1, d3.l1, s.theta, *ctx))


def read_dataset(path) -> list[TrainingSample]:
    """Read a dataset file written by :func:`write_dataset`."""
    samples: list[TrainingSample] = []
    width = -1
    with open(path) as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                parts = line.split()
                if not parts or parts[0].startswith("#"):
                    continue
                if len(parts) < 7:
                    raise ValueError(
                        f"{path}: line {line_no}: expected at least 7 columns, got {len(parts)}"
                    )
                try:
                    h, w, h1, w1, l1, theta, *ctx = map(float, parts)
                except ValueError:
                    raise ValueError(f"{path}: line {line_no}: non-numeric column") from None
                if width < 0:
                    width = len(ctx)
                elif len(ctx) != width:
                    raise ValueError(f"{path}: line {line_no}: context has {len(ctx)}"
                                     f" values, the first row's has {width}")
                try:
                    samples.append(TrainingSample(
                        Dims2D(h, w), Dims3D(h1, w1, l1), theta, np.array(ctx),
                    ))
                except ValueError as e:
                    raise ValueError(f"{path}: line {line_no}: {e}") from None
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: {e}") from None
    return samples
