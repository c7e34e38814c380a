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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Dims2D, Dims3D, implied_width_span, width_span, wrap_angle
from .kitti_io import TrainingSample

TWO_PI = 2.0 * math.pi

# Pixel floor applied after box noise so 2D dimensions stay positive.
_MIN_PIXELS = 0.5


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic generator.

    3D dimensions are normal draws clipped to a plausible range; the yaw is
    uniform on (-pi, pi]; the pixel scale (px per meter) is uniform.
    ``box_noise_sd`` is additive pixel noise on the rendered 2D box, and
    ``context_noise`` in [0, 1] blends the context from fully informative
    (0) to pure noise (1).
    """

    n: int
    seed: int = 0
    h1_mean: float = 1.7
    h1_sd: float = 0.1
    h1_range: tuple[float, float] = (1.4, 2.0)
    w1_mean: float = 0.6
    w1_sd: float = 0.1
    w1_range: tuple[float, float] = (0.3, 0.9)
    l1_mean: float = 0.5
    l1_sd: float = 0.15
    l1_range: tuple[float, float] = (0.2, 0.9)
    scale_range: tuple[float, float] = (30.0, 120.0)
    box_noise_sd: float = 1.0
    context_noise: float = 0.5
    context_width: int = 16

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if not 0.0 <= self.context_noise <= 1.0:
            raise ValueError(f"context_noise must be in [0, 1], got {self.context_noise}")
        if self.context_width < 3:
            raise ValueError(f"context_width must be >= 3, got {self.context_width}")
        if self.box_noise_sd < 0:
            raise ValueError(f"box_noise_sd must be >= 0, got {self.box_noise_sd}")
        for lo, hi in (self.h1_range, self.w1_range, self.l1_range, self.scale_range):
            if not lo < hi:
                raise ValueError(f"empty range ({lo}, {hi})")


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
    if cells > 1 and rng.uniform() < cfg.context_noise:
        cell = (cell + 1 + rng.integers(0, cells - 1)) % cells
    ctx = np.zeros(cfg.context_width)
    ctx[cell] = 1.0
    gain = 1.0 - cfg.context_noise
    # Additive corruption at a quarter of the corruption level: the trig
    # channel stays coarsely informative at mid settings instead of
    # drowning entirely, which keeps bin-level orientation recoverable
    # from context alone while leaving room for geometric refinement.
    noise_sd = 0.25 * cfg.context_noise
    ctx[cells] = gain * math.sin(theta)
    ctx[cells + 1] = gain * math.cos(theta)
    if noise_sd > 0:
        ctx[cells:] += rng.normal(0.0, noise_sd, size=2)
    return ctx


def gen_dataset(cfg: SynthConfig) -> tuple[list[TrainingSample], list[GenRecord]]:
    """Generate ``cfg.n`` samples and their generation records."""
    samples: list[TrainingSample] = []
    records: list[GenRecord] = []
    for i in range(cfg.n):
        rng = np.random.default_rng([cfg.seed, i])
        # min(max(...)) is np.clip without its 0-d array round trip.
        h1 = min(max(rng.normal(cfg.h1_mean, cfg.h1_sd), cfg.h1_range[0]), cfg.h1_range[1])
        w1 = min(max(rng.normal(cfg.w1_mean, cfg.w1_sd), cfg.w1_range[0]), cfg.w1_range[1])
        l1 = min(max(rng.normal(cfg.l1_mean, cfg.l1_sd), cfg.l1_range[0]), cfg.l1_range[1])
        dims3d = Dims3D(h1, w1, l1)
        theta = wrap_angle(rng.uniform(-math.pi, math.pi))
        scale = rng.uniform(*cfg.scale_range)
        span = width_span(dims3d, theta)
        h_clean = scale * h1
        w_clean = scale * span
        h, w = h_clean, w_clean
        if cfg.box_noise_sd > 0:
            h = max(h + rng.normal(0.0, cfg.box_noise_sd), _MIN_PIXELS)
            w = max(w + rng.normal(0.0, cfg.box_noise_sd), _MIN_PIXELS)
        ctx = _context_vector(rng, theta, cfg)
        samples.append(TrainingSample(Dims2D(h, w), dims3d, theta, ctx))
        records.append(GenRecord(scale, span, h_clean, w_clean))
    return samples, records


# ---------------------------------------------------------------------------
# Brute-force orientation oracle
# ---------------------------------------------------------------------------

# |sin|/|cos| grids are fixed per grid size; cache them across calls.
_GRID_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _grid(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    cached = _GRID_CACHE.get(n)
    if cached is None:
        th = -math.pi + (np.arange(n, dtype=float) + 1.0) * (TWO_PI / n)
        cached = (th, np.abs(np.sin(th)), np.abs(np.cos(th)))
        _GRID_CACHE[n] = cached
    return cached


def oracle_candidates_for_span(
    dims: Dims3D,
    target: float,
    grid_step: float = math.radians(1e-3),
    cluster_tol: float = math.radians(0.01),
) -> list[float]:
    """Grid-scan solutions of span(theta) == target over (-pi, pi].

    Scans at ``grid_step`` resolution, keeps grid points where the absolute
    span error is a local minimum below amplitude * grid_step (the slope
    bound guarantees every true root produces such a dip), then merges
    hits closer than ``cluster_tol`` circularly and returns each cluster's
    best point, sorted ascending.
    """
    if not grid_step > 0:
        raise ValueError(f"grid_step must be > 0, got {grid_step}")
    n = max(int(round(TWO_PI / grid_step)), 8)
    th, abs_sin, abs_cos = _grid(n)
    f = np.abs(dims.w1 * abs_sin + dims.l1 * abs_cos - target)
    tol = math.hypot(dims.w1, dims.l1) * (TWO_PI / n)
    is_min = (f <= np.roll(f, 1)) & (f <= np.roll(f, -1)) & (f < tol)
    idx = np.flatnonzero(is_min)
    if idx.size == 0:
        return []

    hits = th[idx]
    errs = f[idx]
    # Cluster consecutive hits (hits are sorted in angle); join across the
    # +/-pi seam at the end.
    clusters: list[list[int]] = [[0]]
    for k in range(1, len(hits)):
        if hits[k] - hits[k - 1] <= cluster_tol:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    if len(clusters) > 1:
        seam = (hits[0] + TWO_PI) - hits[-1]
        if seam <= cluster_tol:
            clusters[0] = clusters.pop() + clusters[0]

    centers = []
    for members in clusters:
        best = min(members, key=lambda k: errs[k])
        centers.append(float(hits[best]))
    centers.sort()
    return centers


def brute_force_orientation_oracle(
    d2,
    dims: Dims3D,
    grid_step: float = math.radians(1e-3),
    cluster_tol: float = math.radians(0.01),
) -> list[float]:
    """Grid-scan counterpart of the analytic orientation inversion.

    Solves span(theta) == implied span of the 2D box; see
    :func:`oracle_candidates_for_span`.
    """
    target = implied_width_span(d2, dims.h1)
    return oracle_candidates_for_span(dims, target, grid_step, cluster_tol)


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
        for s in samples:
            vals = [s.dims2d.h, s.dims2d.w, s.dims3d.h1, s.dims3d.w1,
                    s.dims3d.l1, s.theta]
            vals.extend(s.context.tolist())
            fh.write(" ".join("%.17g" % v for v in vals) + "\n")


def read_dataset(path) -> list[TrainingSample]:
    """Read a dataset file written by :func:`write_dataset`."""
    samples: list[TrainingSample] = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 7:
                raise ValueError(
                    f"{path}: line {line_no}: expected at least 7 columns, got {len(parts)}"
                )
            try:
                vals = [float(p) for p in parts]
            except ValueError:
                raise ValueError(f"{path}: line {line_no}: non-numeric column") from None
            h, w, h1, w1, l1, theta = vals[:6]
            if samples and len(vals) - 6 != samples[0].context.size:
                raise ValueError(f"{path}: line {line_no}: context has {len(vals) - 6}"
                                 f" values, the first row's has {samples[0].context.size}")
            try:
                samples.append(TrainingSample(
                    Dims2D(h, w), Dims3D(h1, w1, l1), theta, np.array(vals[6:]),
                ))
            except ValueError as e:
                raise ValueError(f"{path}: line {line_no}: {e}") from None
    return samples
