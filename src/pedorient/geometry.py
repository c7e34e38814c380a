"""Projective geometry linking a pedestrian's 2D box to its 3D box and yaw.

Conventions used across the package:

* Angles are yaw values in radians, measured about the vertical axis of the
  camera frame, and live in the half-open interval (-pi, pi].
* 2D box dimensions are pixels (height ``h``, width ``w``).
* 3D box dimensions are meters (height ``h1``, width ``w1``, length ``l1``).

The central quantity is the *width span*: the horizontal extent, in meters,
that an upright box of plan dimensions (w1, l1) covers when viewed at yaw
theta.  Under a pinhole camera with the box roughly fronto-parallel, the
pixel ratio h/w of the 2D box equals the metric ratio h1/span, which ties
the 2D box, the 3D dimensions, and the yaw together.  Everything else in
this module (consistency residuals, orientation inversion) is built on
that relation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi


def wrap_angle(theta):
    """Wrap an angle (scalar or ndarray) into (-pi, pi].

    Values already in range are returned unchanged (bit-identical), which
    keeps round trips exact; only out-of-range values are reduced.

    A ``float`` (``np.float64`` included) takes a plain-float path and
    comes back as a Python ``float``.  Python's float ``%`` and
    ``np.remainder`` both take fmod and adjust its sign the same way, so
    that path matches the array path bit for bit; NaN and +/-inf give NaN.
    """
    if isinstance(theta, float):
        if -math.pi < theta <= math.pi:
            return float(theta)
        return float(math.pi - (math.pi - theta) % TWO_PI)
    th = np.asarray(theta, dtype=float)
    out = (th <= -math.pi) | (th > math.pi)
    if out.any():
        th = th.copy()
        th[out] = math.pi - np.remainder(math.pi - th[out], TWO_PI)
    if th.ndim == 0:
        return float(th)
    return th


def circ_diff(a, b):
    """Signed circular difference a - b, wrapped into (-pi, pi]."""
    if isinstance(a, float) and isinstance(b, float):
        return wrap_angle(a - b)
    return wrap_angle(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))


def circ_abs_diff(a, b):
    """Absolute circular distance between two angles, in [0, pi]."""
    d = circ_diff(a, b)
    return abs(d) if isinstance(d, float) else np.abs(d)


def _store_positive_floats(dims, names) -> None:
    """Check that each named field is a finite real number > 0 (Python or
    NumPy, not a bool) and store it as a Python float.

    An exact ``float`` is already stored as one, so it takes only the
    range test; the ABC ``numbers.Real`` check costs about ten times more.
    """
    for name in names:
        v = getattr(dims, name)
        if type(v) is float:
            if 0.0 < v < math.inf:
                continue
        elif not isinstance(v, bool) and isinstance(v, numbers.Real) and (
                math.isfinite(v) and v > 0):
            object.__setattr__(dims, name, float(v))
            continue
        raise ValueError(f"{type(dims).__name__}.{name} must be finite and > 0, got {v!r}")


@dataclass(frozen=True)
class Dims2D:
    """2D bounding-box dimensions in pixels.

    Attributes:
        h: box height in pixels, strictly positive.
        w: box width in pixels, strictly positive.
    """

    h: float
    w: float

    def __post_init__(self):
        _store_positive_floats(self, ("h", "w"))


@dataclass(frozen=True)
class Dims3D:
    """3D box dimensions in meters: height h1, width w1, length l1."""

    h1: float
    w1: float
    l1: float

    def __post_init__(self):
        _store_positive_floats(self, ("h1", "w1", "l1"))


def _as_hw(d2) -> tuple[float, float]:
    """Accept a Dims2D or a plain (h, w) pair. The pair form permits
    degenerate widths (w == 0) that the validated type rejects."""
    if isinstance(d2, Dims2D):
        return d2.h, d2.w
    h, w = d2
    h = float(h)
    w = float(w)
    if not (math.isfinite(h) and h > 0 and math.isfinite(w) and w >= 0):
        raise ValueError(f"need finite h > 0 and w >= 0, got ({h}, {w})")
    return h, w


def width_span(dims: Dims3D, theta):
    """Horizontal metric extent of a 3D box at yaw theta, by quadrant cases.

    The span is evaluated piecewise over the four yaw quadrants:

    ==================  =======================
    theta in            span
    ==================  =======================
    [0, pi/2)           w1*sin(t) + l1*cos(t)
    [pi/2, pi]          w1*sin(t) - l1*cos(t)
    [-pi/2, 0)          l1*cos(t) - w1*sin(t)
    [-pi, -pi/2)        -l1*cos(t) - w1*sin(t)
    ==================  =======================

    theta == pi is grouped with the second case; its value there agrees
    with the fourth case at the equivalent angle -pi.  Out-of-range input
    is wrapped first.  theta may be a scalar or an ndarray.

    Returns:
        Span in meters (float for scalar input, ndarray otherwise),
        non-negative and at most hypot(w1, l1).
    """
    w1, l1 = dims.w1, dims.l1
    th = wrap_angle(theta)
    if isinstance(th, float):
        s = float(np.sin(th))
        c = float(np.cos(th))
        if 0.0 <= th < HALF_PI:
            return w1 * s + l1 * c
        if th >= HALF_PI:
            return w1 * s - l1 * c
        if th >= -HALF_PI:
            return l1 * c - w1 * s
        return -l1 * c - w1 * s
    s = np.sin(th)
    c = np.cos(th)
    return np.where(
        (th >= 0.0) & (th < HALF_PI),
        w1 * s + l1 * c,
        np.where(
            th >= HALF_PI,
            w1 * s - l1 * c,
            np.where(th >= -HALF_PI, l1 * c - w1 * s, -l1 * c - w1 * s),
        ),
    )


def width_span_abs(dims: Dims3D, theta):
    """Quadrant-free form of the width span: w1*|sin(t)| + l1*|cos(t)|.

    Algebraically identical to :func:`width_span` on (-pi, pi]; kept as an
    independent route so the two can be checked against each other.
    """
    th = np.asarray(theta, dtype=float)
    val = dims.w1 * np.abs(np.sin(th)) + dims.l1 * np.abs(np.cos(th))
    if np.ndim(theta) == 0:
        return float(val)
    return val


def implied_width_span(d2, h1: float) -> float:
    """Metric span implied by the 2D box shape and the 3D height.

    From h/w = h1/span: span = h1 * w / h.  Degenerate w == 0 yields 0.
    """
    h, w = _as_hw(d2)
    if not (math.isfinite(h1) and h1 > 0):
        raise ValueError(f"h1 must be finite and > 0, got {h1}")
    return h1 * w / h


def consistency_residual(d2, dims: Dims3D, theta) -> float:
    """Signed consistency residual h * span(dims, theta) - w * h1, in px*m.

    Zero exactly when the 2D box shape, the 3D dimensions, and the yaw
    satisfy the projective ratio h/w = h1/span.  The sign is kept so
    callers can square or inspect direction as they wish.
    """
    h, w = _as_hw(d2)
    return h * width_span_abs(dims, float(theta)) - w * dims.h1


@dataclass(frozen=True)
class InversionResult:
    """Orientation candidates recovered from a 2D/3D dimension pair.

    Attributes:
        candidates: yaw candidates in (-pi, pi], sorted ascending,
            deduplicated, at most 8 entries.
        infeasible: True when the implied span exceeds the largest span
            the 3D dimensions can produce (no yaw can explain the boxes);
            candidates is then empty.  An empty candidate list with
            infeasible False means the implied span fell below the
            smallest achievable span instead.
    """

    candidates: tuple[float, ...]
    infeasible: bool


# Per-quadrant coefficients (a, b) so that span(theta) = a*sin + b*cos on
# the half-open interval [lo, hi).
_SPAN_CASES = (
    (1.0, 1.0, 0.0, HALF_PI),
    (1.0, -1.0, HALF_PI, math.pi),
    (-1.0, 1.0, -HALF_PI, 0.0),
    (-1.0, -1.0, -math.pi, -HALF_PI),
)

# Tolerance for accepting roots that land a hair outside their quadrant due
# to rounding; duplicates introduced at shared boundaries are merged below.
_EDGE_SLACK = 1e-12
# Relative slack on the amplitude bound before a target counts as unreachable.
_FEASIBILITY_SLACK = 1e-9
# Circular tolerance (radians) for merging the duplicate roots that adjacent
# quadrants find at their shared boundaries.
_DEDUP_TOL = 1e-9


def candidates_for_span(dims: Dims3D, target: float) -> InversionResult:
    """Solve span(theta) == target for theta analytically.

    Each quadrant case is a pure sinusoid a*w1*sin + b*l1*cos of amplitude
    R = hypot(w1, l1), so its roots come from arcsin directly; up to two
    roots per quadrant gives at most eight candidates overall.

    Args:
        dims: 3D box dimensions.
        target: desired span in meters, >= 0.
    """
    if not (math.isfinite(target) and target >= 0.0):
        raise ValueError(f"target span must be finite and >= 0, got {target}")
    w1, l1 = dims.w1, dims.l1
    r = math.hypot(w1, l1)
    if target > r * (1.0 + _FEASIBILITY_SLACK):
        return InversionResult((), True)
    x = min(target / r, 1.0)
    base = math.asin(x)

    roots: list[float] = []
    for sa, sb, lo, hi in _SPAN_CASES:
        phi = math.atan2(sb * l1, sa * w1)
        for raw in (base - phi, math.pi - base - phi):
            for k in (-1, 0, 1):
                th = raw + k * TWO_PI
                if lo - _EDGE_SLACK <= th < hi + _EDGE_SLACK:
                    roots.append(wrap_angle(th))

    return InversionResult(tuple(_merge_roots(roots)), False)


def _merge_roots(roots: list[float]) -> list[float]:
    """Sort roots in (-pi, pi] and drop each one within ``_DEDUP_TOL``
    (circularly) of an earlier survivor."""
    roots = sorted(roots)
    kept = roots[:1]
    for th in roots[1:]:
        # The survivors ascend and none exceeds th, so th is circularly
        # closest to the last one, or to the first across the +/-pi seam:
        # the rounded difference and its wrap are monotone, so these two
        # decide as every survivor would.  Across the seam the rounded
        # distance can depend on argument order, but only this order is
        # ever within the tolerance when the other is not.
        if (circ_abs_diff(th, kept[-1]) > _DEDUP_TOL
                and circ_abs_diff(th, kept[0]) > _DEDUP_TOL):
            kept.append(th)
    return kept


def invert_orientation_candidates(d2, dims: Dims3D) -> InversionResult:
    """All yaw values consistent with a 2D box and 3D dimensions.

    The target span is taken from :func:`implied_width_span`; see
    :func:`candidates_for_span` for the solving strategy.
    """
    return candidates_for_span(dims, implied_width_span(d2, dims.h1))
