"""Multi-bin orientation encoding, decoding, loss, and cross-bin voting.

Orientation is regressed redundantly: the full circle is split into
``num_bins`` sectors, each with a fixed center offset, and the network
predicts a (sin, cos) pair per bin for the *residual* angle theta - offset.
After adding offsets back, every bin should report the same global angle,
which enables an outlier vote across bins and a circular-mean aggregate.

The per-sample functions (:func:`per_bin_global_angles`,
:func:`exclusion_vote`, :func:`aggregate_orientation`) are the reference
that the batched path, ``model.decode_bins``, is tested against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import circ_abs_diff, wrap_angle


class DegenerateBinError(ValueError):
    """A (sin, cos) output pair is exactly (0, 0) and carries no angle."""


class DegenerateAggregateError(ValueError):
    """Included bin angles cancel; the circular mean is undefined."""


def default_offsets(num_bins: int) -> tuple[float, ...]:
    """Evenly spaced bin centers: offset_i = -pi + (2i + 1) * pi / num_bins.

    For num_bins = 4 this is (-3pi/4, -pi/4, pi/4, 3pi/4): the centers of
    the four yaw quadrants.
    """
    if num_bins < 1:
        raise ValueError(f"num_bins must be >= 1, got {num_bins}")
    step = math.pi / num_bins
    return tuple(-math.pi + (2 * i + 1) * step for i in range(num_bins))


@dataclass(frozen=True)
class BinConfig:
    """Bin layout: the number of bins and their :func:`default_offsets`."""

    num_bins: int
    offsets: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "offsets", default_offsets(self.num_bins))


def decode_angle(sin_val: float, cos_val: float) -> float:
    """Recover an angle in (-pi, pi] from an (unnormalized) sin/cos pair.

    Pure arctangent with quadrant correction: the result is invariant to
    scaling both components by any positive factor.  The exact (0, 0) pair
    is rejected as carrying no angle.
    """
    if sin_val == 0.0 and cos_val == 0.0:
        raise DegenerateBinError("cannot decode an angle from (0, 0)")
    return wrap_angle(math.atan2(sin_val, cos_val))


def encode_targets(theta: float, cfg: BinConfig) -> np.ndarray:
    """Per-bin residual targets: row i is (sin(theta - o_i), cos(theta - o_i))."""
    th = wrap_angle(float(theta))
    res = np.array([th - o for o in cfg.offsets])
    return np.stack([np.sin(res), np.cos(res)], axis=1)


def per_bin_global_angles(outputs, cfg: BinConfig) -> list[float]:
    """Decode each bin's residual pair and shift by its offset.

    Args:
        outputs: array-like of shape (num_bins, 2) with (sin, cos) rows.

    Raises:
        DegenerateBinError: naming the offending bin on an exact (0, 0) row.
    """
    out = np.asarray(outputs, dtype=float)
    if out.shape != (cfg.num_bins, 2):
        raise ValueError(f"expected shape ({cfg.num_bins}, 2), got {out.shape}")
    angles = []
    for i, (s, c) in enumerate(out):
        if s == 0.0 and c == 0.0:
            raise DegenerateBinError(f"bin {i} output is (0, 0)")
        angles.append(wrap_angle(math.atan2(s, c) + cfg.offsets[i]))
    return angles


def orientation_loss(outputs, theta_truth: float, cfg: BinConfig, excluded=frozenset()) -> float:
    """Summed per-bin cosine-gap loss against the true angle.

    Each non-excluded output pair is L2-normalized to (sin t, cos t) and
    scored as 1 - sin(tbar)*sin(t) - cos(tbar)*cos(t) where tbar is the
    bin's residual target; that equals 1 - cos(t - tbar), so each term lies
    in [0, 2] and vanishes only at zero angular error.

    Raises:
        ValueError: if every bin is excluded.
        DegenerateBinError: if a non-excluded pair is exactly (0, 0).
    """
    out = np.asarray(outputs, dtype=float)
    if out.shape != (cfg.num_bins, 2):
        raise ValueError(f"expected shape ({cfg.num_bins}, 2), got {out.shape}")
    excluded = frozenset(excluded)
    if len(excluded) >= cfg.num_bins:
        raise ValueError("all bins excluded; loss is undefined")
    targets = encode_targets(theta_truth, cfg)
    total = 0.0
    for i in range(cfg.num_bins):
        if i in excluded:
            continue
        s, c = out[i]
        norm = math.hypot(s, c)
        if norm == 0.0:
            raise DegenerateBinError(f"bin {i} output is (0, 0)")
        term = 1.0 - targets[i, 0] * (s / norm) - targets[i, 1] * (c / norm)
        total += max(term, 0.0)
    return total


def exclusion_vote(angles, tau: float) -> set[int]:
    """Vote out bins whose decoded angle disagrees with a consensus.

    Bin j is excluded iff both hold, with circular distances throughout:

    1. its angle differs from every other bin's angle by more than tau, and
    2. all pairwise differences among the *other* bins are below tau.

    With three or more bins at most one bin can satisfy both conditions.
    With exactly two bins the conditions are symmetric and would condemn
    both; since a vote that rejects everything identifies no outlier, the
    result is clamped to the empty set in that case.

    Args:
        angles: decoded global angles, one per bin.
        tau: disagreement threshold in radians, > 0.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be finite and > 0, got {tau}")
    angs = [float(a) for a in angles]
    n = len(angs)
    excluded = set()
    for j in range(n):
        others = [k for k in range(n) if k != j]
        if not others:
            continue
        if not all(circ_abs_diff(angs[j], angs[k]) > tau for k in others):
            continue
        consensus = all(
            circ_abs_diff(angs[k], angs[m]) < tau
            for idx, k in enumerate(others)
            for m in others[idx + 1:]
        )
        if consensus:
            excluded.add(j)
    if len(excluded) == n:
        return set()
    return excluded


@functools.cache
def _vote_weights(b: int) -> np.ndarray:
    """(b * b, b) weights scoring each bin from the flattened (b, b) signs of
    distance - tau: +1 on bin j's b - 1 distances to the others, -1 on the
    (b - 1)(b - 2) / 2 pairs k < m that avoid j, 0 elsewhere."""
    k, m, j = np.indices((b, b, b))
    w = ((k == j) & (m != j)).astype(float) - ((k < m) & (k != j) & (m != j))
    w = w.reshape(b * b, b)
    w.setflags(write=False)
    return w


def exclusion_mask_batch(angles: np.ndarray, tau: float) -> np.ndarray:
    """Vectorized vote over a batch: rows of angles -> boolean include mask.

    Equivalent to running :func:`exclusion_vote` per row (True = kept).
    With fewer than three bins no bin can be voted out.  Otherwise each
    distance of the (n, b, b) matrix counts +1 when above tau, -1 when
    below and 0 when equal; bin j is excluded iff its score reaches the
    maximum b (b - 1) / 2: far from all b - 1 others, with every pair
    k < m that avoids j close.  At most one bin per row can score that, and
    none when no distance is above tau.  A NaN angle makes a NaN distance,
    which makes every score of its row NaN, so that row keeps every bin, as
    the scalar vote does.  There is no early exit for a batch with no
    distance above tau: the vote fires on most rows, so the test costs more
    than it saves.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be finite and > 0, got {tau}")
    a = np.asarray(angles, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected (n, num_bins) array, got shape {a.shape}")
    n, b = a.shape
    if b < 3:
        return np.ones((n, b), dtype=bool)
    diff = wrap_angle(a[:, :, None] - a[:, None, :])  # (n, b, b), a new array
    np.abs(diff, out=diff)
    np.subtract(diff, tau, out=diff)
    score = np.sign(diff, out=diff).reshape(n, b * b) @ _vote_weights(b)
    return score != b * (b - 1) // 2


def aggregate_orientation(angles, excluded=frozenset()) -> float:
    """Circular mean of the non-excluded angles, in (-pi, pi].

    Computed as atan2 of the summed sines and cosines, so antipodal pairs
    like {-179 deg, 179 deg} resolve to 180 deg rather than 0.

    Raises:
        ValueError: if no angle survives the exclusion set.
        DegenerateAggregateError: if the surviving unit vectors cancel.
    """
    excluded = frozenset(excluded)
    kept = [float(a) for i, a in enumerate(angles) if i not in excluded]
    if not kept:
        raise ValueError("no angles left to aggregate")
    s = sum(math.sin(a) for a in kept)
    c = sum(math.cos(a) for a in kept)
    if math.hypot(s, c) < 1e-9:
        raise DegenerateAggregateError(
            "surviving bin directions cancel; circular mean undefined"
        )
    return wrap_angle(math.atan2(s, c))

