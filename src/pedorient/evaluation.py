"""Detection-orientation evaluation: matching, AOS, and error histograms.

Detections and ground truths are plain axis-aligned pixel boxes with a yaw
each.  Matching is greedy in descending score order with an IoU gate, each
ground truth claimed at most once; detections falling on ignore regions
(DontCare boxes) count as neither hits nor false alarms.  The headline
metric averages orientation similarity (1 + cos(delta)) / 2 over the
recall curve with 11-point interpolation, so it is bounded above by the
plain average precision of the same detections.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import circ_abs_diff, wrap_angle

RECALL_ANCHORS = tuple(np.linspace(0.0, 1.0, 11))
MIN_IOU = 0.5  # the least box overlap that matches, as in KITTI
# A point reaches an anchor at a recall of at least the anchor less 1e-12.
_ANCHOR_FLOORS = tuple(float(a) - 1e-12 for a in RECALL_ANCHORS)


def _check_box(box) -> tuple[float, float, float, float]:
    left, top, right, bottom = (float(v) for v in box)
    if not (-math.inf < left < right < math.inf and -math.inf < top < bottom < math.inf):
        raise ValueError(f"degenerate or non-finite box {box}")
    return left, top, right, bottom


def _finite_theta(record) -> None:
    """Check the record's yaw is finite and store it wrapped, as a float."""
    theta = float(record.theta)
    if not math.isfinite(theta):
        raise ValueError(f"{type(record).__name__}.theta must be finite, got {theta!r}")
    object.__setattr__(record, "theta", wrap_angle(theta))


def _checked_box(record) -> None:
    """Check the record's box and store it as a tuple of floats."""
    object.__setattr__(record, "box2d", _check_box(record.box2d))


@dataclass(frozen=True)
class Detection:
    """A scored detection: box (left, top, right, bottom) px, score, yaw."""

    box2d: tuple[float, float, float, float]
    score: float
    theta: float

    def __post_init__(self):
        _checked_box(self)
        score = float(self.score)
        if not math.isfinite(score):
            raise ValueError(f"score must be finite, got {self.score}")
        # Stored as a float, like the box and the yaw, so scores sort as floats.
        object.__setattr__(self, "score", score)
        _finite_theta(self)


@dataclass(frozen=True)
class GroundTruth:
    """A ground-truth box and yaw."""

    box2d: tuple[float, float, float, float]
    theta: float

    def __post_init__(self):
        _checked_box(self)
        _finite_theta(self)


def box_iou(a, b) -> float:
    """Intersection over union of two (left, top, right, bottom) boxes."""
    return _iou(_check_box(a), _check_box(b))


def _iou(a, b) -> float:
    """:func:`box_iou` of two boxes already checked by :func:`_check_box`."""
    al, at, ar, ab = a
    bl, bt, br, bb = b
    iw = min(ar, br) - max(al, bl)
    ih = min(ab, bb) - max(at, bt)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (ar - al) * (ab - at) + (br - bl) * (bb - bt) - inter
    return inter / union


def _ignore_overlap(det_box, ignore_box) -> float:
    """Overlap of a detection with an ignore region, normalized by the
    detection's own area (an ignore region may be much larger).  Both
    boxes are already checked."""
    dl, dt, dr, db = det_box
    il, it, ir, ib = ignore_box
    iw = min(dr, ir) - max(dl, il)
    ih = min(db, ib) - max(dt, it)
    if iw <= 0 or ih <= 0:
        return 0.0
    return (iw * ih) / ((dr - dl) * (db - dt))


def orientation_similarity(theta_pred: float, theta_true: float) -> float:
    """(1 + cos(pred - true)) / 2: 1 at perfect agreement, 0 at a pi flip."""
    return (1.0 + math.cos(wrap_angle(theta_pred - theta_true))) / 2.0


@dataclass
class MatchResult:
    """Outcome of greedy matching.

    ``matches`` holds (det_index, gt_index, iou); ``ignored_dets`` are
    unmatched detections absorbed by ignore regions.  Index order within
    ``matches`` follows descending detection score.
    """

    matches: list[tuple[int, int, float]] = field(default_factory=list)
    unmatched_dets: list[int] = field(default_factory=list)
    unmatched_gts: list[int] = field(default_factory=list)
    ignored_dets: list[int] = field(default_factory=list)


def _score_order(dets) -> list[int]:
    """Detection indices by descending score, ties in input order."""
    neg = [-d.score for d in dets]
    return sorted(range(len(dets)), key=neg.__getitem__)


def match_detections(dets, gts, iou_threshold: float = MIN_IOU, ignore_boxes=()) -> MatchResult:
    """Greedily match detections to ground truths by descending score.

    Each detection claims the highest-IoU still-unclaimed ground truth if
    that IoU reaches the threshold.  Unmatched detections overlapping an
    ignore region by at least the threshold (measured against the
    detection's own area) are set aside as ignored.  Each ignore box is
    checked once per call, like the records' boxes at construction.
    """
    return _match_in_order(dets, gts, iou_threshold, ignore_boxes, _score_order(dets))


def _match_in_order(dets, gts, iou_threshold, ignore_boxes, order) -> MatchResult:
    """:func:`match_detections`, walking the detections in ``order``."""
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    result = MatchResult()
    ignore_boxes = [_check_box(b) for b in ignore_boxes]
    taken = set()
    for di in order:
        det = dets[di]
        best_gi, best_iou = -1, 0.0
        for gi, gt in enumerate(gts):
            if gi in taken:
                continue
            iou = _iou(det.box2d, gt.box2d)
            if iou > best_iou:
                best_gi, best_iou = gi, iou
        if best_gi >= 0 and best_iou >= iou_threshold:
            taken.add(best_gi)
            result.matches.append((di, best_gi, best_iou))
        elif any(_ignore_overlap(det.box2d, ib) >= iou_threshold for ib in ignore_boxes):
            result.ignored_dets.append(di)
        else:
            result.unmatched_dets.append(di)
    result.unmatched_gts = [gi for gi in range(len(gts)) if gi not in taken]
    return result


def _score_walk(dets, gts, match: MatchResult, order):
    """Walk the detections in ``order`` (descending score); return the
    recall, precision and orientation-similarity precision after each
    counted detection, as three lists."""
    matched_gt = {di: gi for di, gi, _ in match.matches}
    ignored = set(match.ignored_dets)
    n_gt = len(gts)
    tp = fp = 0
    sim_sum = 0.0
    recalls, precisions, os_precisions = [], [], []
    for di in order:
        if di in ignored:
            continue
        if di in matched_gt:
            tp += 1
            sim_sum += orientation_similarity(dets[di].theta, gts[matched_gt[di]].theta)
        else:
            fp += 1
        recalls.append(tp / n_gt)
        precisions.append(tp / (tp + fp))
        os_precisions.append(sim_sum / (tp + fp))
    return recalls, precisions, os_precisions


def _eleven_point(recalls: list[float], values: list[float]) -> float:
    """Mean over the 11 recall anchors of the best value at a recall of at
    least the anchor (less 1e-12), 0.0 where no point reaches it.

    Recall never falls along the score walk, so the points that reach an
    anchor are a suffix of the walk, found by bisection; ``best[i]`` is the
    largest of ``values[i:]``.
    """
    best = [*itertools.accumulate(reversed(values), max)][::-1] + [0.0]
    total = 0.0
    for floor in _ANCHOR_FLOORS:
        total += best[bisect.bisect_left(recalls, floor)]
    return total / len(_ANCHOR_FLOORS)


def aos(dets, gts, iou_threshold: float = MIN_IOU, ignore_boxes=()):
    """Average orientation similarity with 11-point recall interpolation.

    Returns:
        (value, curve) where curve is the list of (recall, os-precision)
        pairs traced while sweeping the score threshold.

    Raises:
        ValueError: when there are no ground truths to recall.
    """
    report = evaluate_detections(dets, gts, iou_threshold, ignore_boxes)
    return report.aos, report.os_recall_curve


def average_precision(dets, gts, iou_threshold: float = MIN_IOU, ignore_boxes=()) -> float:
    """11-point interpolated average precision over the same matching."""
    return evaluate_detections(dets, gts, iou_threshold, ignore_boxes).ap


def error_histogram(angle_pairs) -> np.ndarray:
    """Histogram of absolute circular errors in degrees.

    Eighteen bins cover [0, 180] in 10-degree steps; an error of exactly
    180 degrees lands in the last bin.

    Args:
        angle_pairs: iterable of (theta_pred, theta_true) in radians.
    """
    counts = np.zeros(18, dtype=int)
    for tp, tt in angle_pairs:
        err = math.degrees(circ_abs_diff(tp, tt))
        counts[min(int(err / 10.0), 17)] += 1
    return counts


@dataclass
class EvalReport:
    """Bundle of detection-orientation metrics.

    Invariants: ``aos <= ap`` and the histogram sums to ``n_matched``.
    """

    aos: float
    ap: float
    os_recall_curve: list[tuple[float, float]]
    histogram: np.ndarray
    mean_abs_angular_error_deg: float
    n_gt: int
    n_det: int
    n_matched: int

    def to_dict(self) -> dict:
        return {
            "aos": self.aos,
            "ap": self.ap,
            "os_recall_curve": [[r, o] for r, o in self.os_recall_curve],
            "histogram_deg10": self.histogram.tolist(),
            "mean_abs_angular_error_deg": self.mean_abs_angular_error_deg,
            "n_gt": self.n_gt,
            "n_det": self.n_det,
            "n_matched": self.n_matched,
        }


def evaluate_detections(dets, gts, iou_threshold: float = MIN_IOU, ignore_boxes=()) -> EvalReport:
    """Full evaluation: AOS, AP, error histogram, and mean angular error."""
    if not gts:
        raise ValueError("evaluation undefined without ground truths")
    order = _score_order(dets)
    match = _match_in_order(dets, gts, iou_threshold, ignore_boxes, order)
    recalls, precisions, os_precisions = _score_walk(dets, gts, match, order)
    pairs = [(dets[di].theta, gts[gi].theta) for di, gi, _ in match.matches]
    hist = error_histogram(pairs)
    if pairs:
        mae = float(np.mean([math.degrees(circ_abs_diff(a, b)) for a, b in pairs]))
    else:
        mae = float("nan")
    return EvalReport(
        aos=_eleven_point(recalls, os_precisions),
        ap=_eleven_point(recalls, precisions),
        os_recall_curve=list(zip(recalls, os_precisions)),
        histogram=hist,
        mean_abs_angular_error_deg=mae,
        n_gt=len(gts),
        n_det=len(dets),
        n_matched=len(match.matches),
    )
