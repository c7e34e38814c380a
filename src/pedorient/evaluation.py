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
from dataclasses import dataclass

import numpy as np

from .geometry import circ_abs_diff, wrap_angle

RECALL_ANCHORS = tuple(np.linspace(0.0, 1.0, 11))
MIN_IOU = 0.5  # the least box overlap that matches, as in KITTI
# A point reaches an anchor at a recall of at least the anchor less 1e-12.
_ANCHOR_FLOORS = tuple(float(a) - 1e-12 for a in RECALL_ANCHORS)


def _check_box(box) -> tuple[float, float, float, float]:
    left, top, right, bottom = map(float, box)
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
    al, at, ar, ab = _check_box(a)
    bl, bt, br, bb = _check_box(b)
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


def _score_order(dets) -> list[int]:
    """Detection indices by descending score, ties in input order."""
    neg = [-d.score for d in dets]
    return sorted(range(len(dets)), key=neg.__getitem__)


def _eleven_point(recalls: list[float], *series: list[float]) -> list[float]:
    """For each series of values, the mean over the 11 recall anchors of
    its best value at a recall of at least the anchor (less 1e-12), 0.0
    where no point reaches it.

    Recall never falls along the score walk, so the points that reach an
    anchor are a suffix of the walk, found by bisection once for all the
    series; ``best[i]`` is the largest of ``values[i:]``.
    """
    starts = [bisect.bisect_left(recalls, floor) for floor in _ANCHOR_FLOORS]
    means = []
    for values in series:
        best = [*itertools.accumulate(reversed(values), max)][::-1] + [0.0]
        total = 0.0
        for i in starts:
            total += best[i]
        means.append(total / len(starts))
    return means


@dataclass
class EvalReport:
    """Bundle of detection-orientation metrics.

    ``matches`` holds the (det_index, gt_index, iou) of each match, in
    descending detection score; :meth:`to_dict` leaves it out.
    Invariants: ``aos <= ap`` and the histogram sums to ``n_matched``.
    """

    aos: float
    ap: float
    os_recall_curve: list[tuple[float, float]]
    histogram: np.ndarray
    mean_abs_angular_error_deg: float
    n_gt: int
    n_det: int
    matches: list[tuple[int, int, float]]

    @property
    def n_matched(self) -> int:
        return len(self.matches)

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


def evaluate_detections(dets, gts, ignore_boxes=()) -> EvalReport:
    """AOS, AP, the error histogram and the mean angular error of ``dets``
    against ``gts``, with ``ignore_boxes`` as ignore regions.

    The detections are matched greedily in descending score order, ties in
    input order.  Each claims the highest-IoU still-unclaimed ground truth
    if that IoU reaches ``MIN_IOU``.  An unmatched detection overlapping an
    ignore region by at least ``MIN_IOU`` (measured against the
    detection's own area) is ignored: it counts as neither a hit nor a
    false positive.  Each ignore box is checked once per call, like the
    records' boxes at construction.

    Raises:
        ValueError: when there are no ground truths to recall, or an
            ignore box is degenerate or not finite.
    """
    if not gts:
        raise ValueError("evaluation undefined without ground truths")
    ignore_boxes = [_check_box(b) for b in ignore_boxes]
    # box_iou's arithmetic in its order, inline, with each ground truth's
    # area taken once; a pair that does not overlap (IoU 0) never wins.
    gt_boxes = [(*box, (box[2] - box[0]) * (box[3] - box[1]))
                for box in (gt.box2d for gt in gts)]
    n_gt = len(gts)
    taken = set()
    matches, errs, histogram = [], [], [0] * 18
    recalls, precisions, os_precisions = [], [], []
    tp = fp = 0
    sim_sum = 0.0
    for di in _score_order(dets):
        det = dets[di]
        al, at, ar, ab = det.box2d
        area = (ar - al) * (ab - at)
        best_gi, best_iou = -1, 0.0
        for gi, (bl, bt, br, bb, gt_area) in enumerate(gt_boxes):
            if gi in taken:
                continue
            iw = min(ar, br) - max(al, bl)
            ih = min(ab, bb) - max(at, bt)
            if iw <= 0 or ih <= 0:
                continue
            inter = iw * ih
            iou = inter / (area + gt_area - inter)
            if iou > best_iou:
                best_gi, best_iou = gi, iou
        if best_iou >= MIN_IOU:
            taken.add(best_gi)
            matches.append((di, best_gi, best_iou))
            theta_true = gts[best_gi].theta
            tp += 1
            sim_sum += orientation_similarity(det.theta, theta_true)
            err = math.degrees(circ_abs_diff(det.theta, theta_true))
            errs.append(err)
            # Ten-degree bins; an error of exactly 180 lands in the last.
            histogram[min(int(err / 10.0), 17)] += 1
        elif any(_ignore_overlap(det.box2d, ib) >= MIN_IOU for ib in ignore_boxes):
            continue
        else:
            fp += 1
        recalls.append(tp / n_gt)
        precisions.append(tp / (tp + fp))
        os_precisions.append(sim_sum / (tp + fp))
    aos_value, ap_value = _eleven_point(recalls, os_precisions, precisions)
    return EvalReport(
        aos=aos_value,
        ap=ap_value,
        os_recall_curve=list(zip(recalls, os_precisions)),
        histogram=np.array(histogram),
        mean_abs_angular_error_deg=float(np.mean(errs)) if errs else float("nan"),
        n_gt=n_gt,
        n_det=len(dets),
        matches=matches,
    )
