"""Tests for detection matching, AOS/AP, and error histograms."""

import math

import numpy as np
import pytest

from pedorient.evaluation import (
    MIN_IOU,
    Detection,
    GroundTruth,
    aos,
    average_precision,
    box_iou,
    error_histogram,
    evaluate_detections,
    match_detections,
    orientation_similarity,
)


def det(x, score=1.0, theta=0.0, size=10.0):
    return Detection((x, 0.0, x + size, size), score, theta)


def gt(x, theta=0.0, size=10.0):
    return GroundTruth((x, 0.0, x + size, size), theta)


class TestBoxIou:
    def test_identical(self):
        assert box_iou((0, 0, 10, 10), (0, 0, 10, 10)) == 1.0

    def test_disjoint_and_touching(self):
        assert box_iou((0, 0, 10, 10), (20, 0, 30, 10)) == 0.0
        assert box_iou((0, 0, 10, 10), (10, 0, 20, 10)) == 0.0

    def test_half_overlap(self):
        # 2x2 squares offset by 1: intersection 2, union 6.
        assert box_iou((0, 0, 2, 2), (1, 0, 3, 2)) == pytest.approx(1 / 3)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            box_iou((0, 0, 0, 10), (0, 0, 10, 10))


class TestRecordValidation:
    def test_detection_checks(self):
        with pytest.raises(ValueError):
            Detection((0, 0, 10, 10), float("nan"), 0.0)
        with pytest.raises(ValueError):
            Detection((0, 0, -1, 10), 1.0, 0.0)

    def test_nonfinite_theta_and_box_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="Detection.theta"):
                Detection((0, 0, 10, 10), 1.0, bad)
            with pytest.raises(ValueError, match="GroundTruth.theta"):
                GroundTruth((0, 0, 10, 10), bad)
            for box in ((0, 0, bad, 10), (-bad, 0, 10, 10), (0, 0, 10, bad)):
                with pytest.raises(ValueError, match="box"):
                    Detection(box, 1.0, 0.0)
                with pytest.raises(ValueError, match="box"):
                    GroundTruth(box, 0.0)
                with pytest.raises(ValueError, match="box"):
                    box_iou(box, (0, 0, 10, 10))

    def test_box_stored_as_checked_floats(self):
        for record in (Detection([0, 1, np.int64(10), np.float32(12)], 1.0, 0.0),
                       GroundTruth(np.array([0, 1, 10, 12]), 0.0)):
            assert record.box2d == (0.0, 1.0, 10.0, 12.0)
            assert type(record.box2d) is tuple
            assert all(type(v) is float for v in record.box2d)

    def test_theta_wrapped(self):
        assert Detection((0, 0, 1, 1), 1.0, 4.0).theta == pytest.approx(
            4.0 - 2 * math.pi
        )
        assert GroundTruth((0, 0, 1, 1), -4.0).theta == pytest.approx(
            2 * math.pi - 4.0
        )


class TestOrientationSimilarity:
    def test_landmarks(self):
        assert orientation_similarity(0.3, 0.3) == 1.0
        assert orientation_similarity(0.0, math.pi) == pytest.approx(0.0, abs=1e-15)
        assert orientation_similarity(0.0, math.pi / 2) == pytest.approx(0.5)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            a, b = rng.uniform(-math.pi, math.pi, size=2)
            assert orientation_similarity(a, b) == pytest.approx(
                orientation_similarity(b, a), abs=1e-12
            )


class TestMatching:
    def test_greedy_by_score(self):
        # Both detections sit on the same ground truth; the higher score wins.
        gts = [gt(0.0)]
        dets = [det(1.0, score=0.5), det(0.5, score=0.9)]
        m = match_detections(dets, gts)
        assert [(di, gi) for di, gi, _ in m.matches] == [(1, 0)]
        assert m.unmatched_dets == [0]
        assert m.unmatched_gts == []

    def test_match_iou_is_box_iou_and_follows_a_greedy_reference(self):
        # Corners on a coarse grid of inexact floats (sums round), so pairs
        # of boxes touch, nest, coincide or are disjoint.  The reference takes, in descending
        # score order, the lowest-index unclaimed ground truth of highest
        # box_iou, if that IoU is > 0 and reaches the threshold.
        def reference(dets, gts, threshold):
            order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
            taken, matches = set(), []
            for di in order:
                ious = {gi: box_iou(dets[di].box2d, g.box2d)
                        for gi, g in enumerate(gts) if gi not in taken}
                best = max(ious.values(), default=0.0)
                if best > 0.0 and best >= threshold:
                    gi = min(k for k, v in ious.items() if v == best)
                    taken.add(gi)
                    matches.append((di, gi, best))
            return matches

        grid = [0.1 + 0.7 * i for i in range(10)]

        def boxes(k):
            x0, y0 = rng.integers(0, 6, (2, k))
            w, h = rng.integers(1, 5, (2, k))
            return [(grid[a], grid[b], grid[a + c], grid[b + d])
                    for a, b, c, d in zip(x0, y0, w, h)]

        rng = np.random.default_rng(3)
        kinds = set()
        for _ in range(300):
            dets = [Detection(b, float(sc), 0.0)
                    for b, sc in zip(boxes(6), rng.integers(0, 4, 6))]
            gts = [GroundTruth(b, 0.0) for b in boxes(5)]
            for d in dets:
                for g in gts:
                    a, b = d.box2d, g.box2d
                    lo = (max(a[0], b[0]), max(a[1], b[1]))
                    hi = (min(a[2], b[2]), min(a[3], b[3]))
                    kinds.add("coincide" if a == b
                              else "nest" if hi == a[2:] and lo == a[:2] or hi == b[2:] and lo == b[:2]
                              else "disjoint" if hi[0] < lo[0] or hi[1] < lo[1]
                              else "touch" if hi[0] == lo[0] or hi[1] == lo[1]
                              else "overlap")
            m = match_detections(dets, gts)
            assert m.matches == reference(dets, gts, MIN_IOU)
            for di, gi, iou in m.matches:
                assert iou.hex() == box_iou(dets[di].box2d, gts[gi].box2d).hex()
        assert kinds == {"coincide", "nest", "disjoint", "touch", "overlap"}

    def test_iou_gate(self):
        gts = [gt(0.0)]
        m = match_detections([det(8.0)], gts)  # IoU 2/18 < 0.5
        assert m.matches == []
        assert m.unmatched_dets == [0]
        assert m.unmatched_gts == [0]

    def test_each_gt_claimed_once(self):
        gts = [gt(0.0), gt(100.0)]
        dets = [det(0.0, score=0.9), det(1.0, score=0.8), det(100.0, score=0.7)]
        m = match_detections(dets, gts)
        assert {(di, gi) for di, gi, _ in m.matches} == {(0, 0), (2, 1)}
        assert m.unmatched_dets == [1]

    def test_ignore_region_absorbs(self):
        gts = [gt(0.0)]
        stray = det(200.0, score=0.9)
        m = match_detections([stray], gts, ignore_boxes=[(195.0, 0.0, 230.0, 30.0)])
        assert m.ignored_dets == [0]
        assert m.unmatched_dets == []

    def test_ignore_uses_detection_area(self):
        # Tiny detection fully inside a big ignore box: overlap/IoU would be
        # small, overlap/det-area is 1.
        m = match_detections(
            [det(200.0, size=5.0)], [gt(0.0)],
            ignore_boxes=[(150.0, -50.0, 400.0, 200.0)],
        )
        assert m.ignored_dets == [0]

    def test_bad_ignore_box_rejected(self):
        # Checked once per call, whether or not a detection reaches it.
        for box in ((0, 0, 0, 10), (0, 0, 10, math.nan), (0, 0, 10)):
            with pytest.raises(ValueError):
                match_detections([det(0.0)], [gt(0.0)], ignore_boxes=[box])


def covered_share(box, region):
    """The share of ``box``'s area that lies inside ``region``."""
    iw = min(box[2], region[2]) - max(box[0], region[0])
    ih = min(box[3], region[3]) - max(box[1], region[1])
    return max(iw, 0.0) * max(ih, 0.0) / ((box[2] - box[0]) * (box[3] - box[1]))


def brute_force_report(dets, gts, ignore_boxes=()):
    """AP, AOS and the (recall, os-precision) curve from scratch: greedy
    matching over a stable descending argsort of the scores, every counted
    prefix of that order tallied anew, then at each 11-point anchor the
    largest value over the prefixes that reach it."""
    order = [int(i) for i in np.argsort([-d.score for d in dets], kind="stable")]
    taken, matched_gt, ignored = set(), {}, set()
    for di in order:
        best_gi, best_iou = -1, 0.0
        for gi, g in enumerate(gts):
            iou = box_iou(dets[di].box2d, g.box2d)
            if gi not in taken and iou > best_iou:
                best_gi, best_iou = gi, iou
        if best_iou >= MIN_IOU:
            taken.add(best_gi)
            matched_gt[di] = best_gi
        elif any(covered_share(dets[di].box2d, ib) >= MIN_IOU for ib in ignore_boxes):
            ignored.add(di)
    counted = [di for di in order if di not in ignored]
    recalls, precisions, os_precisions = [], [], []
    for k in range(1, len(counted) + 1):
        tp, sim = 0, 0.0
        for di in counted[:k]:
            if di in matched_gt:
                tp += 1
                sim += orientation_similarity(dets[di].theta, gts[matched_gt[di]].theta)
        recalls.append(tp / len(gts))
        precisions.append(tp / k)
        os_precisions.append(sim / k)

    def envelope(values):
        total = 0.0
        for anchor in np.linspace(0.0, 1.0, 11):
            reached = [v for r, v in zip(recalls, values) if r >= anchor - 1e-12]
            total += max(reached) if reached else 0.0
        return total / 11

    return envelope(precisions), envelope(os_precisions), list(zip(recalls, os_precisions))


class TestAosAndAp:
    def test_matches_brute_force_envelope(self):
        # Seeded frames with tied scores, detections inside an ignore
        # region, missed ground truths and frames without a match; every
        # figure must equal the brute force bit for bit.
        rng = np.random.default_rng(18)
        ignore = [(2000.0, 0.0, 2200.0, 300.0)]
        n_ties = n_ignored = n_unmatched = 0
        for _ in range(400):
            n_gt = int(rng.choice([1, 2, 3, 4, 5, 10]))
            gts = [gt(100.0 * i, theta=rng.uniform(-4.0, 4.0), size=40.0) for i in range(n_gt)]
            dets = []
            for i in range(n_gt + 3):
                for _ in range(int(rng.integers(0, 3))):
                    x = 100.0 * i + rng.uniform(-25.0, 25.0)
                    score = rng.choice([0.5, 0.7]) if rng.random() < 0.5 else rng.uniform()
                    dets.append(det(x, score=score, theta=rng.uniform(-4.0, 4.0), size=40.0))
            for _ in range(int(rng.integers(0, 3))):
                dets.append(det(2050.0 + rng.uniform(0, 100), score=rng.uniform(), size=40.0))
            rep = evaluate_detections(dets, gts, ignore_boxes=ignore)
            want_ap, want_aos, want_curve = brute_force_report(dets, gts, ignore)
            assert (rep.ap, rep.aos, rep.os_recall_curve) == (want_ap, want_aos, want_curve)
            assert (rep.ap, rep.aos) == (average_precision(dets, gts, ignore_boxes=ignore),
                                         aos(dets, gts, ignore_boxes=ignore)[0])
            n_ties += len({d.score for d in dets}) < len(dets)
            n_ignored += len(want_curve) < len(dets)
            n_unmatched += rep.n_matched == 0
        assert min(n_ties, n_ignored, n_unmatched) >= 20

    def test_recall_on_an_anchor_counts_for_it(self):
        # Three of ten found: recall 0.3 sits 1 ulp below the anchor
        # linspace gives (0.30000000000000004) and still reaches it.
        gts = [gt(100.0 * i) for i in range(10)]
        dets = [det(100.0 * i, score=1.0 - 0.1 * i) for i in range(3)]
        assert evaluate_detections(dets, gts).ap == 4 / 11 == brute_force_report(dets, gts)[0]

    def test_perfect_detections(self):
        gts = [gt(0.0, theta=0.5), gt(100.0, theta=-2.0)]
        dets = [det(0.0, score=0.9, theta=0.5), det(100.0, score=0.8, theta=-2.0)]
        value, curve = aos(dets, gts)
        assert value == pytest.approx(1.0)
        assert average_precision(dets, gts) == pytest.approx(1.0)
        assert curve[-1] == (1.0, 1.0)

    def test_pi_flip_zeroes_aos_not_ap(self):
        gts = [gt(0.0, theta=0.0)]
        dets = [det(0.0, score=0.9, theta=math.pi)]
        value, _ = aos(dets, gts)
        assert value == pytest.approx(0.0, abs=1e-15)
        assert average_precision(dets, gts) == pytest.approx(1.0)

    def test_quarter_turn_single_detection(self):
        gts = [gt(0.0, theta=0.0)]
        dets = [det(0.0, score=0.9, theta=math.pi / 2)]
        value, curve = aos(dets, gts)
        assert value == 0.5
        assert curve == [(1.0, 0.5)]

    def test_missed_gt_caps_recall(self):
        gts = [gt(0.0), gt(100.0)]
        dets = [det(0.0, score=0.9)]
        # Recall tops out at 0.5: anchors 0.0-0.5 see precision 1, the rest 0.
        assert average_precision(dets, gts) == pytest.approx(6 / 11)

    def test_interleaved_false_positive(self):
        gts = [gt(0.0), gt(100.0)]
        dets = [det(0.0, score=0.9), det(50.0, score=0.8), det(100.0, score=0.7)]
        # Precision walk: 1/1, 1/2, 2/3; recalls 0.5, 0.5, 1.0.
        want = (6 * 1.0 + 5 * (2 / 3)) / 11
        assert average_precision(dets, gts) == pytest.approx(want)

    def test_aos_bounded_by_ap_random(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n_gt = int(rng.integers(1, 6))
            gts = [gt(20.0 * i, theta=rng.uniform(-math.pi, math.pi))
                   for i in range(n_gt)]
            dets = []
            for i in range(int(rng.integers(0, 8))):
                x = 20.0 * rng.integers(0, n_gt + 2) + rng.uniform(-3, 3)
                dets.append(det(x, score=rng.uniform(),
                                theta=rng.uniform(-math.pi, math.pi)))
            if not dets:
                continue
            value, _ = aos(dets, gts)
            assert value <= average_precision(dets, gts) + 1e-12

    def test_no_gts_rejected(self):
        with pytest.raises(ValueError):
            aos([det(0.0)], [])
        with pytest.raises(ValueError):
            average_precision([det(0.0)], [])

    def test_ignored_detection_does_not_hurt(self):
        gts = [gt(0.0, theta=1.0)]
        clean = [det(0.0, score=0.9, theta=1.0)]
        with_stray = clean + [det(200.0, score=0.95, theta=0.0)]
        ignore = [(195.0, -5.0, 215.0, 15.0)]
        a_clean, _ = aos(clean, gts)
        a_stray, _ = aos(with_stray, gts, ignore_boxes=ignore)
        assert a_stray == pytest.approx(a_clean)


class TestErrorHistogram:
    def test_binning(self):
        pairs = [
            (0.0, 0.0),                      # 0 deg -> bin 0
            (0.0, math.radians(15.0)),       # 15 deg -> bin 1
            (0.0, math.radians(175.0)),      # 175 deg -> bin 17
            (0.0, math.pi),                  # 180 deg -> clamped to bin 17
        ]
        counts = error_histogram(pairs)
        assert counts.shape == (18,)
        assert counts[0] == 1 and counts[1] == 1 and counts[17] == 2
        assert counts.sum() == 4


class TestEvalReport:
    def test_full_report_consistency(self):
        rng = np.random.default_rng(42)
        gts = [gt(30.0 * i, theta=rng.uniform(-math.pi, math.pi))
               for i in range(5)]
        dets = [det(30.0 * i + rng.uniform(-2, 2), score=rng.uniform(),
                    theta=rng.uniform(-math.pi, math.pi)) for i in range(5)]
        dets.append(det(500.0, score=0.5, theta=0.0))  # one false alarm
        rep = evaluate_detections(dets, gts)
        assert rep.aos <= rep.ap + 1e-12
        assert rep.histogram.sum() == rep.n_matched
        assert rep.n_gt == 5 and rep.n_det == 6
        pairs = [(dets[di].theta, gts[gi].theta)
                 for di, gi, _ in match_detections(dets, gts).matches]
        want_mae = np.mean([math.degrees(abs(math.remainder(a - b, 2 * math.pi)))
                            for a, b in pairs])
        assert rep.mean_abs_angular_error_deg == pytest.approx(want_mae)

    def test_no_matches_gives_nan_mae(self):
        rep = evaluate_detections([det(500.0, score=0.2)], [gt(0.0)])
        assert math.isnan(rep.mean_abs_angular_error_deg)
        assert rep.n_matched == 0

    def test_to_dict_shape(self):
        rep = evaluate_detections([det(0.0, score=0.9, theta=0.2)],
                                  [gt(0.0, theta=0.2)])
        d = rep.to_dict()
        assert set(d) == {
            "aos", "ap", "os_recall_curve", "histogram_deg10",
            "mean_abs_angular_error_deg", "n_gt", "n_det", "n_matched",
        }
        assert isinstance(d["histogram_deg10"], list)
        assert d["os_recall_curve"] == [[1.0, 1.0]]
