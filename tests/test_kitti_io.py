"""Tests for label-file parsing, serialization, and difficulty tiers."""

import math

import numpy as np
import pytest

from pedorient.kitti_io import (
    Difficulty,
    KittiParseError,
    ObjectLabel,
    TrainingSample,
    classify_difficulty,
    parse_label_file,
    serialize_labels,
    to_sample,
)
from pedorient.geometry import Dims2D, Dims3D

PED_LINE = (
    "Pedestrian 0.10 1 -1.2 423.50 145.20 458.10 255.80 "
    "1.78 0.60 0.45 2.31 1.65 14.20 -1.15"
)
DET_LINE = PED_LINE + " 0.87"
DONT_CARE_LINE = "DontCare -1 -1 -10 500.0 160.0 550.0 190.0 -1 -1 -1 -1000 -1000 -1000 -10"


class TestParsing:
    def test_ground_truth_line(self):
        res = parse_label_file(PED_LINE)
        assert len(res.labels) == 1
        lab = res.labels[0]
        assert lab.class_name == "Pedestrian"
        assert lab.truncation == 0.10
        assert lab.occlusion == 1
        assert lab.alpha == -1.2
        assert lab.box2d == (423.50, 145.20, 458.10, 255.80)
        assert lab.dims3d == (1.78, 0.60, 0.45)
        assert lab.location == (2.31, 1.65, 14.20)
        assert lab.rotation_y == -1.15
        assert lab.score is None
        assert res.angle_warnings == 0

    def test_detection_line_has_score(self):
        lab = parse_label_file(DET_LINE).labels[0]
        assert lab.score == 0.87

    def test_dont_care_keeps_sentinels(self):
        lab = parse_label_file(DONT_CARE_LINE).labels[0]
        assert lab.class_name == "DontCare"
        assert lab.dims3d == (-1.0, -1.0, -1.0)
        assert lab.rotation_y == -10.0

    def test_blank_lines_skipped(self):
        text = "\n" + PED_LINE + "\n\n" + DONT_CARE_LINE + "\n"
        res = parse_label_file(text)
        assert len(res.labels) == 2

    def test_accepts_iterable_of_lines(self):
        res = parse_label_file([PED_LINE, DET_LINE])
        assert len(res.labels) == 2

    def test_out_of_range_angle_wrapped_and_counted(self):
        parts = PED_LINE.split()
        parts[14] = "5.0"  # rotation_y beyond pi
        res = parse_label_file(" ".join(parts))
        assert res.angle_warnings == 1
        assert res.labels[0].rotation_y == pytest.approx(5.0 - 2 * math.pi)

    def test_wrong_field_count(self):
        with pytest.raises(KittiParseError, match="line 1"):
            parse_label_file("Pedestrian 0.0 0 0.5")

    def test_non_numeric_field_named(self):
        parts = PED_LINE.split()
        parts[9] = "tall"
        with pytest.raises(KittiParseError, match="width_3d"):
            parse_label_file(" ".join(parts))

    def test_line_number_reported(self):
        text = PED_LINE + "\nPedestrian bad line\n"
        with pytest.raises(KittiParseError, match="line 2"):
            parse_label_file(text)
        try:
            parse_label_file(text)
        except KittiParseError as e:
            assert e.line_no == 2

    def test_fractional_occlusion_rejected(self):
        parts = PED_LINE.split()
        parts[2] = "1.5"
        with pytest.raises(KittiParseError, match="occlusion"):
            parse_label_file(" ".join(parts))

    def test_range_violations_rejected(self):
        for idx, bad in ((1, "1.5"), (8, "-2.0")):
            parts = PED_LINE.split()
            parts[idx] = bad
            with pytest.raises(KittiParseError):
                parse_label_file(" ".join(parts))

    def test_nonfinite_fields_rejected(self):
        # Field index, bad value, expected message: box edges, location
        # coordinates, the score and the occlusion.
        cases = [(6, "inf", "bbox_right must be finite"), (4, "-inf", "bbox_left must be finite"),
                 (11, "nan", "x must be finite"), (13, "inf", "z must be finite"),
                 (15, "nan", "score must be finite"), (15, "inf", "score must be finite"),
                 (2, "nan", "field 'occlusion' must be an integer"),
                 (2, "inf", "field 'occlusion' must be an integer")]
        for idx, bad, message in cases:
            parts = DET_LINE.split()
            parts[idx] = bad
            with pytest.raises(KittiParseError, match=f"^line 2: {message}"):
                parse_label_file(PED_LINE + "\n" + " ".join(parts))
        with pytest.raises(ValueError, match="bbox_bottom"):
            ObjectLabel("Pedestrian", 0.0, 0, 0.0, (0.0, 0.0, 10.0, math.inf),
                        (1.7, 0.6, 0.5), (0.0, 1.6, 20.0), 0.0)
        # DontCare rows keep whatever sentinels they carry, but the
        # occlusion must still convert to an integer.
        dc = DONT_CARE_LINE.split()
        dc[11:14] = ["inf", "nan", "-inf"]
        assert parse_label_file(" ".join(dc)).labels[0].class_name == "DontCare"
        dc[2] = "inf"
        with pytest.raises(KittiParseError, match="^line 1: "):
            parse_label_file(" ".join(dc))

    def test_inverted_box_rejected(self):
        parts = PED_LINE.split()
        parts[4], parts[6] = parts[6], parts[4]  # left > right
        with pytest.raises(KittiParseError, match="bbox_right"):
            parse_label_file(" ".join(parts))


class TestSerialization:
    def test_roundtrip_identity(self):
        res = parse_label_file(PED_LINE + "\n" + DET_LINE + "\n" + DONT_CARE_LINE)
        text = serialize_labels(res.labels)
        again = parse_label_file(text)
        assert again.labels == res.labels
        assert serialize_labels(again.labels) == text

    def test_precision_preserved(self):
        parts = PED_LINE.split()
        parts[3] = repr(-1.2345678901234567)
        res = parse_label_file(" ".join(parts))
        back = parse_label_file(serialize_labels(res.labels)).labels[0]
        assert back.alpha == res.labels[0].alpha

    def test_empty_input(self):
        assert serialize_labels([]) == ""
        assert parse_label_file("").labels == []


class TestDifficulty:
    def make(self, height=60.0, occlusion=0, truncation=0.0):
        return ObjectLabel(
            "Pedestrian", truncation, occlusion, 0.5,
            (100.0, 100.0, 130.0, 100.0 + height),
            (1.7, 0.6, 0.5), (1.0, 1.0, 10.0), 0.5,
        )

    def test_tiers(self):
        assert classify_difficulty(self.make()) is Difficulty.EASY
        assert classify_difficulty(self.make(occlusion=1)) is Difficulty.MODERATE
        assert classify_difficulty(self.make(height=30.0)) is Difficulty.MODERATE
        assert classify_difficulty(self.make(occlusion=2)) is Difficulty.HARD
        assert classify_difficulty(self.make(truncation=0.4)) is Difficulty.HARD
        assert classify_difficulty(self.make(height=20.0)) is Difficulty.IGNORED
        assert classify_difficulty(self.make(occlusion=3)) is Difficulty.IGNORED

    def test_boundaries_inclusive(self):
        assert classify_difficulty(self.make(height=40.0, truncation=0.15)) is Difficulty.EASY
        assert classify_difficulty(self.make(height=25.0, occlusion=1, truncation=0.30)) is Difficulty.MODERATE
        assert classify_difficulty(self.make(height=25.0, occlusion=2, truncation=0.50)) is Difficulty.HARD

    def test_dont_care_ignored(self):
        lab = parse_label_file(DONT_CARE_LINE).labels[0]
        assert classify_difficulty(lab) is Difficulty.IGNORED


class TestTrainingSample:
    def test_to_sample_fields(self):
        lab = parse_label_file(PED_LINE).labels[0]
        s = to_sample(lab, context_width=8)
        assert s.dims2d == Dims2D(255.80 - 145.20, 458.10 - 423.50)
        assert s.dims3d == Dims3D(1.78, 0.60, 0.45)
        assert s.theta == -1.15
        assert s.context.shape == (8,)
        assert np.all(s.context == 0.0)

    def test_orientation_source_alpha(self):
        lab = parse_label_file(PED_LINE).labels[0]
        assert to_sample(lab, orientation_source="alpha").theta == -1.2
        with pytest.raises(ValueError):
            to_sample(lab, orientation_source="yaw")

    def test_non_pedestrian_rejected(self):
        line = PED_LINE.replace("Pedestrian", "Car", 1)
        lab = parse_label_file(line).labels[0]
        with pytest.raises(ValueError, match="Pedestrian"):
            to_sample(lab)

    def test_sample_wraps_theta(self):
        s = TrainingSample(Dims2D(100.0, 40.0), Dims3D(1.7, 0.6, 0.5),
                           4.0, np.zeros(4))
        assert s.theta == pytest.approx(4.0 - 2 * math.pi)

    def test_sample_rejects_nonfinite_theta(self):
        for theta in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="theta"):
                TrainingSample(Dims2D(100.0, 40.0), Dims3D(1.7, 0.6, 0.5),
                               theta, np.zeros(4))

    def test_sample_context_validation(self):
        with pytest.raises(ValueError):
            TrainingSample(Dims2D(100.0, 40.0), Dims3D(1.7, 0.6, 0.5),
                           0.5, np.zeros((2, 2)))
        for bad in ([np.nan], [0.0, 1.0, np.inf], [-np.inf, 2.0], np.array([1.0, np.nan], "f4")):
            with pytest.raises(ValueError, match="context must be finite"):
                TrainingSample(Dims2D(100.0, 40.0), Dims3D(1.7, 0.6, 0.5), 0.5, np.array(bad))
