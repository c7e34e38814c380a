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
from pedorient.synth import SynthConfig, gen_dataset, read_dataset, write_dataset

PED_LINE = (
    "Pedestrian 0.10 1 -1.2 423.50 145.20 458.10 255.80 "
    "1.78 0.60 0.45 2.31 1.65 14.20 -1.15"
)
DET_LINE = PED_LINE + " 0.87"
DONT_CARE_LINE = "DontCare -1 -1 -10 500.0 160.0 550.0 190.0 -1 -1 -1 -1000 -1000 -1000 -10"

# Values that %.17g must carry through a round trip: signed zero, the
# smallest subnormal, the largest powers of ten, and inexact decimals.
EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1.0 / 3.0)


def random_label_text(rng, n_rows):
    """Label rows: DontCare rows with their sentinels or edge values, and
    pedestrian rows with edge values wherever a field's range allows,
    about half of them with a score."""

    def value(lo=-1e308, hi=1e308):
        if rng.random() < 0.4:
            edges = [v for v in EDGE_VALUES if lo <= v <= hi]
            return float(edges[rng.integers(len(edges))])
        return float(rng.uniform(max(lo, -1e3), min(hi, 1e3)))

    rows = []
    for _ in range(n_rows):
        if rng.random() < 0.2:
            fields = DONT_CARE_LINE.split()
            if rng.random() < 0.5:
                fields[4:8] = [repr(value()) for _ in range(4)]
            rows.append(" ".join(fields))
            continue
        left, top = value(-1e3, 1e3), value(-1e3, 1e3)
        fields = ["Pedestrian", repr(value(0.0, 1.0)), str(int(rng.integers(4))),
                  repr(value(-3.14, 3.14)), repr(left), repr(top),
                  repr(left + float(rng.uniform(1.0, 300.0))),
                  repr(top + float(rng.uniform(1.0, 300.0))),
                  *[repr(value(5e-324)) for _ in range(3)],
                  *[repr(value()) for _ in range(3)], repr(value(-3.14, 3.14))]
        if rng.random() < 0.5:
            fields.append(repr(value()))
        rows.append(" ".join(fields))
    return "\n".join(rows) + "\n"


def per_field_serialize(labels):
    """Label text with one %.17g per float field, joined by spaces."""
    out = []
    for lab in labels:
        fields = [lab.class_name, "%.17g" % lab.truncation, str(lab.occlusion),
                  "%.17g" % lab.alpha]
        fields += ["%.17g" % v for v in (*lab.box2d, *lab.dims3d, *lab.location)]
        fields.append("%.17g" % lab.rotation_y)
        if lab.score is not None:
            fields.append("%.17g" % lab.score)
        out.append(" ".join(fields))
    return "".join(line + "\n" for line in out)


# Replacement fields for the fuzz: non-numbers, overflow, non-finite values,
# numbers Python's float() reads but KITTI files do not hold, class names.
FUZZ_TOKENS = ("nan", "inf", "-inf", "1e400", "-1e400", "True", "0x10", "1_0", "--1",
               "1e", "3.5.1", "+", "DontCare", "Pedestrian", "#", "5e-324", "-0", "\x00", "\u00e9")
FUZZ_CHARS = "0123456789.-+eEnaif# \t\n"


def mutate(text, rng):
    """Apply one to three random edits: delete, insert or replace a
    character, replace, drop or repeat a field, truncate the text, or
    repeat or drop a line."""
    for _ in range(int(rng.integers(1, 4))):
        op = int(rng.integers(7))
        if op <= 2 and text:
            i = int(rng.integers(len(text)))
            ch = FUZZ_CHARS[rng.integers(len(FUZZ_CHARS))]
            text = text[:i] + ("", ch, ch)[op] + text[i + (op != 1):]
            continue
        lines = text.split("\n")
        li = int(rng.integers(len(lines)))
        fields = lines[li].split()
        if op == 3 and fields:
            fields[rng.integers(len(fields))] = FUZZ_TOKENS[rng.integers(len(FUZZ_TOKENS))]
        elif op == 4 and fields:
            del fields[rng.integers(len(fields))]
        elif op == 5 and fields:
            fields.insert(int(rng.integers(len(fields))), fields[rng.integers(len(fields))])
        elif op == 6:
            if rng.random() < 0.5:
                text = text[:int(rng.integers(len(text) + 1))]
            else:
                lines.insert(li, lines[int(rng.integers(len(lines)))])
                text = "\n".join(lines)
            continue
        lines[li] = " ".join(fields)
        text = "\n".join(lines)
    return text


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

    def test_occlusion_must_be_an_int(self):
        # A bool or a float would be written as "True" or "2.0": the first
        # does not parse back, the second parses as the int 2.
        parts = PED_LINE.split()
        box, dims, loc = (423.5, 145.2, 458.1, 255.8), (1.78, 0.6, 0.45), (2.31, 1.65, 14.2)
        for name in ("Pedestrian", "DontCare"):
            for bad in (True, False, 2.0, np.int64(1), "1", None):
                with pytest.raises(ValueError, match="^occlusion must be an int"):
                    ObjectLabel(name, 0.1, bad, -1.2, box, dims, loc, -1.15)
        lab = ObjectLabel("Pedestrian", 0.1, 1, -1.2, box, dims, loc, -1.15)
        (back,) = parse_label_file(serialize_labels([lab])).labels
        assert back == lab and serialize_labels([back]).split()[2] == parts[2]

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

    def test_seeded_roundtrips(self):
        # parse -> serialize -> parse is the identity, down to the sign of
        # zero, and the text is what one %.17g per field gives.
        rng = np.random.default_rng(18)
        for _ in range(300):
            labels = parse_label_file(random_label_text(rng, int(rng.integers(1, 8)))).labels
            text = serialize_labels(labels)
            assert text == per_field_serialize(labels)
            again = parse_label_file(text).labels
            assert repr(again) == repr(labels)
            assert serialize_labels(again) == text


class TestParserFuzz:
    """Seeded mutations of valid files: each either parses or raises the
    parser's ValueError, never another exception."""

    def test_label_parser_raises_only_parse_errors(self):
        rng = np.random.default_rng(6)
        rejected = 0
        for _ in range(3000):
            text = mutate(random_label_text(rng, int(rng.integers(1, 4))), rng)
            try:
                parse_label_file(text)
            except KittiParseError:
                rejected += 1
        assert 1000 < rejected < 3000

    def test_dataset_reader_raises_only_value_errors(self, tmp_path):
        rng = np.random.default_rng(7)
        path = tmp_path / "data.txt"
        write_dataset(path, gen_dataset(SynthConfig(n=3, seed=0, context_width=3))[0])
        valid = path.read_text()
        rejected = 0
        for _ in range(1500):
            path.write_text(mutate(valid, rng), encoding="utf-8")
            try:
                read_dataset(path)
            except ValueError:
                rejected += 1
        assert 500 < rejected < 1500


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
