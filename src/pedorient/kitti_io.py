"""Reading and writing KITTI-style object label files.

Each line is one object, whitespace separated, 15 fields for ground-truth
labels and 16 when a trailing detection score is present:

    type truncated occluded alpha
    bbox_left bbox_top bbox_right bbox_bottom
    height_3d width_3d length_3d
    x y z
    rotation_y [score]

2D box coordinates are pixels (left/top/right/bottom); 3D dimensions are
meters in height/width/length order; ``alpha`` and ``rotation_y`` are yaw
angles in radians.  ``DontCare`` rows keep their conventional sentinel
values (-1, -10, ...) verbatim and skip validation; all other rows are
validated field by field.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Dims2D, Dims3D, wrap_angle

DONT_CARE = "DontCare"

_NUMERIC_FIELDS = (
    "truncation", "occlusion", "alpha",
    "bbox_left", "bbox_top", "bbox_right", "bbox_bottom",
    "height_3d", "width_3d", "length_3d",
    "x", "y", "z",
    "rotation_y",
)


class KittiParseError(ValueError):
    """Malformed label line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Difficulty(enum.Enum):
    EASY = "Easy"
    MODERATE = "Moderate"
    HARD = "Hard"
    IGNORED = "Ignored"


@dataclass(frozen=True)
class ObjectLabel:
    """One parsed label row.

    ``box2d`` is (left, top, right, bottom) pixels, ``dims3d`` is
    (height, width, length) meters, ``location`` is (x, y, z) meters and
    ``score`` is present only for detection rows.  ``occlusion`` must be
    an ``int`` (not a ``bool``) on every row; the other checks are skipped
    for DontCare rows, which carry sentinel values.
    """

    class_name: str
    truncation: float
    occlusion: int
    alpha: float
    box2d: tuple[float, float, float, float]
    dims3d: tuple[float, float, float]
    location: tuple[float, float, float]
    rotation_y: float
    score: float | None = None

    def __post_init__(self):
        # Checked on every row, DontCare too, so that every label writes an
        # integer that parses back.
        if not isinstance(self.occlusion, int) or isinstance(self.occlusion, bool):
            raise ValueError(f"occlusion must be an int, got {self.occlusion!r}")
        if self.class_name == DONT_CARE:
            return
        if not 0.0 <= self.truncation <= 1.0:
            raise ValueError(f"truncation {self.truncation} outside [0, 1]")
        if self.occlusion not in (0, 1, 2, 3):
            raise ValueError(f"occlusion {self.occlusion} not in {{0, 1, 2, 3}}")
        coords = (*self.box2d, *self.location)
        if not all(map(math.isfinite, coords)):
            for name, v in zip(("bbox_left", "bbox_top", "bbox_right", "bbox_bottom",
                                "x", "y", "z"), coords):
                if not math.isfinite(v):
                    raise ValueError(f"{name} must be finite, got {v}")
        if self.score is not None and not math.isfinite(self.score):
            raise ValueError(f"score must be finite, got {self.score}")
        left, top, right, bottom = self.box2d
        if not right > left:
            raise ValueError(f"bbox_right {right} must exceed bbox_left {left}")
        if not bottom > top:
            raise ValueError(f"bbox_bottom {bottom} must exceed bbox_top {top}")
        for name, v in zip(("height_3d", "width_3d", "length_3d"), self.dims3d):
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        for ang_name in ("alpha", "rotation_y"):
            a = getattr(self, ang_name)
            if not (-math.pi < a <= math.pi):
                raise ValueError(f"{ang_name} {a} outside (-pi, pi]")

    def box_height(self) -> float:
        left, top, right, bottom = self.box2d
        return bottom - top


@dataclass
class ParseResult:
    """Labels, the line of the text each came from (counted from 1, blank
    lines included), and a count of angles that had to be wrapped into
    range."""

    labels: list[ObjectLabel]
    line_numbers: list[int]
    angle_warnings: int


def _parse_line(line_no: int, parts: list[str]) -> tuple[ObjectLabel, int]:
    if len(parts) not in (15, 16):
        raise KittiParseError(
            line_no, f"expected 15 or 16 fields, got {len(parts)}"
        )
    class_name = parts[0]
    try:
        values = [float(raw) for raw in parts[1:]]
    except ValueError:
        for name, raw in zip((*_NUMERIC_FIELDS, "score"), parts[1:]):
            try:
                float(raw)
            except ValueError:
                raise KittiParseError(
                    line_no, f"field {name!r} is not numeric: {raw!r}"
                ) from None
        raise
    score = values.pop() if len(values) == 15 else None

    (trunc, occ_f, alpha, left, top, right, bottom,
     h3, w3, l3, x, y, z, rot) = values

    warnings = 0
    if class_name != DONT_CARE:
        if not math.isfinite(occ_f) or occ_f != int(occ_f):
            raise KittiParseError(line_no, f"field 'occlusion' must be an integer, got {occ_f}")
        for ang_name, a in (("alpha", alpha), ("rotation_y", rot)):
            if not math.isfinite(a):
                raise KittiParseError(line_no, f"field {ang_name!r} is not finite")
            if not (-math.pi < a <= math.pi):
                warnings += 1
        alpha = wrap_angle(alpha)
        rot = wrap_angle(rot)

    try:
        label = ObjectLabel(
            class_name, trunc, int(occ_f), alpha,
            (left, top, right, bottom), (h3, w3, l3), (x, y, z),
            rot, score,
        )
    except (ValueError, OverflowError) as e:
        raise KittiParseError(line_no, str(e)) from None
    return label, warnings


def parse_label_file(text: str) -> ParseResult:
    """Parse the text of a label file.

    Blank lines are skipped; each label's line is kept in
    ``line_numbers``.  Angles outside (-pi, pi] on non-DontCare rows
    are wrapped into range and counted in ``angle_warnings``.

    Raises:
        KittiParseError: on wrong field counts, non-numeric fields, or
            values that violate a field's range, naming line and field.
    """
    result = ParseResult([], [], 0)
    for line_no, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        label, w = _parse_line(line_no, parts)
        result.labels.append(label)
        result.line_numbers.append(line_no)
        result.angle_warnings += w
    return result


# One label row: the class, truncation, occlusion, then alpha, the box, the
# 3D dimensions, the location and rotation_y; a detection row adds its score.
_ROW_FORMAT = "%s %.17g %d" + " %.17g" * 12
_SCORED_ROW_FORMAT = _ROW_FORMAT + " %.17g"


def serialize_labels(labels) -> str:
    """Render labels back to file text.

    Floats are printed with %.17g so parse -> serialize -> parse is the
    identity on well-formed input.
    """
    out = []
    for lab in labels:
        fields = (lab.class_name, lab.truncation, lab.occlusion, lab.alpha, *lab.box2d,
                  *lab.dims3d, *lab.location, lab.rotation_y)
        if lab.score is None:
            out.append(_ROW_FORMAT % fields)
        else:
            out.append(_SCORED_ROW_FORMAT % (*fields, lab.score))
    return "\n".join(out) + ("\n" if out else "")


def classify_difficulty(label: ObjectLabel) -> Difficulty:
    """KITTI difficulty tiers from box height, occlusion, and truncation.

    Easy:     height >= 40 px, occlusion 0,    truncation <= 0.15
    Moderate: height >= 25 px, occlusion <= 1, truncation <= 0.30
    Hard:     height >= 25 px, occlusion <= 2, truncation <= 0.50

    Anything failing all three tiers (including every DontCare row) is
    Ignored.
    """
    if label.class_name == DONT_CARE:
        return Difficulty.IGNORED
    height = label.box_height()
    if height >= 40 and label.occlusion == 0 and label.truncation <= 0.15:
        return Difficulty.EASY
    if height >= 25 and label.occlusion <= 1 and label.truncation <= 0.30:
        return Difficulty.MODERATE
    if height >= 25 and label.occlusion <= 2 and label.truncation <= 0.50:
        return Difficulty.HARD
    return Difficulty.IGNORED


@dataclass(eq=False)
class TrainingSample:
    """One orientation-regression sample.

    Attributes:
        dims2d: 2D box dimensions in pixels.
        dims3d: 3D box dimensions in meters.
        theta: ground-truth yaw in (-pi, pi] (wrapped at construction).
        context: auxiliary feature vector (1-D float64); zeros when no
            context source is available.
    """

    dims2d: Dims2D
    dims3d: Dims3D
    theta: float
    context: np.ndarray

    def __post_init__(self):
        theta = float(self.theta)
        if not math.isfinite(theta):
            raise ValueError(f"TrainingSample.theta must be finite, got {theta!r}")
        self.theta = wrap_angle(theta)
        self.context = np.asarray(self.context, dtype=float)
        if self.context.ndim != 1:
            raise ValueError(f"context must be 1-D, got shape {self.context.shape}")
        # One Python pass over a short context costs less than two ufunc calls.
        if not all(map(math.isfinite, self.context.tolist())):
            raise ValueError("context must be finite")

