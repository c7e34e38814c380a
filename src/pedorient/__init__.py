"""Pedestrian yaw estimation from monocular box geometry.

The package couples a projective relation between a person's 2D bounding
box and their 3D silhouette with a small multi-bin orientation network:
the width a 3D body presents to the camera depends on its yaw, so box
dimensions carry orientation evidence that can be recovered analytically
or fed to the network as an auxiliary input.
"""

__version__ = "0.1.0"

from .binning import (
    BinConfig,
    DegenerateAggregateError,
    DegenerateBinError,
    aggregate_orientation,
    decode_angle,
    default_offsets,
    encode_targets,
    exclusion_mask_batch,
    exclusion_vote,
    orientation_loss,
    per_bin_global_angles,
)
from .evaluation import (
    Detection,
    EvalReport,
    GroundTruth,
    box_iou,
    evaluate_detections,
    orientation_similarity,
)
from .geometry import (
    Dims2D,
    Dims3D,
    InversionResult,
    candidates_for_span,
    circ_abs_diff,
    circ_diff,
    consistency_residual,
    implied_width_span,
    invert_orientation_candidates,
    width_span,
    width_span_abs,
    wrap_angle,
)
from .kitti_io import (
    DONT_CARE,
    Difficulty,
    KittiParseError,
    ObjectLabel,
    ParseResult,
    TrainingSample,
    classify_difficulty,
    parse_label_file,
    serialize_labels,
)
from .model import (
    DEFAULT_SWEEP_FACTORS,
    Batch,
    DecodedBins,
    ForwardResult,
    LossGraph,
    ModelConfig,
    OrientationNet,
    TrainLogRow,
    TrainResult,
    TrainingDivergedError,
    analytic_selector_curve,
    build_loss_graph,
    build_model,
    decode_bins,
    evaluate_model,
    forward,
    forward_batch,
    load_model,
    make_batch,
    model_gradient_check,
    named_parameters,
    predict_orientation,
    save_model,
    sweep_2d_width,
    sweep_3d_height,
    total_loss,
    train,
)
from .nn_core import (
    GradCheckReport,
    Tape,
    finite_diff_check,
    sgd_step,
)
from .synth import (
    GenRecord,
    SynthConfig,
    brute_force_orientation_oracle,
    gen_dataset,
    oracle_candidates_for_span,
    read_dataset,
    write_dataset,
)
