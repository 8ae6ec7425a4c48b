"""Conveyor-belt inspection toolkit: tracking-by-detection with two-stage
association, track-level label aggregation, quality metrics, and a seeded
scene simulator."""

from .aggregation import TrackVerdict, majority_vote
from .assignment import AssignmentResult, build_cost_matrix, solve_assignment
from .errors import ConfigError, InputError
from .kalman import (
    KalmanState,
    decode_boxes,
    kf_initiate,
    kf_predict,
    kf_update,
)
from .metrics import (
    VideoQualityReport,
    aggregated_report,
    defect_ratio,
    detection_map,
    stability_report,
)
from .model import (
    BinaryQuality,
    BoundingBox,
    CategoryLabel,
    Detection,
    FrameDetections,
    Track,
)
from .pipeline import (
    AggregationConfig,
    PipelineResult,
    PipelineRun,
    SceneEvaluation,
    evaluate_against_truth,
    run_pipeline,
    run_stream,
)
from .simulate import (
    SceneGroundTruth,
    SimConfig,
    generate_scene,
)
from .tracker import ByteTracker, TrackerConfig, TrackerOutput

__version__ = "0.1.0"
