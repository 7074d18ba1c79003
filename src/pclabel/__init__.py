"""pclabel: detection-guided 3D point labeling with k-means denoising.

Projects LIDAR points into calibrated cameras, labels every point whose
pixel falls inside a 2D detection box, then clusters each detection's
points and keeps only the most compact cluster of those big enough to be
the object, to strip frustum noise.
"""

from .calib import (
    CalibrationError,
    CameraModel,
    DistortionCoeffs,
    ExtrinsicPose,
    Intrinsics,
    camera_to_lidar,
    distort_normalized,
    load_rig,
    project_points,
    save_rig,
    undistort_normalized,
)
from .cloud_io import (
    FrameBundle,
    FrameIndex,
    FrameMatches,
    IndexEntry,
    PcdError,
    PointCloudFrame,
    match_frames,
    read_manifest,
    read_pcd,
    read_pcd_columns,
    write_manifest,
    write_pcd,
)
from .detect_ingest import (
    COCO_CLASSES,
    BBox,
    Detection,
    RejectedRecord,
    filter_oversized,
    load_detections,
    restrict_classes,
    write_detections,
)
from .fusion import LabeledCloud, label_frame
from .pipeline import PipelineConfig, PipelineError, PipelineResult, run_pipeline
from .scene import ScenePaths, default_rig, gen_scene, read_ground_truth
from .segment import (
    Clustering,
    FrameReport,
    KMeansConfig,
    SequenceSummary,
    aggregate_reports,
    denoise_frame,
    frame_report,
    kmeans,
    read_report_csv,
    write_report_csv,
)

__version__ = "0.1.0"
