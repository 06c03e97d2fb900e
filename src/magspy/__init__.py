"""Magnetometer side-channel fingerprinting toolkit.

Synthetic sensor-trace simulation, preprocessing, random-forest
classification, continuous-stream target detection, motion filtering, and
end-to-end evaluation harnesses.
"""

from .detect import (ActivityPattern, CorrelationSeries, Detection,
                     PeakThresholds, average_pattern, cross_correlate,
                     detect_and_classify, find_peaks, load_pattern,
                     match_detections, save_pattern, score_detections)
from .experiments import (ContinuousResult, ExperimentConfig, MovementResult,
                          run_closed_world, run_continuous, run_movement,
                          run_open_world, run_sampling_sweep,
                          run_snr_calibration, run_scenario, write_report)
from .forest import (FeatureVector, ForestConfig, ForestModel,
                     cross_validate_grid, default_config_grid, extract_features,
                     load_model, predict, predict_many, save_model,
                     split_dataset, train_forest)
from .metrics import (ConfusionCounts, EvalReport, confusion, evaluate,
                      format_report_text, precision_recall_f1)
from .motion import MotionThresholds, is_disturbed
from .preprocess import (PcaResult, augment_with_inverse, normalize_unit_range,
                         pca_first_component, preprocess_recording, resample)
from .simulate import (DeviceProfile, MotionScript, RotationEvent, estimate_snr,
                       load_device_profile, load_motion_script,
                       make_class_signature, pattern_correlation,
                       perturb_pattern, profile_for_snr, random_motion_script,
                       render_recording, synth_square_pattern)
from .traces import (UNMONITORED_LABEL, CpuPattern, Dataset, SensorRecording,
                     Trace1D, load_recordings, save_recordings)

__version__ = "0.1.0"

__all__ = [
    "ActivityPattern", "ConfusionCounts", "ContinuousResult",
    "CorrelationSeries", "CpuPattern", "Dataset", "Detection", "DeviceProfile",
    "EvalReport", "ExperimentConfig", "FeatureVector", "ForestConfig",
    "ForestModel", "MotionScript", "MotionThresholds", "MovementResult",
    "PcaResult", "PeakThresholds", "RotationEvent", "SensorRecording",
    "Trace1D", "UNMONITORED_LABEL", "augment_with_inverse", "average_pattern",
    "confusion", "cross_correlate", "cross_validate_grid",
    "default_config_grid", "detect_and_classify", "estimate_snr", "evaluate",
    "extract_features", "find_peaks", "format_report_text", "is_disturbed",
    "load_device_profile", "load_model", "load_motion_script", "load_pattern",
    "load_recordings", "make_class_signature", "match_detections",
    "normalize_unit_range", "pattern_correlation", "pca_first_component",
    "perturb_pattern", "precision_recall_f1", "predict", "predict_many",
    "preprocess_recording", "profile_for_snr", "random_motion_script",
    "render_recording", "resample", "run_closed_world", "run_continuous",
    "run_movement", "run_open_world", "run_sampling_sweep", "run_scenario",
    "run_snr_calibration", "save_model", "save_pattern", "save_recordings",
    "score_detections", "split_dataset", "synth_square_pattern",
    "train_forest", "write_report",
]
