"""Gait-based device-to-device pairing toolkit.

Body-worn devices derive always-fresh shared secrets from the wearer's
instantaneous gait: IMU streams are gravity-aligned and band-limited,
segmented into normalized gait cycles, quantized into reliability-ranked
binary fingerprints, and error-corrected into matching keys, which a
nonce exchange and explicit key confirmation turn into a session secret.
"""

from .config import Config
from .dataset_io import (
    Corpus,
    PositionSpec,
    SyntheticGaitSpec,
    Window,
    generate_synthetic,
    load_csv,
    save_csv,
    sliding_windows,
)
from .fingerprint import (
    Fingerprint,
    ReducedFingerprint,
    average_cycle,
    compute_fingerprint,
    quantize,
    reduce,
    reliability_order,
    similarity,
)
from .fuzzy_ecc import CodeParams, FuzzyKey, choose_params, code_table, decode, encode
from .gait import (
    CycleDetection,
    GaitSequence,
    autocorrelate,
    detect_cycles,
    split_and_normalize,
)
from .protocol import (
    Session,
    SessionResult,
    confirm_key,
    run_pair_in_memory,
)
from .signals import (
    ImuRecord,
    VerticalSignal,
    bandpass,
    extract_vertical,
    preprocess_record,
)

__version__ = "0.1.0"

__all__ = [
    "Config",
    "Corpus",
    "PositionSpec",
    "SyntheticGaitSpec",
    "Window",
    "generate_synthetic",
    "load_csv",
    "save_csv",
    "sliding_windows",
    "Fingerprint",
    "ReducedFingerprint",
    "average_cycle",
    "compute_fingerprint",
    "quantize",
    "reduce",
    "reliability_order",
    "similarity",
    "CodeParams",
    "FuzzyKey",
    "choose_params",
    "code_table",
    "decode",
    "encode",
    "CycleDetection",
    "GaitSequence",
    "autocorrelate",
    "detect_cycles",
    "split_and_normalize",
    "Session",
    "SessionResult",
    "confirm_key",
    "run_pair_in_memory",
    "ImuRecord",
    "VerticalSignal",
    "bandpass",
    "extract_vertical",
    "preprocess_record",
]
