"""Speech-driven animatronic face motion toolkit.

Audio-derived phoneme logits drive a small convolutional model that emits
blendshape coefficients; those are low-pass filtered, retargeted onto a
robot rig, converted to actuator commands by box-constrained inverse
kinematics, and framed for a servo controller, all on a 25 Hz tick.
"""

from .frontend import PhonemeLogitStream, StreamingWindower, make_windows, resample
from .lbs import (
    BlendCoefficients,
    BlendshapeBasis,
    FaceMesh,
    LbsRig,
    MotionSequence,
    apply_skinning,
    vertex_delta,
)
from .motionnet import (
    ModelParams,
    TrainConfig,
    TrainingSample,
    forward,
    human_decode,
    init_params,
    load_model,
    save_model,
    train,
)
from .pipeline import (
    PipelineConfig,
    PipelineResult,
    ServoFrame,
    bench,
    decode_frame,
    encode_frame,
    run_pipeline,
)
from .retarget import (
    project_sequence,
    project_to_basis,
    transfer_coefficients,
)
from .rigsim import (
    ActuatorState,
    RigConfig,
    build_reference_rig,
    evaluate_tracking,
    forward_kinematics,
    solve_ik,
)
from .smoothing import FilterSpec, design, filter_sequence, group_delay_frames

__version__ = "0.1.0"

__all__ = [
    "ActuatorState",
    "BlendCoefficients",
    "BlendshapeBasis",
    "FaceMesh",
    "FilterSpec",
    "LbsRig",
    "ModelParams",
    "MotionSequence",
    "PhonemeLogitStream",
    "PipelineConfig",
    "PipelineResult",
    "RigConfig",
    "ServoFrame",
    "StreamingWindower",
    "TrainConfig",
    "TrainingSample",
    "apply_skinning",
    "bench",
    "build_reference_rig",
    "decode_frame",
    "design",
    "encode_frame",
    "evaluate_tracking",
    "filter_sequence",
    "forward",
    "forward_kinematics",
    "group_delay_frames",
    "human_decode",
    "init_params",
    "load_model",
    "make_windows",
    "project_sequence",
    "project_to_basis",
    "resample",
    "run_pipeline",
    "save_model",
    "solve_ik",
    "train",
    "transfer_coefficients",
    "vertex_delta",
]
