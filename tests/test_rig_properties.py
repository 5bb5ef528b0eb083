"""Every rig the constructors accept runs the chain.

Small random rigs are built only through ``ControlPoint``,
``ActuatorChannel``, ``RigConfig`` and ``LbsRig``, away from the reference
rig: a few dozen vertices, 3-8 blendshapes, 2-6 channels of which one has no
skin gain, boxes that are the actuator image plus a margin, and a landmark
group for each of the six regions.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from roboface.arkit import REGIONS
from roboface.formats import load_motion, load_rig, save_motion, save_rig
from roboface.lbs import BlendshapeBasis, FaceMesh, LbsRig, MotionSequence
from roboface.motionnet import init_params
from roboface.pipeline import LoopbackSink, PipelineConfig, run_pipeline
from roboface.rigsim import (
    ActuatorChannel,
    ControlPoint,
    RigConfig,
    _kinematics,
    evaluate_tracking,
    forward_kinematics,
    load_config,
    save_config,
    solve_ik,
)

CLASSES = 6


@st.composite
def small_rigs(draw):
    """(LbsRig, RigConfig, rng) for a random small face."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_vertices = draw(st.integers(24, 48))
    n_shapes = draw(st.integers(3, 8))
    n_points = draw(st.integers(1, 4))
    n_channels = draw(st.integers(2, 6))
    gainless = draw(st.integers(0, n_channels - 1))
    margin = draw(st.floats(0.01, 1.0))

    verts = rng.uniform(-20.0, 20.0, (n_vertices, 3))
    fields = tuple(rng.uniform(-2.0, 2.0, 3 * n_vertices) for _ in range(n_shapes))
    groups = {
        r: rng.choice(n_vertices, draw(st.integers(1, 6)), replace=False)
        for r in REGIONS
    }
    rig = LbsRig(
        mesh=FaceMesh(verts.ravel()),
        basis=BlendshapeBasis(tuple(f"shape{i}" for i in range(n_shapes)), fields),
        mouth_mask=groups["mouth"],
        landmark_groups=groups,
    )

    ids = [f"cp{i}" for i in range(n_points)]
    channels = []
    for j in range(n_channels):
        gains = ()
        if j != gainless:
            slots = rng.choice(n_points * 6, rng.integers(1, 4), replace=False)
            gains = tuple(
                (ids[s // 6], int(s % 6),
                 float(rng.uniform(-3.0, 3.0) * (0.05 if s % 6 >= 3 else 1.0)))
                for s in slots
            )
        channels.append(ActuatorChannel(f"ch{j}", (600.0, 2400.0), gains))
    # Each box is the sum of the negative and of the positive gains on its
    # dof, widened by the margin, written out apart from ``RigConfig``.
    bounds = np.zeros((n_points, 6, 2))
    for ch in channels:
        for cp, dof, g in ch.gains:
            bounds[ids.index(cp), dof, 0 if g < 0 else 1] += g
    bounds += [-margin, margin]

    weights = rng.uniform(0.0, 1.0, (n_vertices, n_points))
    weights[rng.random(weights.shape) < 0.4] = 0.0
    weights[rng.integers(n_vertices, size=n_points), np.arange(n_points)] = 0.5
    weights /= np.maximum(weights.sum(axis=1, keepdims=True), 1.0)
    points = tuple(
        ControlPoint(id=ids[i], kind="mouth",
                     rest_position=verts[rng.integers(n_vertices)], bounds=bounds[i])
        for i in range(n_points)
    )
    return rig, RigConfig(points, tuple(channels), weights), rng


@settings(max_examples=25, deadline=None)
@given(small_rigs(), st.integers(1, 12))
def test_pipeline_emits_one_in_range_frame_per_input(built, frames):
    rig, config, rng = built
    params = init_params(0, window_size=2, hidden_size=3, style_count=1,
                         output_size=rig.blendshape_count, class_count=CLASSES)
    sink = LoopbackSink()
    result = run_pipeline(PipelineConfig(), params, rig, config,
                          rng.normal(0.0, 1.0, (frames, CLASSES)), frame_sink=sink)
    decoded = sink.frames()
    assert decoded == result.servo_frames
    assert [f.frame_counter for f in decoded] == list(range(frames))
    for frame in decoded:
        for pulse, ch in zip(frame.pulses, config.channels, strict=True):
            assert min(ch.pulse_us) <= pulse <= max(ch.pulse_us)


@settings(max_examples=25, deadline=None)
@given(small_rigs())
def test_fk_then_ik_reproduces_the_landmarks(built):
    rig, config, rng = built
    kin = _kinematics(config, rig)
    u = np.zeros(len(config.channels))
    u[kin.ik_channels] = rng.uniform(0.1, 0.9, kin.ik_channels.size)
    target = forward_kinematics(config, u, rig).positions[kin.rows]
    solved = solve_ik(config, target, rig)
    reached = forward_kinematics(config, solved.state, rig).positions[kin.rows]
    np.testing.assert_allclose(reached, target, rtol=0, atol=1e-6)
    assert not solved.state.values[kin.neck_channels].any()


@settings(max_examples=25, deadline=None)
@given(small_rigs(), st.integers(1, 6))
def test_tracking_quartiles_are_ordered(built, frames):
    rig, config, rng = built
    motion = MotionSequence(25.0, rng.uniform(0.0, 1.0, (frames, rig.blendshape_count)))
    report = evaluate_tracking(config, motion, rig)
    assert set(report) == set(REGIONS)
    for stats in report.values():
        assert 0.0 <= stats["q1_mm"] <= stats["median_mm"] <= stats["q3_mm"]
        assert stats["frames"] == frames


@settings(max_examples=25, deadline=None)
@given(built=small_rigs())
def test_config_file_round_trips(built, tmp_path_factory):
    _, config, _ = built
    path = tmp_path_factory.mktemp("rig") / "config.json"
    save_config(path, config)
    back = load_config(path)
    assert back.gain.tobytes() == config.gain.tobytes()
    assert back.weights.tobytes() == config.weights.tobytes()
    for a, b in zip(back.control_points, config.control_points, strict=True):
        assert a.bounds.tobytes() == b.bounds.tobytes()



def f32(a):
    return np.asarray(a, dtype=np.float32).astype(np.float64)


@settings(max_examples=25, deadline=None)
@given(built=small_rigs())
def test_rig_file_round_trips(built, tmp_path_factory):
    rig, _, _ = built
    root = tmp_path_factory.mktemp("rig")
    save_rig(root / "a.lbsrig", rig)
    back = load_rig(root / "a.lbsrig")
    assert back.basis.names == rig.basis.names
    assert back.mouth_mask.tobytes() == rig.mouth_mask.tobytes()
    assert back.landmark_groups.keys() == rig.landmark_groups.keys()
    for region, idx in rig.landmark_groups.items():
        assert back.landmark_groups[region].tobytes() == idx.tobytes()
    assert back.mesh.positions.tobytes() == f32(rig.mesh.positions).tobytes()
    assert back.basis.matrix.tobytes() == f32(rig.basis.matrix).tobytes()
    save_rig(root / "b.lbsrig", back)
    assert (root / "b.lbsrig").read_bytes() == (root / "a.lbsrig").read_bytes()


@settings(max_examples=25, deadline=None)
@given(built=small_rigs(), frames=st.integers(1, 12), fps=st.floats(1.0, 120.0))
def test_motion_file_round_trips(built, frames, fps, tmp_path_factory):
    rig, _, rng = built
    motion = MotionSequence(fps, rng.uniform(0.0, 1.0, (frames, rig.blendshape_count)))
    root = tmp_path_factory.mktemp("motion")
    save_motion(root / "a.lbsm", motion)
    back = load_motion(root / "a.lbsm")
    assert back.fps == float(np.float32(fps))
    assert back.frames.tobytes() == f32(motion.frames).tobytes()
    save_motion(root / "b.lbsm", back)
    assert (root / "b.lbsm").read_bytes() == (root / "a.lbsm").read_bytes()
