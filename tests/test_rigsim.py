"""Kinematics simulator tests: forward map, online IK, tracking report."""

import dataclasses
import gc
import json
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from test_golden import CORE_TYPES, cpu_flags, loads_openblas

import roboface
from roboface.arkit import CANONICAL_NAMES, REGIONS, region_of
from roboface.lbs import BlendshapeBasis, FaceMesh, LbsRig, MotionSequence
from roboface.rigsim import (
    ActuatorChannel,
    ActuatorState,
    ControlPoint,
    Kinematics,
    RigConfig,
    build_reference_rig,
    evaluate_tracking,
    forward_kinematics,
    load_config,
    save_config,
    solve_ik,
    _kinematics,
    _tracking_errors,
)


# pulse_us values that are not two finite widths in [0, 65535] us.
BAD_PULSES = [
    [float("nan"), 2400.0],
    [600.0, float("inf")],
    [-1.0, 2400.0],
    [600.0, 70000.0],
    [600.0],
    [600.0, 1500.0, 2400.0],
]


@pytest.fixture(scope="module")
def reference():
    return build_reference_rig(seed=0)


def toy_setup():
    """Twelve vertices, two translation-only channels, all six regions."""
    rng = np.random.default_rng(3)
    verts = rng.uniform(-5.0, 5.0, (12, 3))
    fields = tuple(rng.uniform(-1.0, 1.0, 36) for _ in range(2))
    basis = BlendshapeBasis(("open", "smile"), fields)
    groups = {r: np.array([2 * i, 2 * i + 1]) for i, r in enumerate(REGIONS)}
    rig = LbsRig(
        mesh=FaceMesh(verts.ravel()),
        basis=basis,
        mouth_mask=groups["mouth"],
        landmark_groups=groups,
    )
    weights = np.zeros((12, 2))
    weights[:6, 0] = [1.0, 0.8, 0.6, 0.5, 0.4, 0.3]
    weights[6:, 1] = [0.9, 0.7, 0.6, 0.5, 0.4, 0.2]
    points = (
        ControlPoint(id="cpA", kind="mouth", rest_position=verts[0]),
        ControlPoint(id="cpB", kind="jaw", rest_position=verts[6]),
    )
    channels = (
        ActuatorChannel("lift", (600.0, 2400.0), (("cpA", 1, 2.0),)),
        ActuatorChannel("slide", (600.0, 2400.0), (("cpB", 0, -1.5), ("cpB", 2, 0.5))),
    )
    return rig, RigConfig(points, channels, weights), weights


def toy_rotation_setup():
    """The toy rig with a third channel that turns cpB about y and moves and
    turns cpA at once."""
    rig, config, weights = toy_setup()
    tilt = ActuatorChannel(
        "tilt", (600.0, 2400.0), (("cpB", 4, 0.3), ("cpA", 0, 0.7), ("cpA", 5, -0.2))
    )
    return rig, RigConfig(config.control_points, config.channels + (tilt,), weights)


def elementwise_fk_matrix(config, rig):
    """u -> delta map assembled entry by entry from w * (t + omega x r)."""
    verts = rig.mesh.vertices()
    ids = [cp.id for cp in config.control_points]
    m = np.zeros((3 * rig.vertex_count, len(config.channels)))
    for j, ch in enumerate(config.channels):
        for cp_id, dof, value in ch.gains:
            c = ids.index(cp_id)
            rest = config.control_points[c].rest_position
            t = [0.0, 0.0, 0.0]
            o = [0.0, 0.0, 0.0]
            (t if dof < 3 else o)[dof % 3] = value
            for v in range(rig.vertex_count):
                w = config.weights[v, c]
                rx, ry, rz = verts[v] - rest
                m[3 * v + 0, j] += w * (t[0] + o[1] * rz - o[2] * ry)
                m[3 * v + 1, j] += w * (t[1] + o[2] * rx - o[0] * rz)
                m[3 * v + 2, j] += w * (t[2] + o[0] * ry - o[1] * rx)
    return m


def toy_fk_matrix(weights):
    """Independent elementwise assembly of the toy rig's u -> delta map."""
    m = np.zeros((36, 2))
    for v in range(12):
        m[3 * v + 1, 0] = weights[v, 0] * 2.0
        m[3 * v + 0, 1] = weights[v, 1] * -1.5
        m[3 * v + 2, 1] = weights[v, 1] * 0.5
    return m


class TestForwardKinematics:
    def test_zero_actuation_is_neutral_bitwise(self, reference):
        rig, config = reference
        mesh = forward_kinematics(config, np.zeros(31), rig)
        assert mesh.positions.tobytes() == rig.mesh.positions.tobytes()

    def test_single_channel_hand_check(self, reference):
        # One eyelid channel with a pure y gain: each displaced vertex moves
        # by weight * gain * u along y and nowhere else.
        rig, config = reference
        names = [ch.name for ch in config.channels]
        j = names.index("eyelid_left_close")
        cp = [p.id for p in config.control_points].index("eyelidUpperLeft")
        u = np.zeros(31)
        u[j] = 0.37
        mesh = forward_kinematics(config, u, rig)
        delta = (mesh.positions - rig.mesh.positions).reshape(-1, 3)
        touched = np.flatnonzero(config.weights[:, cp])[:3]
        for v in touched:
            expected = config.weights[v, cp] * -6.0 * 0.37
            assert delta[v, 1] == pytest.approx(expected, abs=1e-12)
            assert delta[v, 0] == 0.0 and delta[v, 2] == 0.0

    def test_toy_matches_elementwise_map(self):
        rig, config, weights = toy_setup()
        m = toy_fk_matrix(weights)
        u = np.array([0.63, 0.41])
        mesh = forward_kinematics(config, u, rig)
        np.testing.assert_allclose(
            mesh.positions - rig.mesh.positions, m @ u, atol=1e-12
        )

    def test_rotation_matches_elementwise_map(self):
        rig, config = toy_rotation_setup()
        m = elementwise_fk_matrix(config, rig)
        assert np.abs(m[:, 2]).max() > 0.1
        np.testing.assert_allclose(Kinematics(config, rig).vertex_map, m, atol=1e-12)
        u = np.array([0.63, 0.41, 0.87])
        mesh = forward_kinematics(config, u, rig)
        np.testing.assert_allclose(
            mesh.positions - rig.mesh.positions, m @ u, atol=1e-12
        )

    def test_image_outside_bounds_rejected(self):
        # Bounds tighter than the gain image: the lift dof would reach 2.0 at
        # u = 1, past its 0.5 bound, so the config cannot be built and forward
        # kinematics never needs to clamp.
        _, config, weights = toy_setup()
        bounds = np.tile([-0.5, 0.5], (6, 1))
        with pytest.raises(ValueError, match="exceeds bounds on 'cpA' dof 1"):
            RigConfig(
                (
                    ControlPoint(
                        id="cpA",
                        kind="mouth",
                        rest_position=config.control_points[0].rest_position,
                        bounds=bounds,
                    ),
                    config.control_points[1],
                ),
                config.channels,
                weights,
            )

    def test_accepts_actuator_state(self):
        rig, config, _ = toy_setup()
        state = ActuatorState(np.array([0.2, 0.9]))
        a = forward_kinematics(config, state, rig)
        b = forward_kinematics(config, np.array([0.2, 0.9]), rig)
        assert a.positions.tobytes() == b.positions.tobytes()

    def test_rejects_out_of_box(self):
        rig, config, _ = toy_setup()
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            forward_kinematics(config, np.array([1.2, 0.0]), rig)

    def test_rejects_wrong_channel_count(self):
        rig, config, _ = toy_setup()
        with pytest.raises(ValueError, match="channels"):
            forward_kinematics(config, np.zeros(3), rig)

    def test_rotational_channel_moves_vertices(self, reference):
        rig, config = reference
        names = [ch.name for ch in config.channels]
        u = np.zeros(31)
        u[names.index("eye_left_yaw")] = 1.0
        mesh = forward_kinematics(config, u, rig)
        assert np.abs(mesh.positions - rig.mesh.positions).max() > 0.1


class TestActuatorState:
    def test_rejects_out_of_box(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ActuatorState(np.array([0.5, -0.1]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            ActuatorState(np.array([0.5, np.nan]))

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="flat"):
            ActuatorState(np.zeros((2, 2)))

    def test_len(self):
        assert len(ActuatorState(np.zeros(31))) == 31


class TestSolveIk:
    def test_neutral_target_is_zero(self, reference):
        rig, config = reference
        result = solve_ik(config, FaceMesh(rig.mesh.positions), rig)
        assert result.residual == 0.0
        assert not result.state.values.any()
        assert result.converged

    def test_interior_round_trip(self, reference):
        rig, config = reference
        kin = Kinematics(config, rig)
        rng = np.random.default_rng(7)
        for _ in range(5):
            u0 = np.zeros(31)
            u0[kin.ik_channels] = rng.uniform(0.15, 0.85, kin.ik_channels.size)
            mesh = forward_kinematics(config, u0, rig)
            result = solve_ik(config, mesh, rig)
            err = np.abs(result.state.values[kin.ik_channels] - u0[kin.ik_channels])
            assert err.max() < 1e-6
            assert result.converged

    def test_unreachable_saturates_with_residual(self, reference):
        rig, config = reference
        kin = Kinematics(config, rig)
        rng = np.random.default_rng(11)
        u0 = np.zeros(31)
        u0[kin.ik_channels] = rng.uniform(0.3, 0.9, kin.ik_channels.size)
        mesh = forward_kinematics(config, u0, rig)
        far = rig.mesh.positions + 10.0 * (mesh.positions - rig.mesh.positions)
        result = solve_ik(config, FaceMesh(far), rig)
        active = result.state.values[kin.ik_channels]
        assert result.residual > 0.0
        assert ((active < 1e-9) | (active > 1.0 - 1e-9)).any()

    def test_neck_channels_pass_through(self, reference):
        rig, config = reference
        kin = Kinematics(config, rig)
        result = solve_ik(
            config, FaceMesh(rig.mesh.positions), rig, neck=np.array([0.3, 0.6, 0.9])
        )
        np.testing.assert_array_equal(
            result.state.values[kin.neck_channels], [0.3, 0.6, 0.9]
        )

    def test_gainless_channel_is_set_from_neck_whatever_its_name(self):
        # The IK/neck split follows the gains: a channel with no skin gain
        # stays out of the solve even when its name is not "neck...".
        rig, config, weights = toy_setup()
        spare = ActuatorChannel("spare", (600.0, 2400.0))
        config = RigConfig(config.control_points, config.channels + (spare,), weights)
        target = rig.mesh.positions + toy_fk_matrix(weights) @ [0.4, 0.6]
        result = solve_ik(config, target, rig, neck=np.array([0.7]))
        np.testing.assert_allclose(result.state.values, [0.4, 0.6, 0.7], atol=1e-8)

    def test_skinned_channel_named_neck_is_solved(self):
        rig, config, weights = toy_setup()
        nod = dataclasses.replace(config.channels[1], name="neck_nod")
        config = RigConfig(config.control_points, (config.channels[0], nod), weights)
        u0 = np.array([0.4, 0.6])
        result = solve_ik(config, forward_kinematics(config, u0, rig), rig)
        np.testing.assert_allclose(result.state.values, u0, atol=1e-8)
        assert Kinematics(config, rig).neck_channels.size == 0

    def test_flat_target_over_eval_vertices(self):
        rig, config, weights = toy_setup()
        m = toy_fk_matrix(weights)
        u0 = np.array([0.4, 0.6])
        target = rig.mesh.positions + m @ u0
        result = solve_ik(config, target, rig)
        np.testing.assert_allclose(result.state.values, u0, atol=1e-8)

    def test_size_mismatch_errors(self):
        rig, config, _ = toy_setup()
        with pytest.raises(ValueError, match="vertices"):
            solve_ik(config, FaceMesh(np.zeros(9)), rig)
        with pytest.raises(ValueError, match="evaluation"):
            solve_ik(config, np.zeros(7), rig)

    def test_warm_start_same_solution(self, reference):
        rig, config = reference
        kin = Kinematics(config, rig)
        rng = np.random.default_rng(2)
        u0 = np.zeros(31)
        u0[kin.ik_channels] = rng.uniform(0.2, 0.8, kin.ik_channels.size)
        mesh = forward_kinematics(config, u0, rig)
        cold = solve_ik(config, mesh, rig)
        warm = solve_ik(
            config, mesh, rig, warm_start=cold.state.values[kin.ik_channels]
        )
        np.testing.assert_allclose(
            warm.state.values, cold.state.values, atol=1e-9
        )


def grid_search_medians(rig, config, weights, reference):
    """Brute-force IK on a 1e-3 grid, pooled per-region error medians."""
    from roboface.lbs import apply_skinning

    m = toy_fk_matrix(weights)
    gram = m.T @ m
    xs = np.linspace(0.0, 1.0, 1001)
    x0, x1 = np.meshgrid(xs, xs, indexing="ij")
    quad = (
        gram[0, 0] * x0 * x0
        + 2.0 * gram[0, 1] * x0 * x1
        + gram[1, 1] * x1 * x1
    )
    errors = np.empty((reference.frame_count, 12))
    for t in range(reference.frame_count):
        offset = apply_skinning(rig, reference.frames[t]).positions - rig.mesh.positions
        b = m.T @ offset
        objective = quad - 2.0 * (b[0] * x0 + b[1] * x1)
        i, j = np.unravel_index(np.argmin(objective), objective.shape)
        best = np.array([xs[i], xs[j]])
        diff = (m @ best - offset).reshape(-1, 3)
        errors[t] = np.sqrt((diff * diff).sum(axis=1))
    medians = {}
    for r_i, region in enumerate(REGIONS):
        medians[region] = float(np.median(errors[:, [2 * r_i, 2 * r_i + 1]]))
    return medians


def landmark_space_tracking(rig, config, reference):
    """Tracking written out over the landmark rows: skinned target rows, the
    landmark-target solver warm-started frame to frame, per-vertex norms."""
    from roboface.lbs import apply_skinning

    kin = _kinematics(config, rig)
    vertices = kin.landmarks
    rows = kin.rows
    solver = kin.landmark_solver
    errors = np.empty((reference.frame_count, vertices.size))
    warm = None
    for t in range(reference.frame_count):
        offset = apply_skinning(rig, reference.frames[t]).positions[rows]
        offset = offset - rig.mesh.positions[rows]
        warm, _, _ = solver.minimize(kin.landmark_matrix.T @ offset, warm)
        diff = (kin.landmark_matrix @ warm - offset).reshape(-1, 3)
        errors[t] = np.sqrt((diff * diff).sum(axis=1))
    position_of = {v: i for i, v in enumerate(vertices)}
    stats = {}
    for region in REGIONS:
        cols = [position_of[v] for v in rig.landmark_groups[region]]
        stats[region] = np.quantile(errors[:, cols].ravel(), [0.25, 0.5, 0.75])
    return stats


class TestEvaluateTracking:
    def test_matches_landmark_space_tracking(self, reference, monkeypatch):
        from roboface import rigsim
        from roboface.synthdata import make_motion

        def no_full_mesh_skin(*args, **kwargs):
            raise AssertionError("tracking skinned the full mesh")

        monkeypatch.setattr(rigsim, "apply_skinning", no_full_mesh_skin)
        rig, config = reference
        motion = make_motion(250, rig.blendshape_count, 25.0, np.random.default_rng(0))
        report = evaluate_tracking(config, motion, rig)
        oracle = landmark_space_tracking(rig, config, motion)
        for region in REGIONS:
            q1, med, q3 = oracle[region]
            assert report[region]["q1_mm"] == pytest.approx(q1, rel=0, abs=1e-9)
            assert report[region]["median_mm"] == pytest.approx(med, rel=0, abs=1e-9)
            assert report[region]["q3_mm"] == pytest.approx(q3, rel=0, abs=1e-9)
            assert report[region]["frames"] == 250

    def test_zero_reference_gives_zero_medians(self, reference):
        rig, config = reference
        motion = MotionSequence(fps=25.0, frames=np.zeros((3, 51)))
        report = evaluate_tracking(config, motion, rig)
        for region in REGIONS:
            assert report[region]["median_mm"] == 0.0
            assert report[region]["q3_mm"] == 0.0

    def test_report_schema(self, reference):
        rig, config = reference
        motion = MotionSequence(fps=25.0, frames=np.zeros((2, 51)))
        report = evaluate_tracking(config, motion, rig)
        assert set(report) == set(REGIONS)
        for stats in report.values():
            assert set(stats) == {"median_mm", "q1_mm", "q3_mm", "frames"}
            assert stats["frames"] == 2

    def test_toy_rig_matches_grid_search(self):
        rig, config, weights = toy_setup()
        frames = np.random.default_rng(9).uniform(0.0, 1.0, (4, 2))
        motion = MotionSequence(fps=25.0, frames=frames)
        report = evaluate_tracking(config, motion, rig)
        oracle = grid_search_medians(rig, config, weights, motion)
        for region in REGIONS:
            assert report[region]["median_mm"] == pytest.approx(
                oracle[region], abs=1e-3
            )

    def test_deterministic(self, reference):
        rig, config = reference
        frames = np.random.default_rng(4).uniform(0.0, 0.7, (3, 51))
        motion = MotionSequence(fps=25.0, frames=frames)
        assert evaluate_tracking(config, motion, rig) == evaluate_tracking(
            config, motion, rig
        )

    def test_missing_landmark_group_errors(self):
        rig, config, _ = toy_setup()
        partial = {r: g for r, g in rig.landmark_groups.items() if r != "jaw"}
        stripped = LbsRig(
            mesh=rig.mesh,
            basis=rig.basis,
            mouth_mask=rig.mouth_mask,
            landmark_groups=partial,
        )
        with pytest.raises(ValueError, match="jaw"):
            evaluate_tracking(config, MotionSequence(25.0, np.zeros((1, 2))), stripped)

    def test_histogram_files(self, tmp_path):
        rig, config, _ = toy_setup()
        frames = np.random.default_rng(1).uniform(0.0, 1.0, (2, 2))
        evaluate_tracking(
            config,
            MotionSequence(25.0, frames),
            rig,
            histogram_dir=tmp_path,
        )
        for region in REGIONS:
            lines = (tmp_path / f"{region}.csv").read_text().strip().splitlines()
            assert lines[0] == "bin_lo_mm,bin_hi_mm,count"
            counts = sum(int(line.split(",")[2]) for line in lines[1:])
            assert counts == 2 * 2  # frames x vertices per region

    def test_rejects_motion_without_frames(self, reference):
        rig, config = reference
        with pytest.raises(ValueError, match="no frames"):
            evaluate_tracking(config, MotionSequence(25.0, np.zeros((0, 51))), rig)

    @pytest.mark.parametrize("count", [50, 52])
    def test_rejects_blendshape_count_mismatch_before_solving(
        self, reference, monkeypatch, count
    ):
        from roboface.retarget import BoxLeastSquares

        def no_solve(*args, **kwargs):
            raise AssertionError("tracking solved a frame")

        monkeypatch.setattr(BoxLeastSquares, "minimize", no_solve)
        rig, config = reference
        motion = MotionSequence(25.0, np.zeros((3, count)))
        with pytest.raises(ValueError, match=f"{count} blendshapes, rig has 51"):
            evaluate_tracking(config, motion, rig)

    @pytest.mark.parametrize("count", [1, 15, 16, 17, 33])
    def test_chunk_edges_match_the_per_frame_formula(self, reference, count):
        from roboface.synthdata import make_motion

        rig, config = reference
        motion = make_motion(count, 51, 25.0, np.random.default_rng(count))
        kin = _kinematics(config, rig)
        solver = kin.landmark_solver
        columns = rig.basis.matrix[:, kin.rows]
        solutions, errors = _tracking_errors(kin, motion.frames)
        expected = np.empty((count, kin.landmarks.size))
        warm = None
        for t, theta in enumerate(motion.frames):
            warm, _, _, _ = solver.solve(*kin.coefficient_problem(theta), warm)
            assert solutions[t].tobytes() == warm.tobytes(), f"frame {t}"
            diff = (kin.landmark_matrix @ warm - theta @ columns).reshape(-1, 3)
            expected[t] = np.sqrt((diff * diff).sum(axis=1))
        np.testing.assert_allclose(errors, expected, rtol=0, atol=1e-12)
        report = evaluate_tracking(config, motion, rig)
        for region in REGIONS:
            cols = np.searchsorted(kin.landmarks, rig.landmark_groups[region])
            q1, med, q3 = np.quantile(expected[:, cols], [0.25, 0.5, 0.75])
            stats = report[region]
            assert stats["q1_mm"] == pytest.approx(q1, rel=0, abs=1e-12)
            assert stats["median_mm"] == pytest.approx(med, rel=0, abs=1e-12)
            assert stats["q3_mm"] == pytest.approx(q3, rel=0, abs=1e-12)
            assert stats["frames"] == count


# Run in a fresh interpreter, since BLAS reads its kernel and thread count at
# load. The input is a fixed motion, built without BLAS: the model's own
# rounding is not what this checks. Prints the tick's IK chain over it
# (each tick of ``pipeline._ticks`` runs the same solve) and its tracking report.
_TRACKING_CHILD = """
import hashlib
import json
import numpy as np
from roboface.rigsim import _kinematics, build_reference_rig, evaluate_tracking
from roboface.synthdata import make_motion
import test_golden

rig, config = build_reference_rig(seed=0)
motion = make_motion(250, rig.blendshape_count, 25.0, np.random.default_rng(0))
kin = _kinematics(config, rig)
ticks, warm = [], None
for theta in motion.frames:
    warm, _, _, _ = kin.landmark_solver.solve(*kin.coefficient_problem(theta), warm)
    ticks.append(warm.tolist())
print(json.dumps({
    "threads": test_golden.blas_threads(),
    "motion": hashlib.sha256(motion.frames.tobytes()).hexdigest(),
    "ik": ticks,
    "report": evaluate_tracking(config, motion, rig),
}))
"""


def test_tracking_does_not_depend_on_blas_threads():
    if not loads_openblas():
        pytest.skip("numpy's BLAS is not OpenBLAS")
    flags = cpu_flags()
    core_types = [name for name, need in CORE_TYPES.items() if flags & set(need)]
    if not core_types:
        pytest.skip("this CPU runs none of the OpenBLAS kernels checked")
    src = Path(roboface.__file__).resolve().parents[1]
    tests = Path(__file__).resolve().parent
    path = [str(src), str(tests)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    # OpenBLAS caps its threads at the cores it may run on.
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    for core_type in core_types:
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_CORETYPE=core_type)
            env["OPENBLAS_NUM_THREADS"] = threads
            env["PYTHONPATH"] = os.pathsep.join(path)
            out = subprocess.run(
                [sys.executable, "-c", _TRACKING_CHILD],
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
                check=True,
            )
            runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
        one, two = runs
        reported = [one["threads"], two["threads"]]
        if None not in reported and cores >= 2:
            assert reported == [1, 2]
        assert two["motion"] == one["motion"]
        ik_one, ik_two = np.array(one["ik"]), np.array(two["ik"])
        assert ik_one.shape == ik_two.shape == (250, 28)
        assert np.array_equal(ik_two, ik_one), (
            f"OPENBLAS_CORETYPE={core_type}: IK moved by up to "
            f"{np.abs(ik_two - ik_one).max():.3g} from 1 to 2 threads"
        )
        assert two["report"] == one["report"], f"OPENBLAS_CORETYPE={core_type}"


_MAP_CHILD = """
import hashlib
from roboface.rigsim import Kinematics, build_reference_rig
rig, config = build_reference_rig(seed=0)
print(hashlib.sha256(Kinematics(config, rig).vertex_map.tobytes()).hexdigest())
"""


def test_vertex_map_does_not_depend_on_blas():
    # The map is built without a BLAS product, so every kernel and thread
    # count gives the same bytes.
    if not loads_openblas():
        pytest.skip("numpy's BLAS is not OpenBLAS")
    flags = cpu_flags()
    core_types = [name for name, need in CORE_TYPES.items() if flags & set(need)]
    if not core_types:
        pytest.skip("this CPU runs none of the OpenBLAS kernels checked")
    src = Path(roboface.__file__).resolve().parents[1]
    path = [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    digests = {}
    for core_type in core_types:
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_CORETYPE=core_type)
            env["OPENBLAS_NUM_THREADS"] = threads
            env["PYTHONPATH"] = os.pathsep.join(path)
            out = subprocess.run(
                [sys.executable, "-c", _MAP_CHILD],
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
                check=True,
            )
            digests[core_type, threads] = out.stdout.split()[-1]
    assert len(set(digests.values())) == 1, digests


def test_kinematics_build_memory(reference):
    # One (vertex, axis, channel) array plus one point's terms; no
    # (vertex, axis, point, dof) tensor.
    rig, config = reference
    tracemalloc.start()
    try:
        kin = Kinematics(config, rig)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= kin.vertex_map.nbytes + 3e6, f"peak {peak / 1e6:.1f} MB"


class TestKinematicsCache:
    def test_discarded_build_freed_without_collector(self):
        # No reference cycle: dropping the config and rig frees the cached
        # Kinematics by reference counting alone.
        rig, config, _ = toy_setup()
        kin = weakref.ref(_kinematics(config, rig))
        gc.disable()
        try:
            del rig, config
            assert kin() is None
        finally:
            gc.enable()

    def test_config_pins_one_rig(self):
        # One config driven with fresh rig objects keeps only the last.
        rig, config, _ = toy_setup()
        refs = []
        for _ in range(4):
            fresh = dataclasses.replace(rig)
            _kinematics(config, fresh)
            refs.append(weakref.ref(fresh))
            del fresh
        assert sum(ref() is not None for ref in refs) <= 1


class TestReferenceRig:
    def test_counts(self, reference):
        rig, config = reference
        assert rig.vertex_count == 4792
        assert rig.blendshape_count == 51
        assert tuple(rig.basis.names) == CANONICAL_NAMES
        assert len(config.control_points) == 21
        assert len(config.channels) == 31
        kinds = [cp.kind for cp in config.control_points]
        assert {k: kinds.count(k) for k in kinds} == {
            "brow": 4,
            "eyelid": 4,
            "eyeball": 2,
            "nose": 2,
            "cheek": 2,
            "mouth": 6,
            "jaw": 1,
        }
        prefixes = [ch.name.split("_")[0] for ch in config.channels]
        neck = prefixes.count("neck")
        jaw = prefixes.count("jaw")
        assert (len(prefixes) - jaw - neck, jaw, neck) == (24, 4, 3)

    def test_channel_split(self, reference):
        _, config = reference
        neck = [ch for ch in config.channels if ch.name.startswith("neck")]
        assert len(neck) == 3
        assert all(not ch.gains for ch in neck)

    def test_kinematics_split_is_the_gainless_channels(self, reference):
        rig, config = reference
        kin = Kinematics(config, rig)
        np.testing.assert_array_equal(kin.ik_channels, np.arange(28))
        np.testing.assert_array_equal(kin.neck_channels, [28, 29, 30])
        assert kin.ik_channels.dtype == kin.neck_channels.dtype == np.int64

    def test_bounds_are_the_actuator_image_plus_margin(self, reference):
        # Oracle: sum each dof's negative and positive gains channel by
        # channel, then widen by 5 % and 0.25.
        _, config = reference
        ids = [cp.id for cp in config.control_points]
        image = np.zeros((len(ids), 6, 2))
        for ch in config.channels:
            for cp, dof, g in ch.gains:
                image[ids.index(cp), dof, 0 if g < 0 else 1] += g
        expected = image * 1.05 + [-0.25, 0.25]
        got = np.array([cp.bounds for cp in config.control_points])
        np.testing.assert_array_equal(got, expected)

    def test_gain_table_is_built_once(self, reference, monkeypatch):
        # Kinematics reads RigConfig.gain instead of building its own table.
        from roboface import rigsim

        rig, config = reference

        def no_second_build(*args, **kwargs):
            raise AssertionError("gain table built again")

        monkeypatch.setattr(rigsim, "_gain_matrix", no_second_build)
        kin = Kinematics(config, rig)
        assert not config.gain.flags.writeable
        assert config.gain.shape == (6 * len(config.control_points), 31)
        np.testing.assert_array_equal(kin.vertex_map[:, kin.neck_channels], 0.0)

    def test_validates_clean(self, reference):
        # Rebuilding from the parts reruns every construction rule.
        rig, config = reference
        LbsRig(rig.mesh, rig.basis, rig.mouth_mask, rig.landmark_groups)
        RigConfig(config.control_points, config.channels, config.weights)

    def test_full_rank_systems(self, reference):
        # Both the blendshape basis and the non-neck actuator image must be
        # full rank for projection and IK round-trips to be well posed.
        rig, config = reference
        kin = Kinematics(config, rig)
        m = kin.vertex_map[np.ix_(kin.rows, kin.ik_channels)]
        s = np.linalg.svd(m, compute_uv=False)
        assert s[-1] > 1e-6 * s[0]
        s2 = np.linalg.svd(rig.basis.matrix, compute_uv=False)
        assert s2[-1] > 1e-6 * s2[0]

    def test_region_energy_concentration(self, reference):
        # Each shape's squared displacement lives mostly on its own region.
        rig, _ = reference
        for name, field in zip(rig.basis.names, rig.basis.displacements):
            disp = field.reshape(-1, 3)
            energy = (disp * disp).sum(axis=1)
            own = energy[rig.landmark_groups[region_of(name)]].sum()
            assert own >= 0.80 * energy.sum(), name

    def test_deterministic_per_seed(self, reference):
        rig, _ = reference
        again, _ = build_reference_rig(seed=0)
        assert again.basis.matrix.tobytes() == rig.basis.matrix.tobytes()
        other, _ = build_reference_rig(seed=1)
        assert other.basis.matrix.tobytes() != rig.basis.matrix.tobytes()

    def test_mouth_mask_is_mouth_group(self, reference):
        rig, _ = reference
        np.testing.assert_array_equal(rig.mouth_mask, rig.landmark_groups["mouth"])


class TestConfigIo:
    def test_round_trip(self, reference, tmp_path):
        _, config = reference
        path = tmp_path / "rig.json"
        save_config(path, config)
        loaded = load_config(path)
        assert len(loaded.control_points) == len(config.control_points)
        for a, b in zip(loaded.control_points, config.control_points):
            assert (a.id, a.kind) == (b.id, b.kind)
            np.testing.assert_array_equal(a.rest_position, b.rest_position)
            np.testing.assert_array_equal(a.bounds, b.bounds)
        assert loaded.channels == config.channels
        np.testing.assert_array_equal(loaded.weights, config.weights)

    def test_loaded_config_same_fk(self, reference, tmp_path):
        rig, config = reference
        path = tmp_path / "rig.json"
        save_config(path, config)
        loaded = load_config(path)
        u = np.random.default_rng(0).uniform(0.0, 1.0, 31)
        a = forward_kinematics(config, u, rig)
        b = forward_kinematics(loaded, u, rig)
        np.testing.assert_allclose(a.positions, b.positions, atol=1e-12)

    def test_ignores_rest_orientation(self, tmp_path):
        # Older files carry a rest orientation per point; no map read it.
        def rotate(doc):
            gains = doc["actuator_channels"][1]["gains"]
            gains.append({"cp": "cpB", "dof": 4, "value": 0.3})

        def orient(doc):
            rotate(doc)
            for i, point in enumerate(doc["control_points"]):
                point["rest_orientation"] = [0.4, -0.1 * i, 1.2]

        rig, _, _ = toy_setup()
        plain = self.load_edited(tmp_path, rotate)
        oriented = self.load_edited(tmp_path, orient)
        u = np.array([0.63, 0.41])
        a = forward_kinematics(plain, u, rig)
        b = forward_kinematics(oriented, u, rig)
        assert a.positions.tobytes() == b.positions.tobytes()
        assert not np.array_equal(a.positions, rig.mesh.positions)

    @staticmethod
    def load_edited(tmp_path, edit):
        """Load the toy config after ``edit`` changed its JSON document."""
        _, config, _ = toy_setup()
        path = tmp_path / "rig.json"
        save_config(path, config)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return load_config(path)

    @pytest.mark.parametrize("slot", [0, 1])
    def test_rejects_negative_index(self, tmp_path, slot):
        def edit(doc):
            doc["skinning_weights"][0][slot] = -1

        with pytest.raises(ValueError, match="index"):
            self.load_edited(tmp_path, edit)

    @pytest.mark.parametrize("slot, size", [(0, 12), (1, 2)])
    def test_rejects_index_out_of_range(self, tmp_path, slot, size):
        def edit(doc):
            doc["skinning_weights"][0][slot] = size

        with pytest.raises(ValueError, match="index"):
            self.load_edited(tmp_path, edit)

    @pytest.mark.parametrize("slot", [0, 1])
    @pytest.mark.parametrize("index", [1.0, "1", True, None])
    def test_rejects_non_integer_index(self, tmp_path, slot, index):
        def edit(doc):
            doc["skinning_weights"][0][slot] = index

        with pytest.raises(ValueError, match="index"):
            self.load_edited(tmp_path, edit)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf"), "0.5"])
    def test_rejects_non_finite_weight(self, tmp_path, weight):
        def edit(doc):
            doc["skinning_weights"][0][2] = weight

        with pytest.raises(ValueError, match="weight"):
            self.load_edited(tmp_path, edit)

    @pytest.mark.parametrize("count", [-1, 2.5, 12.0, "12", True, None])
    def test_rejects_bad_vertex_count(self, tmp_path, count):
        def edit(doc):
            doc["vertex_count"] = count

        with pytest.raises(ValueError, match="vertex_count"):
            self.load_edited(tmp_path, edit)

    @pytest.mark.parametrize("pulse_us", BAD_PULSES)
    def test_rejects_bad_pulse_us(self, tmp_path, pulse_us):
        def edit(doc):
            doc["actuator_channels"][1]["pulse_us"] = pulse_us

        with pytest.raises(ValueError, match="channel 'slide' has pulse_us"):
            self.load_edited(tmp_path, edit)

    def test_rejects_non_integer_dof(self, tmp_path):
        def edit(doc):
            doc["actuator_channels"][0]["gains"][0]["dof"] = 1.7

        with pytest.raises(ValueError, match="channel 'lift' uses invalid dof 1.7"):
            self.load_edited(tmp_path, edit)

    @pytest.mark.parametrize("case", ["point id", "vertex_count", "gains", "top level"])
    def test_malformed_document_names_the_key(self, tmp_path, case):
        # A missing key or a list that is not one is a ValueError, not a
        # KeyError or TypeError from deep in the reader.
        _, config, _ = toy_setup()
        path = tmp_path / "rig.json"
        save_config(path, config)
        doc = json.loads(path.read_text())
        if case == "point id":
            del doc["control_points"][0]["id"]
        elif case == "vertex_count":
            del doc["vertex_count"]
        elif case == "gains":
            doc["actuator_channels"][0]["gains"] = 5
        else:
            doc = [doc]
        path.write_text(json.dumps(doc))
        key = {"point id": "id", "top level": "control_points"}.get(case, case)
        with pytest.raises(ValueError, match=f"'{key}'"):
            load_config(path)

    @pytest.mark.parametrize("value", [None, "1.5", [1.0], {}])
    def test_gain_value_of_wrong_type_names_the_key(self, tmp_path, value):
        # A null gain value was a TypeError from float() inside the channel.
        def edit(doc):
            doc["actuator_channels"][0]["gains"][0]["value"] = value

        with pytest.raises(ValueError, match="rig config key 'value' must be a Real"):
            self.load_edited(tmp_path, edit)

    @pytest.mark.parametrize("key, value", [
        ("rest_position", [{}, 0.0, 0.0]), ("rest_position", [None, 0.0, 0.0]),
        ("rest_position", {}), ("bounds", [[None, 1.0]] * 6), ("id", {}),
        ("id", ["cpA"]), ("kind", None),
    ])
    def test_point_leaf_of_wrong_type_names_the_key(self, tmp_path, key, value):
        def edit(doc):
            doc["control_points"][0][key] = value

        with pytest.raises(ValueError, match=f"rig config key '{key}' must"):
            self.load_edited(tmp_path, edit)

    def test_rejects_non_finite_rest_position(self, tmp_path):
        def edit(doc):
            doc["control_points"][0]["rest_position"][1] = float("nan")

        with pytest.raises(ValueError, match="'cpA' has a non-finite rest position"):
            self.load_edited(tmp_path, edit)

    def test_accepts_pulse_us_at_the_16_bit_edges(self, tmp_path):
        def edit(doc):
            doc["actuator_channels"][1]["pulse_us"] = [0, 65535]

        assert self.load_edited(tmp_path, edit).channels[1].pulse_us == (0.0, 65535.0)


class TestValidateConfig:
    """Construction enforces every config rule; a bad config raises where it
    is made, whether built in code or read by ``load_config``."""

    def test_detects_unknown_gain_target(self, reference):
        _, config = reference
        channels = config.channels[:-1] + (
            ActuatorChannel("bad", (600.0, 2400.0), (("nosuch", 0, 1.0),)),
        )
        with pytest.raises(ValueError, match="nosuch"):
            RigConfig(config.control_points, channels, config.weights)

    def test_detects_duplicate_point_id(self, reference):
        _, config = reference
        first, second = config.control_points[:2]
        twin = dataclasses.replace(second, id=first.id)
        points = (first, twin) + config.control_points[2:]
        with pytest.raises(ValueError, match="duplicate control point ids"):
            RigConfig(points, config.channels, config.weights)

    def test_detects_negative_weights(self, reference):
        _, config = reference
        weights = config.weights.copy()
        weights[0, 0] = -0.1
        with pytest.raises(ValueError, match="negative"):
            RigConfig(config.control_points, config.channels, weights)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_detects_non_finite_weights(self, reference, bad):
        _, config = reference
        weights = config.weights.copy()
        weights[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            RigConfig(config.control_points, config.channels, weights)

    def test_detects_weight_shape_and_rows(self):
        _, config, weights = toy_setup()
        with pytest.raises(ValueError, match="one column"):
            RigConfig(config.control_points, config.channels, weights[:, :1])
        heavy = weights.copy()
        heavy[0, 1] = 0.5  # row 0 already gives cpA 1.0
        with pytest.raises(ValueError, match="sum above 1"):
            RigConfig(config.control_points, config.channels, heavy)
        idle = weights.copy()
        idle[:, 1] = 0.0
        with pytest.raises(ValueError, match="'cpB' influences no vertex"):
            RigConfig(config.control_points, config.channels, idle)

    @pytest.mark.parametrize("pulse_us", BAD_PULSES)
    def test_detects_bad_pulse_us(self, reference, pulse_us):
        _, config = reference
        name = config.channels[0].name
        message = (
            f"channel {name!r} has pulse_us {pulse_us!r}; it needs two "
            "finite widths in [0, 65535] us"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            dataclasses.replace(config.channels[0], pulse_us=pulse_us)

    def test_detects_degenerate_pulse_range(self):
        with pytest.raises(ValueError, match="degenerate"):
            ActuatorChannel("flat", (1500.0, 1500.0))

    @pytest.mark.parametrize(
        "gain, match",
        [
            (("cpA", 6, 1.0), "dof 6"),
            (("cpA", -1, 1.0), "dof -1"),
            (("cpA", 0, float("nan")), "gain nan"),
            (("cpA", 1.7, 1.0), "dof 1.7"),
            (("cpA", True, 1.0), "dof True"),
        ],
    )
    def test_detects_bad_gain(self, gain, match):
        with pytest.raises(ValueError, match=match):
            ActuatorChannel("bad", (600.0, 2400.0), (gain,))

    def test_accepts_numpy_widths_and_dofs(self):
        channel = ActuatorChannel(
            "a", (np.int64(600), np.int64(2400)), (("cpA", np.int64(1), 2.0),)
        )
        assert channel.pulse_us == (600.0, 2400.0)
        assert channel.gains == (("cpA", 1, 2.0),)
        assert type(channel.gains[0][1]) is int

    def test_detects_bound_violating_gains(self, reference):
        _, config = reference
        cp0 = config.control_points[0]
        shrunk = ControlPoint(
            id=cp0.id,
            kind=cp0.kind,
            rest_position=cp0.rest_position,
            bounds=np.tile([-0.01, 0.01], (6, 1)),
        )
        with pytest.raises(ValueError, match="exceeds bounds"):
            RigConfig(
                (shrunk,) + config.control_points[1:], config.channels, config.weights
            )

    def test_detects_inverted_bounds(self, reference):
        _, config = reference
        cp0 = config.control_points[0]
        with pytest.raises(ValueError, match="min > max"):
            ControlPoint(
                id=cp0.id,
                kind=cp0.kind,
                rest_position=cp0.rest_position,
                bounds=np.column_stack([np.full(6, 1.0), np.full(6, -1.0)]),
            )

    def test_detects_non_finite_bounds(self, reference):
        cp0 = reference[1].control_points[0]
        bounds = cp0.bounds.copy()
        bounds[2, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite bounds"):
            dataclasses.replace(cp0, bounds=bounds)

    def test_other_topologies_are_legal(self, reference):
        # Kind and channel counts describe the reference robot, not a valid
        # rig: a config without the last point and its gains still builds.
        _, config = reference
        last = config.control_points[-1].id
        channels = tuple(
            ch for ch in config.channels if all(cp != last for cp, _, _ in ch.gains)
        )
        RigConfig(config.control_points[:-1], channels, config.weights[:, :-1])


class TestCoefficientSolver:
    """IK from blendshape coefficients (``Kinematics.coefficient_problem``)
    against the landmark-target solve."""

    @pytest.fixture(scope="class")
    def setup(self, reference):
        rig, config = reference
        kin = _kinematics(config, rig)
        columns = rig.basis.matrix[:, kin.rows]
        return kin.landmark_solver, kin, columns

    def test_cached_and_shares_landmark_solver_state(self, reference, setup):
        rig, config = reference
        full, kin, columns = setup
        maps = kin._coefficient_maps
        assert _kinematics(config, rig) is kin
        assert kin.landmark_solver is full and kin._coefficient_maps is maps
        assert [m.shape for m in maps] == [
            (columns.shape[0], kin.landmark_matrix.shape[1]),
            (columns.shape[0], columns.shape[0]),
        ]

    def test_matches_full_space_solve(self, setup):
        full, kin, columns = setup
        rng = np.random.default_rng(31)
        warm = None
        for theta in rng.uniform(0.0, 1.0, (12, columns.shape[0])):
            y = theta @ columns
            a = kin.landmark_matrix
            x_full, conv_full, _ = full.minimize(a.T @ y, warm)
            r_full = float(np.sum((a @ x_full - y) ** 2))
            x, r, conv, _ = full.solve(*kin.coefficient_problem(theta), warm)
            np.testing.assert_allclose(x, x_full, rtol=0, atol=1e-10)
            assert conv == conv_full
            direct = float(np.sum((a @ x - y) ** 2))
            assert r >= 0.0
            assert abs(r - direct) <= 1e-9 * max(direct, 1.0)
            assert abs(r - r_full) <= 1e-9 * max(r_full, 1.0)
            warm = x

    def test_rejects_wrong_shape(self, setup):
        _, kin, columns = setup
        with pytest.raises(ValueError, match="shape"):
            kin.coefficient_problem(np.zeros(columns.shape[0] + 1))
        with pytest.raises(ValueError, match="shape"):
            kin.coefficient_problem(np.zeros(columns.shape[1]))
