"""Acceptance suite: one test per shipping criterion.

Each test prints a single PASS line (visible with ``pytest -s`` or in
failure output) and asserts its numeric tolerances and runtime budget.
Run as ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

from roboface.lbs import (
    BlendshapeBasis,
    FaceMesh,
    LbsRig,
    MotionSequence,
    apply_skinning,
    vertex_delta,
)
from roboface.motionnet import (
    TrainConfig,
    TrainingSample,
    backward,
    human_decode,
    init_params,
    loss,
    named_arrays,
    train,
    training_loss,
)
from roboface.pipeline import (
    LoopbackSink,
    PipelineConfig,
    ServoFrame,
    bench,
    encode_frame,
    run_pipeline,
)
from roboface.retarget import project_to_basis
from roboface.rigsim import (
    _kinematics,
    build_reference_rig,
    evaluate_tracking,
    forward_kinematics,
    solve_ik,
)
from roboface.smoothing import (
    FilterSpec,
    StreamingFilter,
    design,
    frequency_response,
)


@pytest.fixture(scope="module")
def reference():
    return build_reference_rig(seed=0)


def test_criterion_01_lbs_identity_and_linearity(reference):
    rig, _ = reference
    started = time.perf_counter()

    zero = apply_skinning(rig, np.zeros(rig.blendshape_count))
    assert zero.positions.tobytes() == rig.mesh.positions.tobytes()

    rng = np.random.default_rng(0)
    b = rig.blendshape_count
    worst = 0.0
    for _ in range(1000):
        theta_a = rng.uniform(0.0, 1.0, b)
        theta_b = rng.uniform(0.0, 1.0, b)
        w = rng.uniform(0.0, 1.0)
        mix = w * theta_a + (1.0 - w) * theta_b
        lhs = vertex_delta(rig, mix)
        rhs = w * vertex_delta(rig, theta_a) + (1.0 - w) * vertex_delta(rig, theta_b)
        scale = max(np.abs(lhs).max(), np.abs(rhs).max(), 1e-30)
        worst = max(worst, np.abs(lhs - rhs).max() / scale)
    elapsed = time.perf_counter() - started
    assert worst <= 1e-9
    assert elapsed < 5.0
    print(
        f"PASS criterion 1: zero pose bitwise, linearity worst "
        f"{worst:.3e} rel over 1000 cases in {elapsed:.2f} s"
    )


def test_criterion_02_retargeting_round_trip(reference):
    rig, _ = reference
    started = time.perf_counter()

    rng = np.random.default_rng(1)
    worst = 0.0
    warm = None
    for _ in range(100):
        theta = rng.uniform(0.1, 0.9, rig.blendshape_count)
        target = apply_skinning(rig, theta)
        recovered, _ = project_to_basis(target, rig, warm_start=warm)
        warm = recovered.values
        worst = max(worst, np.abs(recovered.values - theta).max())
    assert worst <= 1e-6

    # Two-shape rig against an exhaustive grid oracle.
    toy_rng = np.random.default_rng(2)
    neutral = toy_rng.uniform(-5.0, 5.0, 24)
    fields = tuple(toy_rng.uniform(-1.0, 1.0, 24) for _ in range(2))
    toy = LbsRig(
        mesh=FaceMesh(neutral),
        basis=BlendshapeBasis(("open", "smile"), fields),
        mouth_mask=np.array([0, 1]),
    )
    matrix = toy.basis.matrix
    gram = matrix @ matrix.T
    grid = np.linspace(0.0, 1.0, 2001)
    gx, gy = np.meshgrid(grid, grid, indexing="ij")
    worst_grid = 0.0
    for _ in range(5):
        theta = toy_rng.uniform(0.0, 1.0, 2)
        offset = theta @ matrix + toy_rng.normal(0.0, 0.3, 24)
        solved, _ = project_to_basis(FaceMesh(neutral + offset), toy)
        c = matrix @ offset
        objective = (
            gram[0, 0] * gx * gx
            + 2.0 * gram[0, 1] * gx * gy
            + gram[1, 1] * gy * gy
            - 2.0 * (c[0] * gx + c[1] * gy)
        )
        flat = np.argmin(objective)
        oracle = np.array([gx.ravel()[flat], gy.ravel()[flat]])
        worst_grid = max(worst_grid, np.abs(solved.values - oracle).max())
    elapsed = time.perf_counter() - started
    assert worst_grid <= 2e-3
    assert elapsed < 60.0
    print(
        f"PASS criterion 2: 100 round trips worst {worst:.3e}, grid gap "
        f"{worst_grid:.3e} in {elapsed:.2f} s"
    )


def test_criterion_03_gradient_check():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    fields = tuple(rng.uniform(-1.0, 1.0, 15) for _ in range(3))
    rig = LbsRig(
        mesh=FaceMesh(rng.uniform(-3.0, 3.0, 15)),
        basis=BlendshapeBasis(("a", "b", "c"), fields),
        mouth_mask=np.array([1, 3]),
    )
    params = init_params(
        seed=1, window_size=4, hidden_size=4, style_count=3,
        output_size=3, class_count=6,
    )
    for _, array in named_arrays(params):
        array[...] = np.random.default_rng(array.size).normal(0.0, 0.5, array.shape)
    sample = TrainingSample(
        window=rng.uniform(-2.0, 2.0, (4, 6)),
        style_id=1,
        target_vertices=rng.uniform(-3.0, 3.0, 15),
    )
    grads = backward(params, rig, sample, mouth_weight=1.0)
    h = 1e-4
    worst = 0.0
    checked = 0
    for name, array in named_arrays(params):
        flat = array.reshape(-1)
        grad = grads[name].reshape(-1)
        for i in range(flat.size):
            kept = flat[i]
            flat[i] = kept + h
            up = training_loss(params, rig, sample, mouth_weight=1.0)
            flat[i] = kept - h
            down = training_loss(params, rig, sample, mouth_weight=1.0)
            flat[i] = kept
            fd = (up - down) / (2.0 * h)
            gap = abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-8)
            worst = max(worst, gap)
            checked += 1
    elapsed = time.perf_counter() - started
    assert worst <= 1e-4
    assert elapsed < 30.0
    print(
        f"PASS criterion 3: {checked} parameters, worst relative gap "
        f"{worst:.3e} in {elapsed:.2f} s"
    )


def test_criterion_04_loss_oracle():
    rng = np.random.default_rng(3)
    mask = np.array([1, 3])
    worst = 0.0
    for _ in range(20):
        pred = rng.normal(0.0, 2.0, 15)
        target = rng.normal(0.0, 2.0, 15)
        w = rng.uniform(0.0, 4.0)
        reference = 0.0
        for i in range(15):
            reference += (pred[i] - target[i]) ** 2
        for v in mask:
            for axis in range(3):
                i = 3 * v + axis
                reference += w * (pred[i] - target[i]) ** 2
        got = loss(pred, target, mask, w)
        worst = max(worst, abs(got - reference))
    assert worst <= 1e-12

    pred = np.zeros(15)
    target = np.zeros(15)
    pred[3 * 3 + 1] = 1.0
    unit = loss(pred, target, mask, 1.0)
    assert unit == 2.0
    print(
        f"PASS criterion 4: straight-line gap {worst:.3e}, unit mouth "
        f"error gives loss {unit}"
    )


def test_criterion_05_training_smoke(reference):
    rig, _ = reference
    started = time.perf_counter()
    sample_rng = np.random.default_rng(5)
    theta = sample_rng.uniform(0.1, 0.9, rig.blendshape_count)
    sample = TrainingSample(
        window=sample_rng.normal(0.0, 1.0, (8, 392)),
        style_id=0,
        target_vertices=human_decode(rig, theta),
    )
    config = TrainConfig(
        learning_rate=1e-3, weight_decay=0.0, epochs=200,
        batch_size=1, dropout_rate=0.0, seed=0,
    )

    def run():
        params = init_params(
            seed=3, window_size=8, hidden_size=64, style_count=1,
            output_size=rig.blendshape_count, class_count=392,
        )
        _, history = train(params, rig, [sample], config)
        return history.train_loss

    first = run()
    second = run()
    elapsed = time.perf_counter() - started
    ratio = first[-1] / first[0]
    assert ratio <= 1e-3
    assert np.array_equal(first, second)
    assert elapsed < 120.0
    print(
        f"PASS criterion 5: loss {first[0]:.4g} -> {first[-1]:.4g} "
        f"({1.0 / ratio:.0f}x) in 200 epochs, curves bitwise equal, "
        f"{elapsed:.2f} s"
    )


def test_criterion_06_filter_spec():
    cascade = design(FilterSpec(order=5, cutoff_hz=7.0, sample_hz=25.0))

    def db(freq):
        # Zeros at z = -1 make |H| exactly 0 at Nyquist; floor it for log10.
        return 20.0 * np.log10(max(np.abs(frequency_response(cascade, freq)), 1e-300))

    dc = db(0.0)
    edge = db(7.0)
    nyquist = db(12.5)
    assert abs(dc) <= 1e-9
    assert abs(edge - (-3.0102999566398121)) <= 0.01
    assert nyquist <= -25.0

    grid = np.linspace(0.0, 12.5, 400)
    magnitudes = np.array(
        [np.abs(frequency_response(cascade, f)) for f in grid]
    )
    assert np.all(np.diff(magnitudes) <= 1e-12)

    stream = StreamingFilter(cascade)
    for _ in range(100):
        assert stream.step(0.731) == 0.731
    print(
        f"PASS criterion 6: DC {dc:.2e} dB, edge {edge:.4f} dB, Nyquist "
        f"{nyquist:.1f} dB, monotone, constant input exact"
    )


def test_criterion_07_ik_round_trip(reference):
    rig, config = reference
    kin = _kinematics(config, rig)
    rows = kin.rows

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        u_true = np.zeros(len(config.channels))
        u_true[kin.ik_channels] = rng.uniform(0.2, 0.8, kin.ik_channels.size)
        target = forward_kinematics(config, u_true, rig).positions[rows]
        state, residual = solve_ik(config, target, rig)
        worst = max(worst, np.abs(state.values - u_true).max())
    assert worst <= 1e-6

    blown = rig.mesh.positions[rows] + 80.0
    state, residual = solve_ik(config, blown, rig)
    saturated = np.sum(
        (state.values[kin.ik_channels] <= 1e-12)
        | (state.values[kin.ik_channels] >= 1.0 - 1e-12)
    )
    assert residual > 0.0
    assert saturated > 0

    # Toy rig with two actuated channels against an exhaustive grid oracle.
    from roboface.arkit import REGIONS
    from roboface.rigsim import ActuatorChannel, ControlPoint, RigConfig

    toy_rng = np.random.default_rng(8)
    verts = toy_rng.uniform(-5.0, 5.0, (12, 3))
    fields = tuple(toy_rng.uniform(-1.0, 1.0, 36) for _ in range(2))
    groups = {r: np.array([2 * i, 2 * i + 1]) for i, r in enumerate(REGIONS)}
    toy_rig = LbsRig(
        mesh=FaceMesh(verts.ravel()),
        basis=BlendshapeBasis(("open", "smile"), fields),
        mouth_mask=groups["mouth"],
        landmark_groups=groups,
    )
    weights = np.zeros((12, 2))
    weights[:6, 0] = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4]
    weights[6:, 1] = [0.8, 0.7, 0.6, 0.5, 0.4, 0.3]
    points = (
        ControlPoint(id="cpA", kind="mouth", rest_position=verts[0]),
        ControlPoint(id="cpB", kind="jaw", rest_position=verts[6]),
    )
    channels = (
        ActuatorChannel("lift", (900.0, 2100.0), (("cpA", 1, 2.0),)),
        ActuatorChannel(
            "slide", (900.0, 2100.0), (("cpB", 0, -1.5), ("cpB", 2, 0.5))
        ),
    )
    toy_config = RigConfig(points, channels, weights)

    toy_kin = _kinematics(toy_config, toy_rig)
    toy_vertices = toy_kin.landmarks
    toy_rows = toy_kin.rows
    fk = toy_kin.vertex_map[np.ix_(toy_rows, toy_kin.ik_channels)]
    reference_motion = MotionSequence(
        25.0, toy_rng.uniform(0.0, 1.0, (6, 2))
    )
    report = evaluate_tracking(toy_config, reference_motion, toy_rig)

    gram = fk.T @ fk
    grid = np.linspace(0.0, 1.0, 1001)
    gx, gy = np.meshgrid(grid, grid, indexing="ij")
    vertex_pos = {int(vv): j for j, vv in enumerate(toy_vertices)}
    worst_median = 0.0
    medians = {name: [] for name in groups}
    for t in range(reference_motion.frame_count):
        offset = (
            apply_skinning(toy_rig, reference_motion.frames[t]).positions[toy_rows]
            - toy_rig.mesh.positions[toy_rows]
        )
        c = fk.T @ offset
        objective = (
            gram[0, 0] * gx * gx
            + 2.0 * gram[0, 1] * gx * gy
            + gram[1, 1] * gy * gy
            - 2.0 * (c[0] * gx + c[1] * gy)
        )
        flat = np.argmin(objective)
        u = np.array([gx.ravel()[flat], gy.ravel()[flat]])
        errors = np.linalg.norm((fk @ u - offset).reshape(-1, 3), axis=1)
        for name in groups:
            idx = [vertex_pos[int(vv)] for vv in groups[name]]
            medians[name].append(errors[idx])
    for name in groups:
        oracle_median = float(np.median(np.concatenate(medians[name])))
        gap = abs(report[name]["median_mm"] - oracle_median)
        worst_median = max(worst_median, gap)
    assert worst_median <= 1e-3
    print(
        f"PASS criterion 7: round trip worst {worst:.3e}, unreachable "
        f"residual {residual:.3e} with {saturated} saturated, toy median "
        f"gap {worst_median:.3e} mm"
    )


def test_criterion_08_end_to_end_determinism(reference):
    rig, config_r = reference
    zero = encode_frame(ServoFrame(0, tuple([0] * 31)))
    assert zero == bytes([0xFA, 0x00, 0x00, 0x1F]) + bytes(62) + bytes([0xE7])
    known = encode_frame(ServoFrame(0x0102, (1500, 2000)))
    assert known == bytes([0xFA, 0x02, 0x01, 0x02, 0xDC, 0x05, 0xD0, 0x07, 0x49])

    params = init_params(
        seed=2, window_size=8, hidden_size=16, style_count=2,
        output_size=51, class_count=392,
    )
    frames = np.random.default_rng(9).normal(0.0, 1.0, (250, 392))
    sinks = [LoopbackSink(), LoopbackSink()]
    for mode, sink in zip(("offline", "streaming"), sinks):
        result = run_pipeline(
            PipelineConfig(), params, rig, config_r, frames,
            mode=mode, frame_sink=sink,
        )
        assert result.report.frames == 250
        assert [f.frame_counter for f in result.servo_frames] == list(range(250))
    assert bytes(sinks[0].data) == bytes(sinks[1].data)
    print(
        "PASS criterion 8: golden frames bit-exact, 250-frame offline and "
        "streaming byte streams identical"
    )


def test_criterion_09_real_time_budget(reference):
    rig, config_r = reference
    params = init_params(
        seed=1, window_size=8, hidden_size=64, style_count=10,
        output_size=51, class_count=392,
    )
    report = bench(params, rig, config_r, n_frames=500, seed=0)
    assert report["tick"]["p99_ms"] < 40.0
    assert report["model"]["fps"] >= 250.0
    assert report["model"]["p50_ms"] <= report["model"]["p99_ms"]
    print(
        f"PASS criterion 9: full tick p99 {report['tick']['p99_ms']:.2f} ms "
        f"(budget 40), model-only {report['model']['fps']:.0f} fps "
        f"(informational)"
    )


def test_criterion_10_tracking_report_schema(reference):
    rig, config = reference
    rng = np.random.default_rng(10)
    reference_motion = MotionSequence(
        25.0, rng.uniform(0.0, 0.3, (3, rig.blendshape_count))
    )
    report = evaluate_tracking(config, reference_motion, rig)
    assert sorted(report) == ["brow", "cheek", "eye", "jaw", "mouth", "nose"]
    for stats in report.values():
        assert set(stats) == {"median_mm", "q1_mm", "q3_mm", "frames"}
        assert stats["q1_mm"] <= stats["median_mm"] <= stats["q3_mm"]

    silent = MotionSequence(25.0, np.zeros((3, rig.blendshape_count)))
    zero_report = evaluate_tracking(config, silent, rig)
    for stats in zero_report.values():
        assert stats["median_mm"] == 0.0
    print(
        "PASS criterion 10: six regions with quartile stats, all-zero "
        "reference gives zero medians"
    )
