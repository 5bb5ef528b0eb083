"""Coefficient extraction: solver correctness against brute-force oracles."""

import numpy as np
import pytest

from roboface.lbs import (
    BlendCoefficients,
    BlendshapeBasis,
    FaceMesh,
    LbsRig,
    apply_skinning,
)
from roboface.retarget import (
    BoxLeastSquares,
    ProjectionSettings,
    project_sequence,
    project_to_basis,
    transfer_coefficients,
)
from roboface.rigsim import build_reference_rig
from roboface.synthdata import make_motion


def random_rig(v=200, b=8, seed=0):
    rng = np.random.default_rng(seed)
    mesh = FaceMesh(rng.normal(0, 30, 3 * v))
    names = tuple(f"ch{i:02d}" for i in range(b))
    disp = tuple(rng.normal(0, 2, 3 * v) for _ in names)
    return LbsRig(
        mesh,
        BlendshapeBasis(names, disp),
        mouth_mask=np.arange(v // 2, v),
        landmark_groups={"mouth": np.arange(v // 2, v)},
    )


def grid_search(matrix, y, step=1e-3):
    """Exhaustive box-constrained least squares for B=2, the slow way."""
    g = matrix.T @ matrix
    c = matrix.T @ y
    const = y @ y
    axis = np.arange(0.0, 1.0 + step / 2, step)
    t0, t1 = np.meshgrid(axis, axis, indexing="ij")
    f = (
        g[0, 0] * t0 * t0
        + 2 * g[0, 1] * t0 * t1
        + g[1, 1] * t1 * t1
        - 2 * (c[0] * t0 + c[1] * t1)
        + const
    )
    i, j = np.unravel_index(np.argmin(f), f.shape)
    return np.array([axis[i], axis[j]])


class TestProjectToBasis:
    def test_interior_round_trip(self):
        rig = random_rig()
        rng = np.random.default_rng(1)
        for _ in range(10):
            theta0 = rng.uniform(0.1, 0.9, rig.blendshape_count)
            target = apply_skinning(rig, theta0)
            result = project_to_basis(target, rig)
            assert result.converged
            np.testing.assert_allclose(result.coefficients.values, theta0, atol=1e-6)
            assert result.residual <= 1e-10

    def test_neutral_target_gives_zero(self):
        rig = random_rig(seed=2)
        result = project_to_basis(FaceMesh(rig.mesh.positions), rig)
        theta, residual = result
        assert not theta.values.any()
        assert residual == 0.0

    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(3)
        matrix = rng.normal(0, 1, (60, 2))
        # Pull the optimum against the box so clipping is exercised.
        for true in ([0.4, 0.7], [1.3, -0.2], [0.0, 1.0]):
            y = matrix @ np.array(true) + rng.normal(0, 0.01, 60)
            solver = BoxLeastSquares(matrix)
            x, _, converged, _ = solver.solve(y)
            assert converged
            expected = grid_search(matrix, y)
            np.testing.assert_allclose(x, expected, atol=2e-3)

    def test_objective_monotone(self):
        rig = random_rig(seed=4)
        rng = np.random.default_rng(4)
        target = FaceMesh(rig.mesh.positions + rng.normal(0, 5, 3 * rig.vertex_count))
        values = []
        project_to_basis(target, rig, callback=lambda i, f: values.append(f))
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_result_always_inside_box(self):
        rig = random_rig(seed=5)
        rng = np.random.default_rng(5)
        wild = FaceMesh(rig.mesh.positions + rng.normal(0, 50, 3 * rig.vertex_count))
        theta, residual = project_to_basis(wild, rig)
        assert theta.values.min() >= 0.0 and theta.values.max() <= 1.0
        assert residual > 0.0

    def test_iteration_cap_flags_unconverged(self):
        rng = np.random.default_rng(6)
        # Nearly collinear columns, forced to quit after one iteration.
        base = rng.normal(0, 1, 40)
        matrix = np.column_stack([base, base + 1e-6 * rng.normal(0, 1, 40)])
        solver = BoxLeastSquares(
            matrix, ProjectionSettings(max_iterations=1, tolerance=1e-14)
        )
        x, _, converged, iterations = solver.solve(matrix @ np.array([0.5, 0.5]))
        assert iterations == 1
        assert x.min() >= 0.0 and x.max() <= 1.0
        assert not converged

    def test_vertex_count_mismatch_rejected(self):
        rig = random_rig(seed=7)
        with pytest.raises(ValueError, match="vertices"):
            project_to_basis(FaceMesh(np.zeros(3 * 7)), rig)

    def test_rank_deficient_basis_still_solves(self):
        rng = np.random.default_rng(8)
        col = rng.normal(0, 1, 50)
        matrix = np.column_stack([col, col, rng.normal(0, 1, 50)])
        y = matrix @ np.array([0.3, 0.3, 0.5])
        x, residual, converged, _ = BoxLeastSquares(matrix).solve(y)
        assert converged
        assert residual <= 1e-18


class TestTransfer:
    def test_identical_order_is_bitwise_identity(self):
        rig = random_rig(seed=12)
        theta = BlendCoefficients(np.random.default_rng(12).uniform(0, 1, 8))
        out = transfer_coefficients(theta, rig, rig)
        assert out.values.tobytes() == theta.values.tobytes()

    def test_permutation_reorders(self):
        rig = random_rig(v=30, b=4, seed=13)
        perm = [2, 0, 3, 1]
        dest = LbsRig(
            rig.mesh,
            BlendshapeBasis(
                tuple(rig.basis.names[p] for p in perm),
                tuple(rig.basis.displacements[p] for p in perm),
            ),
            rig.mouth_mask,
            rig.landmark_groups,
        )
        theta = BlendCoefficients(np.array([0.1, 0.2, 0.3, 0.4]))
        out = transfer_coefficients(theta, rig, dest)
        np.testing.assert_array_equal(out.values, theta.values[perm])
        back = transfer_coefficients(out, dest, rig)
        np.testing.assert_array_equal(back.values, theta.values)

    def test_missing_name_reported(self):
        rig = random_rig(v=30, b=4, seed=14)
        dest = LbsRig(
            rig.mesh,
            BlendshapeBasis(
                rig.basis.names[:-1] + ("other",), rig.basis.displacements
            ),
            rig.mouth_mask,
            rig.landmark_groups,
        )
        with pytest.raises(ValueError, match=rig.basis.names[-1]):
            transfer_coefficients(BlendCoefficients.zeros(4), rig, dest)


class TestProjectSequence:
    def test_matches_per_frame_solves(self):
        rig = random_rig(v=60, b=5, seed=16)
        rng = np.random.default_rng(16)
        thetas = rng.uniform(0.1, 0.9, (6, 5))
        frames = np.stack([apply_skinning(rig, t).positions for t in thetas])
        seq, residuals = project_sequence(frames, 25.0, rig)
        assert seq.frame_count == 6
        np.testing.assert_allclose(seq.frames, thetas, atol=1e-6)
        assert residuals.max() <= 1e-10

    def test_equals_warm_started_per_frame_chain(self):
        # A noisy reference-rig clip on which restarting the warm-start chain
        # at its midpoint changes the output bits, so a split chain shows.
        rig, _ = build_reference_rig(seed=0)
        rng = np.random.default_rng(1)
        tracks = make_motion(48, rig.blendshape_count, 25.0, rng).frames
        frames = tracks @ rig.basis.matrix + rig.mesh.positions
        frames += rng.normal(0.0, 0.05, frames.shape)
        warm, expected, expected_residuals = None, [], []
        for frame in frames:
            result = project_to_basis(FaceMesh(frame), rig, warm_start=warm)
            warm = result.coefficients.values
            expected.append(warm)
            expected_residuals.append(result.residual)
        for _ in range(2):
            seq, residuals = project_sequence(frames, 25.0, rig)
            assert seq.frames.tobytes() == np.array(expected).tobytes()
            assert residuals.tobytes() == np.array(expected_residuals).tobytes()
