"""Skinning core: identity, basis extraction, linearity, construction rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roboface.lbs import (
    BlendCoefficients,
    BlendshapeBasis,
    FaceMesh,
    LbsRig,
    MotionSequence,
    apply_skinning,
    vertex_delta,
)


def quantized(rng, shape, scale=50.0, step=1.0 / 1024.0):
    """Random values that are exact multiples of 2^-10.

    Sums and differences of such values stay exact in float64 at this
    magnitude, which lets tests assert bitwise identities.
    """
    return np.round(rng.uniform(-scale, scale, size=shape) / step) * step


def make_rig(vertex_count=40, blendshape_count=6, seed=0):
    rng = np.random.default_rng(seed)
    mesh = FaceMesh(quantized(rng, 3 * vertex_count))
    names = tuple(f"shape{i:02d}" for i in range(blendshape_count))
    disp = tuple(quantized(rng, 3 * vertex_count, scale=4.0) for _ in names)
    return LbsRig(
        mesh=mesh,
        basis=BlendshapeBasis(names, disp),
        mouth_mask=np.arange(vertex_count // 2, vertex_count),
        landmark_groups={"mouth": np.arange(vertex_count // 2, vertex_count)},
    )


def oracle_delta(rig, theta):
    """Straight-line re-statement of the weighted sum, ascending index."""
    out = np.zeros_like(rig.mesh.positions)
    for b in range(rig.blendshape_count):
        if theta[b] != 0.0:
            out = out + theta[b] * rig.basis.displacements[b]
    return out


RIG = make_rig()


class TestApplySkinning:
    def test_zero_pose_is_neutral_bitwise(self):
        out = apply_skinning(RIG, BlendCoefficients.zeros(RIG.blendshape_count))
        assert out.positions.tobytes() == RIG.mesh.positions.tobytes()

    def test_reference_scale_rig_accepted(self):
        rig = make_rig(vertex_count=4792, blendshape_count=51, seed=3)
        theta = np.full(51, 0.25)
        out = apply_skinning(rig, theta)
        assert out.vertex_count == 4792

    def test_one_hot_extracts_displacement_field(self):
        for k in (0, 3, RIG.blendshape_count - 1):
            out = apply_skinning(RIG, one_hot(k))
            diff = out.positions - RIG.mesh.positions
            assert np.array_equal(diff, rig_field(k))

    def test_midpoint_matches_average_of_poses(self):
        rng = np.random.default_rng(7)
        t1 = rng.uniform(0, 1, RIG.blendshape_count)
        t2 = rng.uniform(0, 1, RIG.blendshape_count)
        neutral = RIG.mesh.positions
        lhs = apply_skinning(RIG, 0.5 * (t1 + t2)).positions - neutral
        rhs = 0.5 * (
            (apply_skinning(RIG, t1).positions - neutral)
            + (apply_skinning(RIG, t2).positions - neutral)
        )
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="blendshapes"):
            apply_skinning(RIG, np.zeros(RIG.blendshape_count + 1))

    def test_rig_never_mutated(self):
        before = RIG.mesh.positions.copy()
        apply_skinning(RIG, np.full(RIG.blendshape_count, 0.7))
        assert np.array_equal(RIG.mesh.positions, before)
        with pytest.raises(ValueError):
            RIG.mesh.positions[0] = 99.0


def rig_field(k):
    return RIG.basis.displacements[k]


def one_hot(k, count=RIG.blendshape_count):
    theta = np.zeros(count)
    theta[k] = 1.0
    return BlendCoefficients(theta)


class TestVertexDelta:
    def test_zeros_give_zero_array(self):
        d = vertex_delta(RIG, np.zeros(RIG.blendshape_count))
        assert not d.any()

    def test_one_hot_gives_field_bitwise(self):
        for k in range(RIG.blendshape_count):
            d = vertex_delta(RIG, one_hot(k))
            assert d.tobytes() == rig_field(k).tobytes()

    def test_random_theta_matches_independent_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            theta = rng.uniform(0, 1, RIG.blendshape_count)
            theta[rng.integers(0, theta.size)] = 0.0
            got = vertex_delta(RIG, theta)
            assert np.array_equal(got, oracle_delta(RIG, theta))
            skinned = apply_skinning(RIG, theta).positions
            assert np.array_equal(skinned, RIG.mesh.positions + got)

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(0.0, 1.0, allow_nan=False))
    def test_linearity_in_scale(self, alpha):
        rng = np.random.default_rng(13)
        theta = rng.uniform(0, 1, RIG.blendshape_count)
        lhs = vertex_delta(RIG, alpha * theta)
        rhs = alpha * vertex_delta(RIG, theta)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_superposition(self):
        rng = np.random.default_rng(17)
        t1 = rng.uniform(0, 0.5, RIG.blendshape_count)
        t2 = rng.uniform(0, 0.5, RIG.blendshape_count)
        lhs = vertex_delta(RIG, t1 + t2)
        rhs = vertex_delta(RIG, t1) + vertex_delta(RIG, t2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)


class TestValidateRig:
    """Construction enforces every rig rule; a bad rig raises where it is made."""

    def test_well_formed_rig_is_clean(self):
        LbsRig(RIG.mesh, RIG.basis, RIG.mouth_mask, RIG.landmark_groups)

    def test_short_displacement_field_named(self):
        with pytest.raises(ValueError, match=RIG.basis.names[-1]):
            BlendshapeBasis(
                RIG.basis.names,
                RIG.basis.displacements[:-1] + (RIG.basis.displacements[-1][:-1],),
            )

    def test_fields_shorter_than_mesh_flagged(self):
        short = tuple(d[:-3] for d in RIG.basis.displacements)
        with pytest.raises(ValueError, match="mesh needs"):
            LbsRig(RIG.mesh, BlendshapeBasis(RIG.basis.names, short))

    def test_duplicate_name_flagged(self):
        names = (RIG.basis.names[0],) + RIG.basis.names[1:-1] + (RIG.basis.names[0],)
        with pytest.raises(ValueError, match=f"duplicate.*{RIG.basis.names[0]}"):
            BlendshapeBasis(names, RIG.basis.displacements)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_field_flagged(self, bad):
        fields = list(RIG.basis.displacements)
        fields[2] = fields[2].copy()
        fields[2][5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            BlendshapeBasis(RIG.basis.names, tuple(fields))

    def test_name_and_field_counts_must_match(self):
        with pytest.raises(ValueError, match="names"):
            BlendshapeBasis(RIG.basis.names[:-1], RIG.basis.displacements)
        with pytest.raises(ValueError, match="no displacement fields"):
            BlendshapeBasis((), ())

    def test_empty_mouth_mask_is_the_default(self):
        assert LbsRig(RIG.mesh, RIG.basis).mouth_mask.size == 0

    @pytest.mark.parametrize("index", [-1, RIG.vertex_count])
    def test_out_of_range_mouth_mask_flagged(self, index):
        with pytest.raises(ValueError, match="mouth mask"):
            LbsRig(RIG.mesh, RIG.basis, np.array([0, index]))

    def test_out_of_range_landmarks_flagged(self):
        with pytest.raises(ValueError, match="jaw"):
            LbsRig(
                RIG.mesh,
                RIG.basis,
                RIG.mouth_mask,
                {"jaw": np.array([RIG.vertex_count])},
            )

    def test_unknown_landmark_group_flagged(self):
        with pytest.raises(ValueError, match="chin"):
            LbsRig(RIG.mesh, RIG.basis, RIG.mouth_mask, {"chin": np.array([0])})


class TestTypes:
    def test_coefficients_range_checked(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            BlendCoefficients(np.array([0.2, 1.2]))
        with pytest.raises(ValueError):
            BlendCoefficients(np.array([-0.1]))

    def test_mesh_shape_checked(self):
        with pytest.raises(ValueError, match="3\\*V"):
            FaceMesh(np.zeros(7))
        with pytest.raises(ValueError, match="finite"):
            FaceMesh(np.array([0.0, np.nan, 0.0]))

    def test_triangle_indices_checked(self):
        FaceMesh(np.zeros(9), np.array([[0, 1, 2]]))
        with pytest.raises(ValueError, match="triangle"):
            FaceMesh(np.zeros(9), np.array([[0, 1, 3]]))

    def test_motion_sequence_checks(self):
        seq = MotionSequence(25.0, np.zeros((4, 6)))
        assert seq.frame_count == 4 and seq.blendshape_count == 6
        with pytest.raises(ValueError, match="fps"):
            MotionSequence(0.0, np.zeros((1, 2)))
        with pytest.raises(ValueError):
            MotionSequence(25.0, np.full((2, 2), 1.5))


class TestNonFiniteRejected:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_coefficients(self, bad):
        with pytest.raises(ValueError, match="finite"):
            BlendCoefficients(np.array([0.5, bad, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_motion_sequence(self, bad):
        frames = np.full((3, 4), 0.5)
        frames[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            MotionSequence(25.0, frames)

    @pytest.mark.parametrize("fps", [np.nan, np.inf, 0.0, -1.0])
    def test_motion_sequence_fps(self, fps):
        with pytest.raises(ValueError, match="fps"):
            MotionSequence(fps, np.zeros((2, 2)))
