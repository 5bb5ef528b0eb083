"""Linear blend skinning core: meshes, blendshape bases, and coefficients.

A face is a neutral vertex set plus a bank of per-vertex displacement fields
(blendshapes). A pose is a coefficient vector theta in [0, 1]^B; skinning
evaluates

    positions(theta) = neutral + sum_b theta_b * displacement_b

with the sum taken in ascending blendshape index order so results are
deterministic. All coordinates are millimeters. Types are immutable after
construction (their arrays are frozen), so every operation here is a pure
function and safe to share across threads.

Every rig rule is enforced once, by the constructors, so a rig read from a
file and one built in code pass the same check: an inconsistent rig raises
``ValueError`` where it is made instead of failing deep inside a solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .arkit import REGIONS
from .util import frozen_array as _frozen, in_unit_interval, is_positive_finite


@dataclass(frozen=True)
class FaceMesh:
    """Vertex positions of one face, flat [x0, y0, z0, x1, ...] in mm.

    Triangle connectivity is optional and only consumed by the OBJ exporter;
    all skinning math is purely vertex-positional.
    """

    positions: np.ndarray
    triangles: np.ndarray | None = None

    def __post_init__(self):
        pos = _frozen(self.positions)
        if pos.ndim != 1 or pos.size == 0 or pos.size % 3 != 0:
            raise ValueError("positions must be a flat non-empty 3*V array")
        if not np.isfinite(pos).all():
            raise ValueError("positions contain non-finite values")
        object.__setattr__(self, "positions", pos)
        if self.triangles is not None:
            tri = _frozen(self.triangles, dtype=np.int32).reshape(-1, 3)
            if tri.size and (tri.min() < 0 or tri.max() >= pos.size // 3):
                raise ValueError("triangle indices out of range")
            object.__setattr__(self, "triangles", tri)

    @property
    def vertex_count(self) -> int:
        return self.positions.size // 3

    def vertices(self) -> np.ndarray:
        """Positions reshaped to (V, 3). Read-only view."""
        return self.positions.reshape(-1, 3)


@dataclass(frozen=True)
class BlendshapeBasis:
    """Named displacement fields over one mesh topology.

    ``displacements[b]`` is a flat (3*V,) offset that moves the face from
    neutral to the full expression of channel ``names[b]``. Construction
    raises ``ValueError`` unless there is at least one field, one unique
    name per field, and every field is 1-D, finite and of one length.
    """

    names: tuple[str, ...]
    displacements: tuple[np.ndarray, ...]

    def __post_init__(self):
        names = tuple(self.names)
        fields = tuple(_frozen(np.asarray(d)) for d in self.displacements)
        if not fields:
            raise ValueError("basis has no displacement fields")
        if len(names) != len(fields):
            raise ValueError(
                f"{len(names)} blendshape names but {len(fields)} displacement fields"
            )
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate blendshape names {dup}")
        for name, disp in zip(names, fields):
            if disp.ndim != 1 or disp.size != fields[0].size:
                raise ValueError(
                    f"displacement field {name!r} has shape {disp.shape}, "
                    f"expected ({fields[0].size},)"
                )
            if not np.isfinite(disp).all():
                raise ValueError(f"displacement field {name!r} has non-finite values")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "displacements", fields)

    @property
    def blendshape_count(self) -> int:
        return len(self.names)

    @cached_property
    def matrix(self) -> np.ndarray:
        """Stacked (B, 3*V) displacement matrix."""
        return _frozen(np.vstack(self.displacements))


@dataclass(frozen=True)
class BlendCoefficients:
    """One pose: B dimensionless weights, each in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        vals = _frozen(self.values)
        if vals.ndim != 1:
            raise ValueError("coefficients must be a flat array")
        if not in_unit_interval(vals):
            raise ValueError("coefficients must be finite and lie in [0, 1]")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size

    @classmethod
    def zeros(cls, count: int) -> "BlendCoefficients":
        return cls(np.zeros(count))


@dataclass(frozen=True)
class LbsRig:
    """A skinnable face: mesh + basis + evaluation masks.

    ``mouth_mask`` indexes the vertices whose reconstruction error gets extra
    weight during training. ``landmark_groups`` holds one vertex index set per
    facial region (eye, brow, nose, cheek, mouth, jaw) for region-wise error
    reporting and as the default inverse-kinematics target set.

    Construction raises ``ValueError`` unless the displacement fields are 3V
    long, every mouth-mask and landmark index is in [0, V), and every
    landmark group is named after one of ``arkit.REGIONS``. An empty mouth
    mask is allowed; it is the field's default.
    """

    mesh: FaceMesh
    basis: BlendshapeBasis
    mouth_mask: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    landmark_groups: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        v = self.mesh.vertex_count
        size = self.basis.displacements[0].size  # the basis fixes one length
        if size != 3 * v:
            raise ValueError(
                f"displacement fields have length {size}, mesh needs {3 * v}"
            )
        mask = _frozen(np.asarray(self.mouth_mask), dtype=np.int64)
        if ((mask < 0) | (mask >= v)).any():
            raise ValueError("mouth mask indexes vertices outside the mesh")
        object.__setattr__(self, "mouth_mask", mask)
        groups = {}
        for region, idx in self.landmark_groups.items():
            if region not in REGIONS:
                raise ValueError(
                    f"unknown landmark group {region!r}; expected one of {REGIONS}"
                )
            idx = _frozen(np.asarray(idx), dtype=np.int64)
            if ((idx < 0) | (idx >= v)).any():
                raise ValueError(f"landmark group {region!r} indexes outside the mesh")
            groups[region] = idx
        object.__setattr__(self, "landmark_groups", groups)

    @property
    def vertex_count(self) -> int:
        return self.mesh.vertex_count

    @property
    def blendshape_count(self) -> int:
        return self.basis.blendshape_count


@dataclass(frozen=True)
class MotionSequence:
    """A coefficient trajectory: ``frames`` is (T, B), one pose per row."""

    fps: float
    frames: np.ndarray

    def __post_init__(self):
        if not is_positive_finite(self.fps):
            raise ValueError("fps must be finite and positive")
        frames = _frozen(self.frames)
        if frames.ndim != 2:
            raise ValueError("frames must be a (T, B) array")
        if not in_unit_interval(frames):
            raise ValueError("coefficients must be finite and lie in [0, 1]")
        object.__setattr__(self, "frames", frames)

    @property
    def frame_count(self) -> int:
        return self.frames.shape[0]

    @property
    def blendshape_count(self) -> int:
        return self.frames.shape[1]


def _theta_values(theta, blendshape_count: int) -> np.ndarray:
    vals = theta.values if isinstance(theta, BlendCoefficients) else np.asarray(theta, dtype=np.float64)
    if vals.ndim != 1 or vals.size != blendshape_count:
        raise ValueError(
            f"coefficient vector has {vals.size} entries, rig has "
            f"{blendshape_count} blendshapes"
        )
    return vals


def vertex_delta(rig: LbsRig, theta) -> np.ndarray:
    """Displacement sum_b theta_b * displacement_b, shape (3*V,).

    Accumulates in ascending blendshape index order, skipping exactly-zero
    coefficients, so an all-zero pose performs no arithmetic and a one-hot
    pose reproduces its displacement field bit for bit.
    """
    vals = _theta_values(theta, rig.blendshape_count)
    n = rig.mesh.positions.size
    delta = None
    for b in range(vals.size):
        if vals[b] != 0.0:
            disp = rig.basis.displacements[b]
            if delta is None:
                delta = vals[b] * disp
            else:
                delta += vals[b] * disp
    return np.zeros(n) if delta is None else delta


def apply_skinning(rig: LbsRig, theta) -> FaceMesh:
    """Evaluate the skinning function: neutral + vertex_delta(theta).

    The zero pose returns the rig's neutral mesh bitwise; the rig itself is
    never mutated.
    """
    vals = _theta_values(theta, rig.blendshape_count)
    if not vals.any():
        return FaceMesh(rig.mesh.positions, rig.mesh.triangles)
    return FaceMesh(rig.mesh.positions + vertex_delta(rig, vals), rig.mesh.triangles)

