"""Linear blend skinning core: meshes, blendshape bases, and coefficients.

A face is a neutral vertex set plus a bank of per-vertex displacement fields
(blendshapes). A pose is a coefficient vector theta in [0, 1]^B; skinning
evaluates

    positions(theta) = neutral + sum_b theta_b * displacement_b

with the sum taken in ascending blendshape index order so results are
deterministic. All coordinates are millimeters. Types are immutable after
construction (their arrays are frozen), so every operation here is a pure
function and safe to share across threads.

Construction keeps structural checks light; ``validate_rig`` is the full
report-only consistency check, so malformed rigs can be represented and
diagnosed instead of half-rejected.
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
    neutral to the full expression of channel ``names[b]``.
    """

    names: tuple[str, ...]
    displacements: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        fields = tuple(_frozen(np.asarray(d)) for d in self.displacements)
        object.__setattr__(self, "displacements", fields)

    @property
    def blendshape_count(self) -> int:
        return len(self.names)

    @cached_property
    def matrix(self) -> np.ndarray:
        """Stacked (B, 3*V) displacement matrix. Requires equal field lengths."""
        if not self.displacements:
            raise ValueError("basis has no displacement fields")
        sizes = {d.size for d in self.displacements}
        if len(sizes) != 1:
            raise ValueError("displacement fields have inconsistent lengths")
        if len(self.displacements) != len(self.names):
            raise ValueError("blendshape name count does not match field count")
        return _frozen(np.vstack(self.displacements))

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no blendshape named {name!r}") from None


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

    @classmethod
    def one_hot(cls, count: int, index: int, value: float = 1.0) -> "BlendCoefficients":
        v = np.zeros(count)
        v[index] = value
        return cls(v)


@dataclass(frozen=True)
class LbsRig:
    """A skinnable face: mesh + basis + evaluation masks.

    ``mouth_mask`` indexes the vertices whose reconstruction error gets extra
    weight during training. ``landmark_groups`` holds one vertex index set per
    facial region (eye, brow, nose, cheek, mouth, jaw) for region-wise error
    reporting and as the default inverse-kinematics target set.
    """

    mesh: FaceMesh
    basis: BlendshapeBasis
    mouth_mask: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    landmark_groups: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        mask = _frozen(np.asarray(self.mouth_mask), dtype=np.int64)
        object.__setattr__(self, "mouth_mask", mask)
        groups = {
            name: _frozen(np.asarray(idx), dtype=np.int64)
            for name, idx in self.landmark_groups.items()
        }
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

    def coefficients_at(self, t: int) -> BlendCoefficients:
        return BlendCoefficients(self.frames[t])


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
            if disp.size != n:
                raise ValueError(
                    f"displacement field {rig.basis.names[b]!r} has length "
                    f"{disp.size}, mesh needs {n}"
                )
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


def validate_rig(rig: LbsRig) -> list[str]:
    """Check rig invariants and report violations. Empty list means valid.

    Report-only: never raises, even on badly malformed rigs.
    """
    problems: list[str] = []
    mesh = rig.mesh
    basis = rig.basis
    v = mesh.vertex_count

    if not np.isfinite(mesh.positions).all():
        problems.append("mesh has non-finite coordinates")

    if len(basis.names) != len(basis.displacements):
        problems.append(
            f"{len(basis.names)} blendshape names but "
            f"{len(basis.displacements)} displacement fields"
        )
    seen: set[str] = set()
    for name in basis.names:
        if name in seen:
            problems.append(f"duplicate blendshape name {name!r}")
        seen.add(name)
    for b, disp in enumerate(basis.displacements):
        name = basis.names[b] if b < len(basis.names) else f"#{b}"
        if disp.size != 3 * v:
            problems.append(
                f"displacement field {name!r} has length {disp.size}, "
                f"expected {3 * v}"
            )
        elif not np.isfinite(disp).all():
            problems.append(f"displacement field {name!r} has non-finite values")

    if rig.mouth_mask.size == 0:
        problems.append("mouth mask is empty")
    elif rig.mouth_mask.min() < 0 or rig.mouth_mask.max() >= v:
        problems.append("mouth mask indexes vertices outside the mesh")

    for region, idx in rig.landmark_groups.items():
        if region not in REGIONS:
            problems.append(f"unexpected landmark group {region!r}")
        if idx.size and (idx.min() < 0 or idx.max() >= v):
            problems.append(f"landmark group {region!r} indexes outside the mesh")

    return problems
