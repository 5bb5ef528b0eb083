"""Software kinematics simulator standing in for the physical robot head.

The robot's skin is driven by 21 control points, each a rig site with
bounded six-degree-of-freedom motion (translation mm, rotation rad). A
normalized actuator vector u in [0,1]^31 (24 facial + 4 jaw + 3 neck
channels) maps linearly onto control-point DOF displacements, d = G u,
and skin vertices follow their control points through nonnegative
skinning weights with small-angle rotations:

    vertex_delta(v) = sum_cp w[v,cp] * (t_cp + omega_cp x (v - cp_rest)).

``Kinematics`` evaluates it per control point with no BLAS product, so its
map does not depend on the BLAS kernel or thread count.

Keeping forward kinematics exactly linear in u (tendon small-displacement
approximation) lets online inverse kinematics reuse the box-constrained
least-squares engine with a precomputed Gram matrix, which is what makes
the 40 ms frame budget reachable. A channel with no skin gain (on the
reference rig, the three neck channels) moves no vertex: whatever its
name, it passes head pose through to its servo and stays out of IK.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .arkit import CANONICAL_NAMES, REGIONS, region_of
from .lbs import BlendshapeBasis, FaceMesh, LbsRig, MotionSequence, coordinate_rows
# apply_skinning stays importable here: perfbench/tracing.py wraps rigsim.apply_skinning.
from .lbs import apply_skinning  # noqa: F401
from .retarget import CHUNK_FRAMES, BoxLeastSquares
from .util import frozen_array, in_unit_interval, is_index, json_entry

DOF_PER_POINT = 6


@dataclass(frozen=True)
class ControlPoint:
    """One bounded-motion rig site. ``bounds`` is (6, 2): per dof the finite
    [min, max] range, min <= max, or construction raises ``ValueError``."""

    id: str
    kind: str
    rest_position: np.ndarray
    bounds: np.ndarray = field(default_factory=lambda: np.tile([-10.0, 10.0], (6, 1)))

    def __post_init__(self):
        object.__setattr__(self, "rest_position", frozen_array(self.rest_position))
        bounds = frozen_array(np.asarray(self.bounds).reshape(6, 2))
        object.__setattr__(self, "bounds", bounds)
        if self.rest_position.shape != (3,):
            raise ValueError("rest position needs 3 values")
        if not np.isfinite(self.rest_position).all():
            raise ValueError(f"control point {self.id!r} has a non-finite rest position")
        if not np.isfinite(bounds).all():
            raise ValueError(f"control point {self.id!r} has non-finite bounds")
        if (bounds[:, 0] > bounds[:, 1]).any():
            raise ValueError(f"control point {self.id!r} has min > max bounds")


@dataclass(frozen=True)
class ActuatorChannel:
    """One servo channel: gain triplets (control-point id, dof, value) plus
    the pulse-width calibration (microseconds at u=0 and u=1).

    Construction raises ``ValueError`` unless ``pulse_us`` is two distinct
    real widths in [0, 65535] (a servo frame carries 16 bits each) and
    every gain has an integer dof in [0, 6) and a finite value. Bools are
    neither widths nor dofs; numpy numbers are both.
    """

    name: str
    pulse_us: tuple[float, float]
    gains: tuple[tuple[str, int, float], ...] = ()

    def __post_init__(self):
        pulse_us = self.pulse_us
        if not (
            isinstance(pulse_us, (list, tuple))
            and len(pulse_us) == 2
            and all(
                isinstance(p, numbers.Real)
                and not isinstance(p, bool)
                and 0 <= p <= 0xFFFF
                for p in pulse_us
            )
        ):
            raise ValueError(
                f"channel {self.name!r} has pulse_us {pulse_us!r}; it needs two "
                "finite widths in [0, 65535] us"
            )
        if pulse_us[0] == pulse_us[1]:
            raise ValueError(f"channel {self.name!r} has a degenerate pulse range")
        gains = tuple((str(cp), dof, float(g)) for cp, dof, g in self.gains)
        for cp, dof, g in gains:
            if not is_index(dof, DOF_PER_POINT):
                raise ValueError(f"channel {self.name!r} uses invalid dof {dof!r}")
            if not math.isfinite(g):
                raise ValueError(f"channel {self.name!r} has gain {g} on {cp!r}")
        object.__setattr__(self, "pulse_us", tuple(float(p) for p in pulse_us))
        object.__setattr__(self, "gains", tuple((cp, int(d), g) for cp, d, g in gains))


@dataclass(frozen=True)
class ActuatorState:
    """Normalized command vector, one value in [0,1] per channel."""

    values: np.ndarray

    def __post_init__(self):
        vals = frozen_array(self.values)
        if vals.ndim != 1:
            raise ValueError("actuator state must be a flat vector")
        if not in_unit_interval(vals):
            raise ValueError("actuator values must be finite and lie in [0, 1]")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class RigConfig:
    """Control points, actuator map, and vertex skinning weights.

    Construction raises ``ValueError`` unless:
    - control-point ids are unique and every gain names one of them;
    - ``weights`` is (U, points): finite, nonnegative, each row summing to
      at most 1 + 1e-9, and each point touching at least one vertex;
    - the actuator image stays inside the boxes: for every u in [0, 1]^n
      each dof's value lies within that dof's bounds (``_actuator_image``).
      This is the rule the skinning model sets for the actuation topology,
      and it makes forward kinematics the one linear map that IK solves
      against.
    How many points of each kind, or how many channels, is free. ``gain``
    is the read-only (dofs, channels) actuation topology, built once here.
    """

    control_points: tuple[ControlPoint, ...]
    channels: tuple[ActuatorChannel, ...]
    weights: np.ndarray  # (U, control_point_count), nonnegative
    gain: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        points = tuple(self.control_points)
        object.__setattr__(self, "control_points", points)
        object.__setattr__(self, "channels", tuple(self.channels))
        object.__setattr__(self, "weights", frozen_array(self.weights))
        ids = [cp.id for cp in points]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate control point ids {dup}")
        gain = frozen_array(_gain_matrix(ids, self.channels))
        object.__setattr__(self, "gain", gain)

        w = self.weights
        if w.ndim != 2 or w.shape[1] != len(points):
            raise ValueError(
                f"weights have shape {w.shape}, expected one column for each "
                f"of {len(points)} control points"
            )
        if not np.isfinite(w).all():
            raise ValueError("skinning weights contain non-finite entries")
        if (w < 0).any():
            raise ValueError("skinning weights contain negative entries")
        if w.sum(axis=1).max(initial=0.0) > 1.0 + 1e-9:
            raise ValueError("some vertex weight rows sum above 1")
        idle = np.flatnonzero(~(w > 0).any(axis=0))
        if idle.size:
            raise ValueError(f"control point {ids[idle[0]]!r} influences no vertex")

        low, high = _actuator_image(gain)
        bounds = np.array([cp.bounds for cp in points]).reshape(-1, 2)
        outside = (low < bounds[:, 0]) | (high > bounds[:, 1])
        if outside.any():
            d = int(np.flatnonzero(outside)[0])
            raise ValueError(
                f"actuator image exceeds bounds on {ids[d // DOF_PER_POINT]!r} "
                f"dof {d % DOF_PER_POINT}"
            )


def _gain_matrix(ids, channels) -> np.ndarray:
    """(dof_count, channel_count) map from u to the displacements of the
    control points named ``ids``. ``ValueError`` if a gain names another
    point."""
    index = {cp_id: i for i, cp_id in enumerate(ids)}
    g = np.zeros((len(index) * DOF_PER_POINT, len(channels)))
    for j, ch in enumerate(channels):
        for cp_id, dof, value in ch.gains:
            if cp_id not in index:
                raise ValueError(f"channel {ch.name!r} drives unknown point {cp_id!r}")
            g[index[cp_id] * DOF_PER_POINT + dof, j] += value
    return g


def _actuator_image(gain: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-dof (low, high) reach of ``gain @ u`` over u in [0, 1]^n: the sums
    of each row's negative and of its positive gains."""
    return np.minimum(gain, 0.0).sum(axis=1), np.maximum(gain, 0.0).sum(axis=1)


def save_config(path, config: RigConfig) -> None:
    doc = {
        "control_points": [
            {
                "id": cp.id,
                "kind": cp.kind,
                "rest_position": cp.rest_position.tolist(),
                "bounds": cp.bounds.tolist(),
            }
            for cp in config.control_points
        ],
        "actuator_channels": [
            {
                "name": ch.name,
                "pulse_us": list(ch.pulse_us),
                "gains": [
                    {"cp": cp, "dof": dof, "value": g} for cp, dof, g in ch.gains
                ],
            }
            for ch in config.channels
        ],
        "skinning_weights": [
            [int(v), int(c), config.weights[v, c]]
            for v, c in zip(*np.nonzero(config.weights))
        ],
        "vertex_count": int(config.weights.shape[0]),
    }
    Path(path).write_text(json.dumps(doc))


_entry = functools.partial(json_entry, "rig config")


def _numbers(doc, key: str) -> np.ndarray:
    """``doc[key]``, a list (of lists) of numbers, as a float array;
    ``ValueError`` naming the key for any other value or element."""
    value = _entry(doc, key, list)
    cells = np.array(value, dtype=object)
    if not all(isinstance(cell, numbers.Real) for cell in cells.flat):
        raise ValueError(f"rig config key {key!r} must hold only numbers, got {value!r}")
    return cells.astype(np.float64)


def load_config(path) -> RigConfig:
    """Read a ``save_config`` file. ``ValueError`` naming the key if one is
    missing or holds the wrong type (a string for an id, kind, name or
    gain target, a number for a gain value, a list of numbers for a
    position or bounds, a list for a list), if ``vertex_count`` is not a
    nonnegative integer, or if a skinning entry is not an integer vertex and
    control-point index in range plus a finite weight. Every other rule is
    the constructors' (``ControlPoint``, ``ActuatorChannel``,
    ``RigConfig``), which raise ``ValueError`` as for a config built in
    code. A point's ``rest_orientation``, which older files carry, is
    ignored: no map ever read it."""
    doc = json.loads(Path(path).read_text())
    points = tuple(
        ControlPoint(
            id=_entry(p, "id", str),
            kind=_entry(p, "kind", str),
            rest_position=_numbers(p, "rest_position"),
            bounds=_numbers(p, "bounds"),
        )
        for p in _entry(doc, "control_points", list)
    )
    channels = tuple(
        ActuatorChannel(
            name=_entry(c, "name", str),
            pulse_us=_entry(c, "pulse_us"),
            gains=tuple(
                (_entry(g, "cp", str), _entry(g, "dof"), _entry(g, "value", numbers.Real))
                for g in _entry(c, "gains", list)
            ),
        )
        for c in _entry(doc, "actuator_channels", list)
    )
    vertex_count = _entry(doc, "vertex_count")
    if not is_index(vertex_count):
        raise ValueError(f"vertex_count {vertex_count!r} is not a nonnegative integer")
    weights = np.zeros((vertex_count, len(points)))
    for entry in _entry(doc, "skinning_weights", list):
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ValueError(f"skinning entry {entry!r} is not [vertex, point, weight]")
        v, c, w = entry
        if not (is_index(v, vertex_count) and is_index(c, len(points))):
            raise ValueError(
                f"skinning entry {[v, c, w]!r}: vertex index must be an integer "
                f"in [0, {vertex_count}), control-point index in [0, {len(points)})"
            )
        if not isinstance(w, (int, float)) or not math.isfinite(w):
            raise ValueError(f"skinning entry {[v, c, w]!r}: weight must be finite")
        weights[v, c] = w
    return RigConfig(points, channels, weights)


class Kinematics:
    """Precomputed linear maps for one (config, rig) pair.

    ``vertex_map`` is the (3U, channels) matrix taking u straight to vertex
    displacements; forward kinematics and inverse kinematics share it so
    IK round-trips are exact up to solver tolerance. It is built from the
    module formula, point by point in order, with no BLAS product.
    ``ik_channels`` have a nonzero ``RigConfig.gain`` column; the rest,
    ``neck_channels``, move no vertex and stay out of IK. The IK target is
    the landmark union (``landmarks``) and its coordinate ``rows``. They,
    the problem matrix ``landmark_matrix``, the one IK solver over its Gram
    ``landmark_solver`` and the maps of ``coefficient_problem`` are built on
    first use, so forward kinematics needs no landmark groups. ``solve_ik``
    forms the solver's normal equations from a landmark position target;
    the tick and ``evaluate_tracking`` form them from rig coefficients
    (``coefficient_problem``). All three share the solver's inverse cache.
    """

    def __init__(self, config: RigConfig, rig: LbsRig):
        if config.weights.shape[0] != rig.vertex_count:
            raise ValueError(
                f"config weights cover {config.weights.shape[0]} vertices, "
                f"rig has {rig.vertex_count}"
            )
        self.rig = rig

        verts = rig.mesh.vertices()
        # Per point, rows 0-2 are t and rows 3-5 omega per unit command.
        gain = config.gain.reshape(len(config.control_points), DOF_PER_POINT, -1)
        delta = np.zeros((rig.vertex_count, 3, gain.shape[2]))
        for c, cp in enumerate(config.control_points):
            w = config.weights[:, c]
            touched = np.flatnonzero(w)
            r = verts[touched] - cp.rest_position
            t, omega = gain[c, :3], gain[c, 3:]
            # w * (t + omega x r) per channel, as (vertex, axis, channel).
            move = np.cross(omega.T, r[:, None]).transpose(0, 2, 1)
            move += t
            move *= w[touched, None, None]
            delta[touched] += move
        self.vertex_map = delta.reshape(3 * rig.vertex_count, -1)
        skin = config.gain.any(axis=0)
        self.ik_channels = np.flatnonzero(skin)
        self.neck_channels = np.flatnonzero(~skin)

    @functools.cached_property
    def landmarks(self) -> np.ndarray:
        """Sorted union of the rig's landmark groups: the IK target vertices."""
        groups = [idx for idx in self.rig.landmark_groups.values() if idx.size]
        if not groups:
            raise ValueError("rig defines no landmark groups")
        return frozen_array(np.unique(np.concatenate(groups)), dtype=np.int64)

    @functools.cached_property
    def rows(self) -> np.ndarray:
        """Coordinate rows 3v, 3v + 1, 3v + 2 of each of ``landmarks``."""
        return frozen_array(coordinate_rows(self.landmarks), dtype=np.int64)

    @functools.cached_property
    def landmark_matrix(self) -> np.ndarray:
        """A: the (rows, ik channels) block of ``vertex_map``, read-only."""
        a = np.ascontiguousarray(self.vertex_map[np.ix_(self.rows, self.ik_channels)])
        a.flags.writeable = False
        return a

    @functools.cached_property
    def landmark_solver(self) -> BoxLeastSquares:
        """IK solver over the Gram of ``landmark_matrix``. Built on first use."""
        return BoxLeastSquares(self.landmark_matrix.T @ self.landmark_matrix)

    @functools.cached_property
    def _coefficient_maps(self) -> tuple[np.ndarray, np.ndarray]:
        """(M, G_b) over the landmark rows, basis = ``rig.basis.matrix[:,
        rows]``: M = basis @ A (B x n) and G_b = basis @ basis^T (B x B),
        from one transient gather of the basis. Built on first use."""
        basis = self.rig.basis.matrix[:, self.rows]
        # One GEMV per basis row over a contiguous A^T. The (B, rows) @
        # (rows, n) GEMM rounds differently with 1 and 2 threads on some
        # OpenBLAS kernels; these GEMVs give the same bits either way.
        a_t = np.ascontiguousarray(self.landmark_matrix.T)
        return np.array([a_t @ row for row in basis]), basis @ basis.T

    def coefficient_problem(self, theta: np.ndarray) -> tuple[np.ndarray, float]:
        """``landmark_solver``'s normal equations (c, const) for the target
        y = theta @ basis[:, rows]: c = theta M and ||y||^2 = theta^T G_b
        theta, so the rows-long target is never formed. ``ValueError``
        unless ``theta`` has one value per blendshape."""
        basis_matrix, basis_gram = self._coefficient_maps
        if theta.shape != (basis_gram.shape[0],):
            raise ValueError(
                f"coefficient vector has shape {theta.shape}, basis has "
                f"{basis_gram.shape[0]} blendshapes"
            )
        return theta @ basis_matrix, float(theta @ (basis_gram @ theta))


def _kinematics(config: RigConfig, rig: LbsRig) -> Kinematics:
    # One entry per config, replaced when another rig arrives, so a config
    # driven with fresh rig objects pins only the last of them.
    entry = getattr(config, "_kinematics_entry", None)
    if entry is None or entry[0] is not rig:
        entry = (rig, Kinematics(config, rig))
        object.__setattr__(config, "_kinematics_entry", entry)
    return entry[1]


def forward_kinematics(config: RigConfig, u, rig: LbsRig) -> FaceMesh:
    """Skin deformation for one actuator command.

    The one linear map ``Kinematics.vertex_map`` that IK solves against:
    neutral + vertex_map @ u, and u = 0 returns the rig's neutral mesh
    bitwise. Nothing is clamped: ``RigConfig`` guarantees that every u in
    [0, 1]^n keeps each control-point dof inside its bounds.
    """
    kin = _kinematics(config, rig)
    vals = u.values if isinstance(u, ActuatorState) else np.asarray(u, dtype=np.float64)
    if vals.shape != (len(config.channels),):
        raise ValueError(
            f"actuator vector has shape {vals.shape}, "
            f"config has {len(config.channels)} channels"
        )
    if not in_unit_interval(vals):
        raise ValueError("actuator values must be finite and lie in [0, 1]")
    if not vals.any():
        return FaceMesh(rig.mesh.positions)
    return FaceMesh(rig.mesh.positions + kin.vertex_map @ vals)


@dataclass(frozen=True)
class IkResult:
    state: ActuatorState
    residual: float
    converged: bool
    iterations: int

    def __iter__(self):
        return iter((self.state, self.residual))


def solve_ik(
    config: RigConfig,
    target,
    rig: LbsRig,
    warm_start: np.ndarray | None = None,
    neck: np.ndarray | None = None,
) -> IkResult:
    """Actuator command whose forward kinematics best matches the target.

    The match is taken over the rig's landmark union
    (``Kinematics.landmark_solver``). ``target`` is a FaceMesh (sliced to
    the landmark vertices) or a flat position array over exactly those
    vertices. Neck channels, those with no skin gain
    (``Kinematics.neck_channels``), are excluded from the solve and set
    from ``neck`` (default 0). ``warm_start`` carries the previous frame's
    solution over ``Kinematics.ik_channels`` into the solver.
    """
    kin = _kinematics(config, rig)
    rows = kin.rows
    if isinstance(target, FaceMesh):
        if target.vertex_count != rig.vertex_count:
            raise ValueError(
                f"target has {target.vertex_count} vertices, "
                f"rig has {rig.vertex_count}"
            )
        positions = target.positions[rows]
    else:
        positions = np.asarray(target, dtype=np.float64).reshape(-1)
        if positions.size != rows.size:
            raise ValueError(
                f"target covers {positions.size // 3} vertices, evaluation "
                f"set has {kin.landmarks.size}"
            )
    a = kin.landmark_matrix
    y = positions - rig.mesh.positions[rows]
    x, converged, iterations = kin.landmark_solver.minimize(a.T @ y, warm_start)
    r = a @ x - y
    u = np.zeros(len(config.channels))
    u[kin.ik_channels] = x
    if neck is not None:
        u[kin.neck_channels] = np.clip(np.asarray(neck, dtype=np.float64), 0.0, 1.0)
    return IkResult(ActuatorState(u), float(r @ r), converged, iterations)


def evaluate_tracking(
    config: RigConfig,
    reference: MotionSequence,
    rig: LbsRig,
    histogram_dir=None,
) -> dict:
    """How well the actuated face tracks a reference coefficient motion.

    Every frame is solved to actuator space from its coefficients by the
    tick's problem and solver (``Kinematics.coefficient_problem`` and
    ``landmark_solver``), warm-started frame to frame in one chain, so each
    solution equals the tick's for the same coefficients bit for bit. The
    error rows X A^T - Theta @ basis over the landmark rows are then formed
    ``retarget.CHUNK_FRAMES`` frames at a time, two matrix-matrix products
    per chunk; no full mesh is skinned.
    Euclidean errors per landmark vertex pool across frames into per-region
    median and quartile statistics: {region: {median_mm, q1_mm, q3_mm,
    frames}}. A motion with no frames, or with another blendshape count than
    the rig's, raises ``ValueError`` before any solve.
    """
    kin = _kinematics(config, rig)
    missing = [
        r
        for r in REGIONS
        if r not in rig.landmark_groups or rig.landmark_groups[r].size == 0
    ]
    if missing:
        raise ValueError(f"rig is missing landmark groups: {missing}")
    count = reference.frame_count
    if count == 0:
        raise ValueError("reference motion has no frames")
    if reference.blendshape_count != rig.blendshape_count:
        raise ValueError(
            f"reference motion has {reference.blendshape_count} blendshapes, "
            f"rig has {rig.blendshape_count}"
        )
    _, errors = _tracking_errors(kin, reference.frames)

    report: dict = {}
    for region in REGIONS:
        cols = np.searchsorted(kin.landmarks, rig.landmark_groups[region])
        sample = errors[:, cols].ravel()
        q1, med, q3 = np.quantile(sample, [0.25, 0.5, 0.75])
        report[region] = {
            "median_mm": float(med),
            "q1_mm": float(q1),
            "q3_mm": float(q3),
            "frames": count,
        }
        if histogram_dir is not None:
            _write_histogram(Path(histogram_dir) / f"{region}.csv", sample)
    return report


def _tracking_errors(kin: Kinematics, frames: np.ndarray) -> tuple:
    """The tick's chain over a (T, B) coefficient motion and each
    landmark's Euclidean error: (solutions (T, n), errors (T, landmarks))."""
    solver, a = kin.landmark_solver, kin.landmark_matrix
    columns = kin.rig.basis.matrix[:, kin.rows]
    count = len(frames)

    # The tick's solve without the residual it reports: the same c and the
    # same iteration, so the same x.
    basis_matrix, _ = kin._coefficient_maps
    solutions = np.empty((count, a.shape[1]))
    warm = None
    for t, theta in enumerate(frames):
        warm, _, _ = solver.minimize(theta @ basis_matrix, warm)
        solutions[t] = warm

    errors = np.empty((count, kin.landmarks.size))
    for start in range(0, count, CHUNK_FRAMES):
        stop = start + CHUNK_FRAMES
        diff = solutions[start:stop] @ a.T
        diff -= frames[start:stop] @ columns
        diff = diff.reshape(len(diff), -1, 3)
        errors[start:stop] = np.sqrt(np.einsum("fvk,fvk->fv", diff, diff))
    return solutions, errors


def _write_histogram(path: Path, sample: np.ndarray) -> None:
    """20 equal bins from 0 to the largest error, as CSV rows."""
    top = float(sample.max()) or 1.0
    counts, edges = np.histogram(sample, bins=20, range=(0.0, top))
    lines = ["bin_lo_mm,bin_hi_mm,count"]
    for i, count in enumerate(counts):
        lines.append(f"{edges[i]:.6f},{edges[i + 1]:.6f},{count}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Procedural reference rig
# ---------------------------------------------------------------------------

_FACE_HALF_WIDTH = 70.0
_FACE_HALF_HEIGHT = 95.0
_FACE_DEPTH = 45.0
_RING_COUNT = 34

# Feature sites in face-plane coordinates; x is the subject's right-to-left
# axis with the subject's left at negative x, y is up, and z comes out of
# the face via the dome height below.
_FEATURES = [
    ("browInnerLeft", "brow", -18.0, 38.0),
    ("browInnerRight", "brow", 18.0, 38.0),
    ("browOuterLeft", "brow", -40.0, 34.0),
    ("browOuterRight", "brow", 40.0, 34.0),
    ("eyelidUpperLeft", "eyelid", -26.0, 26.0),
    ("eyelidUpperRight", "eyelid", 26.0, 26.0),
    ("eyelidLowerLeft", "eyelid", -26.0, 16.0),
    ("eyelidLowerRight", "eyelid", 26.0, 16.0),
    ("eyeballLeft", "eyeball", -26.0, 21.0),
    ("eyeballRight", "eyeball", 26.0, 21.0),
    ("noseBridge", "nose", 0.0, 8.0),
    ("noseTip", "nose", 0.0, -2.0),
    ("cheekLeft", "cheek", -45.0, -5.0),
    ("cheekRight", "cheek", 45.0, -5.0),
    ("mouthCornerLeft", "mouth", -24.0, -28.0),
    ("mouthCornerRight", "mouth", 24.0, -28.0),
    ("mouthUpperCenter", "mouth", 0.0, -22.0),
    ("mouthLowerCenter", "mouth", 0.0, -36.0),
    ("mouthUpperLeft", "mouth", -12.0, -24.0),
    ("mouthUpperRight", "mouth", 12.0, -24.0),
    ("jawCenter", "jaw", 0.0, -55.0),
]

_REGION_RADIUS = {
    "eye": 14.0,
    "brow": 13.0,
    "nose": 11.0,
    "cheek": 15.0,
    "mouth": 17.0,
    "jaw": 22.0,
}
_REGION_SIGMA = {
    "eye": 3.5,
    "brow": 3.5,
    "nose": 3.0,
    "cheek": 4.5,
    "mouth": 4.5,
    "jaw": 6.0,
}

# Blendshape authoring table: anchors are feature ids or explicit (x, y)
# face-plane points; the direction is a rough semantic motion axis that
# seeded jitter then perturbs so all 51 fields are linearly independent.
_SHAPES: dict[str, tuple[list, tuple[float, float, float], float]] = {
    "browDownLeft": (["browInnerLeft", "browOuterLeft"], (0, -1, 0), 3.0),
    "browDownRight": (["browInnerRight", "browOuterRight"], (0, -1, 0), 3.0),
    "browInnerUp": (["browInnerLeft", "browInnerRight"], (0, 1, 0), 3.0),
    "browOuterUpLeft": (["browOuterLeft"], (0, 1, 0), 3.0),
    "browOuterUpRight": (["browOuterRight"], (0, 1, 0), 3.0),
    "cheekPuff": (["cheekLeft", "cheekRight"], (0, 0, 1), 4.0),
    "cheekSquintLeft": (["cheekLeft"], (0, 1, 0.3), 3.0),
    "cheekSquintRight": (["cheekRight"], (0, 1, 0.3), 3.0),
    "eyeBlinkLeft": (["eyelidUpperLeft"], (0, -1, -0.2), 3.0),
    "eyeBlinkRight": (["eyelidUpperRight"], (0, -1, -0.2), 3.0),
    "eyeLookDownLeft": (["eyeballLeft", "eyelidUpperLeft"], (0, -1, 0), 2.2),
    "eyeLookDownRight": (["eyeballRight", "eyelidUpperRight"], (0, -1, 0), 2.2),
    "eyeLookInLeft": (["eyeballLeft"], (1, 0, 0), 2.2),
    "eyeLookInRight": (["eyeballRight"], (-1, 0, 0), 2.2),
    "eyeLookOutLeft": (["eyeballLeft"], (-1, 0, 0), 2.2),
    "eyeLookOutRight": (["eyeballRight"], (1, 0, 0), 2.2),
    "eyeLookUpLeft": (["eyeballLeft"], (0, 1, 0), 2.2),
    "eyeLookUpRight": (["eyeballRight"], (0, 1, 0), 2.2),
    "eyeSquintLeft": (["eyelidLowerLeft"], (0, 1, 0), 2.2),
    "eyeSquintRight": (["eyelidLowerRight"], (0, 1, 0), 2.2),
    "eyeWideLeft": (["eyelidUpperLeft"], (0, 1, 0.2), 2.2),
    "eyeWideRight": (["eyelidUpperRight"], (0, 1, 0.2), 2.2),
    "jawForward": (["jawCenter"], (0, 0, 1), 5.0),
    "jawLeft": (["jawCenter"], (-1, 0, 0), 5.0),
    "jawOpen": (["jawCenter"], (0, -1, 0.1), 8.0),
    "jawRight": (["jawCenter"], (1, 0, 0), 5.0),
    "mouthClose": (["mouthUpperCenter", "mouthLowerCenter"], (0, 0, -1), 3.0),
    "mouthDimpleLeft": (["mouthCornerLeft"], (-0.7, 0, -0.7), 3.0),
    "mouthDimpleRight": (["mouthCornerRight"], (0.7, 0, -0.7), 3.0),
    "mouthFrownLeft": (["mouthCornerLeft"], (0, -1, 0), 3.5),
    "mouthFrownRight": (["mouthCornerRight"], (0, -1, 0), 3.5),
    "mouthFunnel": (
        ["mouthUpperCenter", "mouthLowerCenter", "mouthCornerLeft", "mouthCornerRight"],
        (0, 0, 1),
        3.0,
    ),
    "mouthLeft": (["mouthUpperCenter", "mouthLowerCenter"], (-1, 0, 0), 3.5),
    "mouthLowerDownLeft": ([(-10.0, -36.0)], (0, -1, 0), 3.5),
    "mouthLowerDownRight": ([(10.0, -36.0)], (0, -1, 0), 3.5),
    "mouthPressLeft": ([(-12.0, -30.0)], (0, 0, -1), 3.0),
    "mouthPressRight": ([(12.0, -30.0)], (0, 0, -1), 3.0),
    "mouthPucker": ([(0.0, -22.0), (0.0, -36.0)], (0, 0, 1), 3.5),
    "mouthRight": (["mouthUpperCenter", "mouthLowerCenter"], (1, 0, 0), 3.5),
    "mouthRollLower": ([(0.0, -36.0)], (0, 0.6, -0.8), 3.0),
    "mouthRollUpper": ([(0.0, -22.0)], (0, -0.6, -0.8), 3.0),
    "mouthShrugLower": ([(0.0, -38.0)], (0, 1, 0.3), 3.0),
    "mouthShrugUpper": ([(0.0, -20.0)], (0, 1, 0.3), 3.0),
    "mouthSmileLeft": (["mouthCornerLeft"], (-0.45, 1, 0), 3.5),
    "mouthSmileRight": (["mouthCornerRight"], (0.45, 1, 0), 3.5),
    "mouthStretchLeft": (["mouthCornerLeft"], (-1, -0.3, 0), 3.5),
    "mouthStretchRight": (["mouthCornerRight"], (1, -0.3, 0), 3.5),
    "mouthUpperUpLeft": (["mouthUpperLeft"], (0, 1, 0), 3.0),
    "mouthUpperUpRight": (["mouthUpperRight"], (0, 1, 0), 3.0),
    "noseSneerLeft": ([(-6.0, 2.0)], (0, 1, 0.3), 2.2),
    "noseSneerRight": ([(6.0, 2.0)], (0, 1, 0.3), 2.2),
}


def _dome_z(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    rho_sq = (x / _FACE_HALF_WIDTH) ** 2 + (y / _FACE_HALF_HEIGHT) ** 2
    return _FACE_DEPTH * np.clip(1.0 - rho_sq, 0.0, None)


def _surface_point(x: float, y: float) -> np.ndarray:
    return np.array([x, y, float(_dome_z(np.array(x), np.array(y)))])


def _ring_counts() -> list[int]:
    counts = [8 * i for i in range(1, 34)]
    counts.append(4792 - 1 - sum(counts))
    return counts


def _build_mesh() -> FaceMesh:
    counts = _ring_counts()
    xs, ys = [0.0], [0.0]
    for i, n in enumerate(counts, start=1):
        rho = i / _RING_COUNT
        phi = 2.0 * np.pi * np.arange(n) / n + (0.5 * np.pi * i / _RING_COUNT)
        xs.extend(_FACE_HALF_WIDTH * rho * np.cos(phi))
        ys.extend(_FACE_HALF_HEIGHT * rho * np.sin(phi))
    x = np.array(xs)
    y = np.array(ys)
    z = _dome_z(x, y)
    return FaceMesh(np.column_stack([x, y, z]).ravel())


def _region_center_table() -> dict[str, list[np.ndarray]]:
    centers: dict[str, list[np.ndarray]] = {r: [] for r in REGIONS}
    for _, kind, x, y in _FEATURES:
        region = {"eyelid": "eye", "eyeball": "eye"}.get(kind, kind)
        centers[region].append(_surface_point(x, y))
    return centers


def _landmark_groups(verts: np.ndarray) -> dict[str, np.ndarray]:
    centers = _region_center_table()
    groups = {}
    for region in REGIONS:
        radius = _REGION_RADIUS[region]
        near = np.zeros(verts.shape[0], dtype=bool)
        for c in centers[region]:
            near |= np.linalg.norm(verts - c, axis=1) < radius
        groups[region] = np.flatnonzero(near).astype(np.int64)
    return groups


def _bump(verts: np.ndarray, center: np.ndarray, sigma: float) -> np.ndarray:
    d_sq = ((verts - center) ** 2).sum(axis=1)
    profile = np.exp(-d_sq / (2.0 * sigma * sigma))
    profile[d_sq > (3.0 * sigma) ** 2] = 0.0
    return profile


def _build_basis(verts: np.ndarray, rng: np.random.Generator) -> BlendshapeBasis:
    features = {name: (x, y) for name, _, x, y in _FEATURES}
    fields = []
    for name in CANONICAL_NAMES:
        anchors, direction, amp = _SHAPES[name]
        sigma = _REGION_SIGMA[region_of(name)]
        disp = np.zeros((verts.shape[0], 3))
        for anchor in anchors:
            x, y = features[anchor] if isinstance(anchor, str) else anchor
            x += rng.uniform(-2.0, 2.0)
            y += rng.uniform(-2.0, 2.0)
            d = np.asarray(direction, dtype=np.float64) + rng.normal(0.0, 0.08, 3)
            d /= np.linalg.norm(d)
            disp += np.outer(_bump(verts, _surface_point(x, y), sigma), amp * d)
        fields.append(disp.ravel())
    return BlendshapeBasis(tuple(CANONICAL_NAMES), tuple(fields))


_WEIGHT_SIGMA = {
    "brow": 7.0,
    "eyelid": 5.0,
    "eyeball": 5.0,
    "nose": 6.0,
    "cheek": 9.0,
    "mouth": 7.0,
    "jaw": 12.0,
}


def _build_weights(verts: np.ndarray, points: tuple[ControlPoint, ...]) -> np.ndarray:
    w = np.zeros((verts.shape[0], len(points)))
    for c, cp in enumerate(points):
        w[:, c] = _bump(verts, cp.rest_position, _WEIGHT_SIGMA[cp.kind])
    sums = w.sum(axis=1)
    heavy = sums > 0.9
    w[heavy] *= (0.9 / sums[heavy])[:, None]
    return w


def _reference_channels() -> list[ActuatorChannel]:
    facial = (600.0, 2400.0)
    jaw = (500.0, 2500.0)
    neck = (1000.0, 2000.0)
    channels = [
        ActuatorChannel("brow_left_up", facial,
                        (("browInnerLeft", 1, 6.0), ("browOuterLeft", 1, 5.0))),
        ActuatorChannel("brow_left_down", facial,
                        (("browInnerLeft", 1, -4.0), ("browOuterLeft", 1, -3.0))),
        ActuatorChannel("brow_right_up", facial,
                        (("browInnerRight", 1, 6.0), ("browOuterRight", 1, 5.0))),
        ActuatorChannel("brow_right_down", facial,
                        (("browInnerRight", 1, -4.0), ("browOuterRight", 1, -3.0))),
        ActuatorChannel("eyelid_left_close", facial, (("eyelidUpperLeft", 1, -6.0),)),
        ActuatorChannel("eyelid_right_close", facial, (("eyelidUpperRight", 1, -6.0),)),
        ActuatorChannel("eyelid_left_raise", facial, (("eyelidLowerLeft", 1, 3.0),)),
        ActuatorChannel("eyelid_right_raise", facial, (("eyelidLowerRight", 1, 3.0),)),
        ActuatorChannel("eye_left_yaw", facial, (("eyeballLeft", 4, 0.5),)),
        ActuatorChannel("eye_left_pitch", facial, (("eyeballLeft", 3, 0.4),)),
        ActuatorChannel("eye_right_yaw", facial, (("eyeballRight", 4, 0.5),)),
        ActuatorChannel("eye_right_pitch", facial, (("eyeballRight", 3, 0.4),)),
        ActuatorChannel("nose_raise", facial, (("noseTip", 1, 2.5),)),
        ActuatorChannel("nose_flare", facial,
                        (("noseTip", 2, 2.5), ("noseBridge", 2, 1.0),)),
        ActuatorChannel("cheek_left_raise", facial,
                        (("cheekLeft", 1, 4.0), ("cheekLeft", 2, 1.5))),
        ActuatorChannel("cheek_right_raise", facial,
                        (("cheekRight", 1, 4.0), ("cheekRight", 2, 1.5))),
        # Up/down tendons on one corner pull along different lines (distinct
        # z components); exact antagonists would collapse the IK rank.
        ActuatorChannel("mouth_corner_left_up", facial,
                        (("mouthCornerLeft", 1, 5.0), ("mouthCornerLeft", 2, 0.8))),
        ActuatorChannel("mouth_corner_left_down", facial,
                        (("mouthCornerLeft", 1, -5.0), ("mouthCornerLeft", 2, 0.6))),
        ActuatorChannel("mouth_corner_right_up", facial,
                        (("mouthCornerRight", 1, 5.0), ("mouthCornerRight", 2, 0.8))),
        ActuatorChannel("mouth_corner_right_down", facial,
                        (("mouthCornerRight", 1, -5.0), ("mouthCornerRight", 2, 0.6))),
        ActuatorChannel("mouth_upper_raise", facial,
                        (("mouthUpperCenter", 1, 3.5), ("mouthUpperLeft", 1, 2.5),
                         ("mouthUpperRight", 1, 2.5))),
        ActuatorChannel("mouth_lower_drop", facial, (("mouthLowerCenter", 1, -4.5),)),
        ActuatorChannel("mouth_pucker", facial,
                        (("mouthCornerLeft", 0, 4.0), ("mouthCornerRight", 0, -4.0),
                         ("mouthUpperCenter", 2, 3.0), ("mouthLowerCenter", 2, 3.0))),
        ActuatorChannel("mouth_wide", facial,
                        (("mouthCornerLeft", 0, -4.0), ("mouthCornerRight", 0, 4.0))),
        ActuatorChannel("jaw_open", jaw, (("jawCenter", 1, -10.0), ("jawCenter", 3, -0.15))),
        ActuatorChannel("jaw_left", jaw, (("jawCenter", 0, -5.0), ("jawCenter", 4, 0.03))),
        ActuatorChannel("jaw_right", jaw, (("jawCenter", 0, 5.0), ("jawCenter", 4, -0.02))),
        ActuatorChannel("jaw_forward", jaw, (("jawCenter", 2, 6.0),)),
        ActuatorChannel("neck_pan", neck),
        ActuatorChannel("neck_tilt", neck),
        ActuatorChannel("neck_roll", neck),
    ]
    return channels


def build_reference_rig(seed: int = 0) -> tuple[LbsRig, RigConfig]:
    """Deterministic synthetic face: a 4792-vertex dome with 51 ARKit-named
    bump blendshapes, 21 control points at the feature sites, and the full
    31-channel actuator allocation."""
    rng = np.random.default_rng(seed)
    mesh = _build_mesh()
    verts = mesh.vertices()
    basis = _build_basis(verts, rng)
    groups = _landmark_groups(verts)
    rig = LbsRig(
        mesh=mesh,
        basis=basis,
        mouth_mask=groups["mouth"],
        landmark_groups=groups,
    )

    channels = tuple(_reference_channels())
    # Each box is the actuator image plus a 5 % and 0.25 margin.
    low, high = _actuator_image(_gain_matrix([f[0] for f in _FEATURES], channels))
    bounds = np.column_stack([low * 1.05 - 0.25, high * 1.05 + 0.25])
    points = tuple(
        ControlPoint(
            id=name,
            kind=kind,
            rest_position=_surface_point(x, y),
            bounds=bounds[i * DOF_PER_POINT : (i + 1) * DOF_PER_POINT],
        )
        for i, (name, kind, x, y) in enumerate(_FEATURES)
    )
    weights = _build_weights(verts, points)
    config = RigConfig(points, channels, weights)
    return rig, config
