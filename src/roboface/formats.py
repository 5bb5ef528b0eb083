"""Binary file formats and OBJ export.

All formats are little-endian with a 4-byte ASCII magic and a u32 version:

  .lbsrig  "LBSR"  rig container (neutral mesh, blendshapes, masks, groups)
  .lbsm    "LBSM"  coefficient motion (fps + row-major f32 frames)
  .phlg    "PHLG"  phoneme logit stream
  .bin     "DNSF"  dense per-frame vertex positions

Payload arrays are stored as f32; loading back therefore quantizes f64
values to f32 precision. OBJ export writes fixed 6-decimal vertex lines so
output bytes are deterministic.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .arkit import REGIONS
from .lbs import BlendshapeBasis, FaceMesh, LbsRig, MotionSequence
from .util import is_positive_finite

_RIG_MAGIC = b"LBSR"
_MOTION_MAGIC = b"LBSM"
_LOGIT_MAGIC = b"PHLG"
_DENSE_MAGIC = b"DNSF"
_VERSION = 1


class _Reader:
    """Cursor over one file's bytes with bounds-checked reads."""

    def __init__(self, data: bytes, label: str):
        self.data = data
        self.pos = 0
        self.label = label

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ValueError(f"truncated {self.label} file")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def remaining(self) -> int:
        return len(self.data) - self.pos

    def finish(self) -> None:
        """Rejects bytes past the payload, so a corrupted count never loads."""
        if self.remaining():
            raise ValueError(f"{self.remaining()} trailing bytes in {self.label} file")

    def peek(self, n: int) -> bytes:
        return self.data[self.pos : self.pos + n]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def rate(self) -> float:
        """An f32 frame-rate field; NaN, inf and values <= 0 are rejected."""
        value = struct.unpack("<f", self.take(4))[0]
        if not is_positive_finite(value):
            raise ValueError(f"{self.label} file has frame rate {value}")
        return value

    def f32_array(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(4 * count), dtype="<f4").astype(np.float64)

    def u32_array(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(4 * count), dtype="<u4").astype(np.int64)

    def f64_array(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(8 * count), dtype="<f8").copy()

    def string(self) -> str:
        return self.take(self.u16()).decode("utf-8")


def _check_header(r: _Reader, magic: bytes) -> None:
    got = r.take(4)
    if got != magic:
        raise ValueError(
            f"{r.label} file has magic {got!r}, expected {magic!r}"
        )
    version = r.u32()
    if version != _VERSION:
        raise ValueError(f"unsupported {r.label} version {version}")


def _f32_bytes(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype="<f4").tobytes()


def _string_bytes(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def save_rig(path, rig: LbsRig) -> None:
    """Write a rig container. The six canonical landmark groups are always
    present in the file; groups the rig does not define are stored empty."""
    u = rig.vertex_count
    b = rig.blendshape_count
    parts = [
        _RIG_MAGIC,
        struct.pack("<III", _VERSION, u, b),
        _f32_bytes(rig.mesh.positions),
    ]
    for disp in rig.basis.displacements:
        parts.append(_f32_bytes(disp))
    for name in rig.basis.names:
        parts.append(_string_bytes(name))
    mask = rig.mouth_mask
    parts.append(struct.pack("<I", mask.size))
    parts.append(np.ascontiguousarray(mask, dtype="<u4").tobytes())
    for region in REGIONS:
        idx = rig.landmark_groups.get(region, np.zeros(0, dtype=np.int64))
        parts.append(_string_bytes(region))
        parts.append(struct.pack("<I", idx.size))
        parts.append(np.ascontiguousarray(idx, dtype="<u4").tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_rig(path) -> LbsRig:
    r = _Reader(Path(path).read_bytes(), "rig")
    _check_header(r, _RIG_MAGIC)
    u = r.u32()
    b = r.u32()
    # Every blendshape holds a 3U-float field and a name of at least its
    # 2-byte length; a count past the file size must not drive the loops.
    if 12 * u * (b + 1) + 2 * b > r.remaining():
        raise ValueError("truncated rig file")
    neutral = r.f32_array(3 * u)
    disp = tuple(r.f32_array(3 * u) for _ in range(b))
    names = tuple(r.string() for _ in range(b))
    mask = r.u32_array(r.u32())
    groups = {}
    for _ in range(len(REGIONS)):
        region = r.string()
        groups[region] = r.u32_array(r.u32())
    r.finish()
    return LbsRig(
        mesh=FaceMesh(neutral),
        basis=BlendshapeBasis(names, disp),
        mouth_mask=mask,
        landmark_groups=groups,
    )


def save_motion(path, seq: MotionSequence) -> None:
    header = _MOTION_MAGIC + struct.pack(
        "<IfII", _VERSION, seq.fps, seq.frame_count, seq.blendshape_count
    )
    Path(path).write_bytes(header + _f32_bytes(seq.frames))


def load_motion(path) -> MotionSequence:
    r = _Reader(Path(path).read_bytes(), "motion")
    _check_header(r, _MOTION_MAGIC)
    fps = r.rate()
    t = r.u32()
    b = r.u32()
    frames = r.f32_array(t * b).reshape(t, b)
    r.finish()
    return MotionSequence(fps, frames)


def save_logits(path, rate_hz: float, frames: np.ndarray) -> None:
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise ValueError("logit frames must be a (T, classes) array")
    header = _LOGIT_MAGIC + struct.pack(
        "<IfII", _VERSION, rate_hz, frames.shape[1], frames.shape[0]
    )
    Path(path).write_bytes(header + _f32_bytes(frames))


def load_logits(path) -> tuple[float, np.ndarray]:
    """Returns (rate_hz, frames) with frames shaped (T, classes)."""
    r = _Reader(Path(path).read_bytes(), "logit")
    _check_header(r, _LOGIT_MAGIC)
    rate = r.rate()
    classes = r.u32()
    t = r.u32()
    frames = r.f32_array(t * classes).reshape(t, classes)
    r.finish()
    return rate, frames


def save_dense_frames(path, frames: np.ndarray, fps: float) -> None:
    """Dense vertex motion: frames is (T, 3V) millimeter positions."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] % 3 != 0:
        raise ValueError("dense frames must be (T, 3V)")
    header = _DENSE_MAGIC + struct.pack(
        "<IIIf", _VERSION, frames.shape[1] // 3, frames.shape[0], fps
    )
    Path(path).write_bytes(header + _f32_bytes(frames))


def load_dense_frames(path) -> tuple[np.ndarray, float]:
    """Returns (frames (T, 3V), fps)."""
    r = _Reader(Path(path).read_bytes(), "dense-frame")
    _check_header(r, _DENSE_MAGIC)
    v = r.u32()
    t = r.u32()
    fps = r.rate()
    frames = r.f32_array(t * 3 * v).reshape(t, 3 * v)
    r.finish()
    return frames, fps


def export_obj(path, mesh: FaceMesh) -> None:
    """Write one mesh as OBJ: 6-decimal vertex lines, 1-based face indices."""
    lines = []
    for x, y, z in mesh.vertices():
        lines.append(f"v {x:.6f} {y:.6f} {z:.6f}")
    if mesh.triangles is not None:
        for a, b, c in mesh.triangles:
            lines.append(f"f {a + 1} {b + 1} {c + 1}")
    Path(path).write_text("\n".join(lines) + "\n")


def export_obj_sequence(path, seq: MotionSequence, rig: LbsRig) -> list[Path]:
    """Skin every frame of ``seq`` with ``rig`` and write one OBJ per frame.

    ``path`` names the stem: frame 7 of "out.obj" becomes "out_00007.obj".
    Returns the written paths in frame order.
    """
    from .lbs import apply_skinning

    base = Path(path)
    if base.parent != Path("."):
        base.parent.mkdir(parents=True, exist_ok=True)
    written = []
    for t in range(seq.frame_count):
        mesh = apply_skinning(rig, seq.frames[t])
        frame_path = base.with_name(f"{base.stem}_{t:05d}{base.suffix or '.obj'}")
        export_obj(frame_path, mesh)
        written.append(frame_path)
    return written
