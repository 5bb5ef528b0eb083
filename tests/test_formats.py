"""File formats: golden layouts, round-trips, corruption handling."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from roboface.formats import (
    export_obj,
    export_obj_sequence,
    load_dense_frames,
    load_logits,
    load_motion,
    load_rig,
    save_dense_frames,
    save_logits,
    save_motion,
    save_rig,
)
from roboface.arkit import REGIONS
from roboface.motionnet import AdamState, init_params, load_model, save_model
from roboface.lbs import (
    BlendshapeBasis,
    FaceMesh,
    LbsRig,
    MotionSequence,
    apply_skinning,
)
from roboface.rigsim import build_reference_rig


def f32(x):
    return np.asarray(x, dtype=np.float32).astype(np.float64)


def small_rig():
    rng = np.random.default_rng(5)
    v = 12
    mesh = FaceMesh(f32(rng.normal(0, 30, 3 * v)))
    names = ("jawOpen", "mouthSmileLeft", "eyeBlinkRight")
    disp = tuple(f32(rng.normal(0, 2, 3 * v)) for _ in names)
    groups = {
        "mouth": np.array([4, 5, 6]),
        "jaw": np.array([7]),
    }
    return LbsRig(mesh, BlendshapeBasis(names, disp), np.array([4, 5]), groups)


class TestMotionFile:
    def test_golden_layout(self, tmp_path):
        path = tmp_path / "m.lbsm"
        seq = MotionSequence(25.0, np.array([[0.0, 1.0]]))
        save_motion(path, seq)
        expected = (
            b"LBSM"
            + struct.pack("<I", 1)
            + struct.pack("<f", 25.0)
            + struct.pack("<I", 1)
            + struct.pack("<I", 2)
            + struct.pack("<ff", 0.0, 1.0)
        )
        assert path.read_bytes() == expected

    def test_round_trip_is_f32_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        seq = MotionSequence(25.0, rng.uniform(0, 1, (30, 51)))
        path = tmp_path / "m.lbsm"
        save_motion(path, seq)
        back = load_motion(path)
        assert back.fps == 25.0
        assert np.array_equal(back.frames, f32(seq.frames))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.lbsm"
        path.write_bytes(b"XXXX" + bytes(20))
        with pytest.raises(ValueError, match="magic"):
            load_motion(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "m.lbsm"
        save_motion(path, MotionSequence(25.0, np.zeros((4, 3))))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ValueError, match="truncated"):
            load_motion(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "m.lbsm"
        save_motion(path, MotionSequence(25.0, np.zeros((1, 1))))
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            load_motion(path)


class TestRigFile:
    def test_round_trip(self, tmp_path):
        rig = small_rig()
        path = tmp_path / "r.lbsrig"
        save_rig(path, rig)
        back = load_rig(path)
        assert np.array_equal(back.mesh.positions, rig.mesh.positions)
        assert back.basis.names == rig.basis.names
        for a, b in zip(back.basis.displacements, rig.basis.displacements):
            assert np.array_equal(a, b)
        assert np.array_equal(back.mouth_mask, rig.mouth_mask)
        assert np.array_equal(back.landmark_groups["mouth"], np.array([4, 5, 6]))
        assert back.landmark_groups["eye"].size == 0

    def test_huge_count_rejected_before_reading(self, tmp_path):
        path = tmp_path / "r.lbsrig"
        path.write_bytes(b"LBSR" + struct.pack("<III", 1, 0, 0xFFFFFFFF) + bytes(64))
        with pytest.raises(ValueError, match="truncated"):
            load_rig(path)

    def test_load_holds_the_basis_once(self, tmp_path):
        # The file's bytes and one f64 basis are unavoidable; a widened
        # copy or a bytes copy of the f32 block would add 3 to 6 MB.
        path = tmp_path / "reference.lbsrig"
        save_rig(path, build_reference_rig(seed=0)[0])
        load_rig(path)
        tracemalloc.start()
        try:
            rig = load_rig(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= path.stat().st_size + rig.basis.matrix.nbytes + 1_000_000

    def test_header_fields(self, tmp_path):
        rig = small_rig()
        path = tmp_path / "r.lbsrig"
        save_rig(path, rig)
        raw = path.read_bytes()
        assert raw[:4] == b"LBSR"
        version, u, b = struct.unpack_from("<III", raw, 4)
        assert (version, u, b) == (1, 12, 3)


def raw_rig_file(path, neutral, fields, names, mask, groups):
    """Write the .lbsrig layout field by field, so the file can hold what no
    ``LbsRig`` can: the loader, not the writer, is under test."""

    def string(text):
        raw = text.encode("utf-8")
        return struct.pack("<H", len(raw)) + raw

    def indices(idx):
        return struct.pack("<I", len(idx)) + np.asarray(idx, dtype="<u4").tobytes()

    parts = [b"LBSR", struct.pack("<III", 1, neutral.size // 3, len(fields))]
    parts.append(np.asarray(neutral, dtype="<f4").tobytes())
    parts += [np.asarray(d, dtype="<f4").tobytes() for d in fields]
    parts += [string(n) for n in names]
    parts.append(indices(mask))
    for region, idx in groups:
        parts += [string(region), indices(idx)]
    path.write_bytes(b"".join(parts))


class TestRigFileRules:
    """``load_rig`` applies the rig's construction rules to what it reads."""

    @staticmethod
    def parts():
        rig = small_rig()
        groups = [(r, rig.landmark_groups.get(r, [])) for r in REGIONS]
        return {
            "neutral": rig.mesh.positions,
            "fields": list(rig.basis.displacements),
            "names": list(rig.basis.names),
            "mask": rig.mouth_mask,
            "groups": groups,
        }

    def load(self, tmp_path, **parts):
        path = tmp_path / "r.lbsrig"
        raw_rig_file(path, **parts)
        return load_rig(path)

    def test_unedited_parts_load(self, tmp_path):
        rig = self.load(tmp_path, **self.parts())
        assert rig.basis.names == small_rig().basis.names

    def test_out_of_range_landmark_index(self, tmp_path):
        parts = self.parts()
        parts["groups"][REGIONS.index("jaw")] = ("jaw", [7, 12])
        with pytest.raises(ValueError, match="jaw"):
            self.load(tmp_path, **parts)

    def test_out_of_range_mouth_index(self, tmp_path):
        parts = self.parts()
        parts["mask"] = [4, 12]
        with pytest.raises(ValueError, match="mouth mask"):
            self.load(tmp_path, **parts)

    def test_nan_displacement(self, tmp_path):
        parts = self.parts()
        parts["fields"][1] = parts["fields"][1].copy()
        parts["fields"][1][7] = np.nan
        with pytest.raises(ValueError, match="mouthSmileLeft"):
            self.load(tmp_path, **parts)

    def test_duplicated_blendshape_name(self, tmp_path):
        parts = self.parts()
        parts["names"][2] = parts["names"][0]
        with pytest.raises(ValueError, match="duplicate"):
            self.load(tmp_path, **parts)

    def test_unknown_region_name(self, tmp_path):
        parts = self.parts()
        parts["groups"][0] = ("forehead", [0])
        with pytest.raises(ValueError, match="forehead"):
            self.load(tmp_path, **parts)


class TestLogitFile:
    def test_round_trip_and_layout(self, tmp_path):
        rng = np.random.default_rng(3)
        frames = rng.normal(0, 5, (7, 392))
        path = tmp_path / "x.phlg"
        save_logits(path, 49.0, frames)
        raw = path.read_bytes()
        assert raw[:4] == b"PHLG"
        version, rate, classes, count = struct.unpack_from("<IfII", raw, 4)
        assert (version, rate, classes, count) == (1, 49.0, 392, 7)
        rate_back, back = load_logits(path)
        assert rate_back == 49.0
        assert np.array_equal(back, f32(frames))


class TestDenseFile:
    def test_round_trip_and_layout(self, tmp_path):
        rng = np.random.default_rng(4)
        frames = rng.normal(0, 40, (5, 3 * 9))
        path = tmp_path / "d.bin"
        save_dense_frames(path, frames, 60.0)
        raw = path.read_bytes()
        assert raw[:4] == b"DNSF"
        version, v, count, fps = struct.unpack_from("<IIIf", raw, 4)
        assert (version, v, count, fps) == (1, 9, 5, 60.0)
        back, fps_back = load_dense_frames(path)
        assert fps_back == 60.0
        assert np.array_equal(back, f32(frames))

    def test_shape_checked(self, tmp_path):
        with pytest.raises(ValueError, match="3V"):
            save_dense_frames(tmp_path / "d.bin", np.zeros((2, 7)), 25.0)


def parse_obj(path):
    """Minimal independent OBJ reader used as the round-trip oracle."""
    verts, faces = [], []
    for line in path.read_text().splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "v":
            verts.append([float(p) for p in parts[1:4]])
        elif parts[0] == "f":
            faces.append([int(p) - 1 for p in parts[1:4]])
    return np.array(verts), np.array(faces)


class TestObjExport:
    def test_positions_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        mesh = FaceMesh(rng.normal(0, 50, 3 * 20))
        path = tmp_path / "face.obj"
        export_obj(path, mesh)
        verts, faces = parse_obj(path)
        np.testing.assert_allclose(verts, mesh.vertices(), atol=1e-6)
        assert faces.size == 0

    def test_deterministic_bytes(self, tmp_path):
        mesh = FaceMesh(np.array([1.0, 2.5, -3.125]))
        a, b = tmp_path / "a.obj", tmp_path / "b.obj"
        export_obj(a, mesh)
        export_obj(b, mesh)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text() == "v 1.000000 2.500000 -3.125000\n"

    def test_sequence_export_one_file_per_frame(self, tmp_path):
        rig = small_rig()
        seq = MotionSequence(25.0, np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.5]]))
        paths = export_obj_sequence(tmp_path / "anim.obj", seq, rig)
        assert len(paths) == seq.frame_count
        verts, _ = parse_obj(paths[1])
        expected = apply_skinning(rig, seq.frames[1]).vertices()
        np.testing.assert_allclose(verts, expected, atol=1e-6)


# Each format: (file name, writer of a small valid file, loader, header
# bytes, offsets of the magic, version and count fields). A flip inside the
# counted fields changes how many payload bytes the file must hold.
FORMATS = {
    "lbsrig": ("r.lbsrig", lambda p: save_rig(p, small_rig()), load_rig, 12, range(12)),
    "lbsm": (
        "m.lbsm",
        lambda p: save_motion(p, MotionSequence(25.0, np.full((3, 2), 0.5))),
        load_motion,
        20,
        [*range(8), *range(12, 20)],
    ),
    "phlg": (
        "x.phlg",
        lambda p: save_logits(p, 25.0, np.arange(12.0).reshape(3, 4)),
        load_logits,
        20,
        [*range(8), *range(12, 20)],
    ),
    "dnsf": (
        "d.bin",
        lambda p: save_dense_frames(p, np.arange(18.0).reshape(2, 9), 25.0),
        load_dense_frames,
        20,
        range(16),
    ),
    # 164 bytes: the header's five sizes, then 17 f64 weights; no Adam state.
    "mnet": (
        "m.mnet",
        lambda p: save_model(p, init_params(0, 2, 1, 1, 1, 1)),
        load_model,
        28,
        range(28),
    ),
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    files = {}
    for fmt, (name, write, _, _, _) in FORMATS.items():
        write(root / name)
        files[fmt] = (root / name).read_bytes()
    return files


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_every_strict_prefix_raises_value_error(fmt, valid_files, tmp_path):
    name, _, load, _, _ = FORMATS[fmt]
    data = valid_files[fmt]
    path = tmp_path / name
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError):
            load(path)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_every_bit_flip_in_a_counted_header_field_raises(fmt, valid_files, tmp_path):
    name, _, load, _, counted = FORMATS[fmt]
    path = tmp_path / name
    for offset in counted:
        for bit in range(8):
            raw = bytearray(valid_files[fmt])
            raw[offset] ^= 1 << bit
            path.write_bytes(bytes(raw))
            with pytest.raises(ValueError):
                load(path)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flips=st.lists(
    st.tuples(st.integers(0, 19), st.integers(1, 255)), min_size=1, max_size=3,
))
def test_header_byte_flips_raise_only_value_error(fmt, flips, valid_files, tmp_path):
    # A flip confined to the rate field may load; any other must raise, and
    # no flip may raise anything but ValueError.
    name, _, load, header, counted = FORMATS[fmt]
    data = valid_files[fmt]
    raw = bytearray(data)
    for offset, mask in flips:
        raw[offset % header] ^= mask
    touched = {i for i in range(header) if raw[i] != data[i]}
    if not touched:
        return
    path = tmp_path / name
    path.write_bytes(bytes(raw))
    try:
        load(path)
    except ValueError:
        return
    assert not touched & set(counted), f"corrupt header loaded: {bytes(raw[:header])!r}"


# Offset of the f32 rate field in each rate-carrying header.
RATE_OFFSET = {"lbsm": 8, "phlg": 8, "dnsf": 16}


@pytest.mark.parametrize("rate", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize("fmt", sorted(RATE_OFFSET))
def test_bad_rate_field_raises(fmt, rate, valid_files, tmp_path):
    name, _, load, _, _ = FORMATS[fmt]
    raw = bytearray(valid_files[fmt])
    at = RATE_OFFSET[fmt]
    raw[at:at + 4] = struct.pack("<f", rate)
    path = tmp_path / name
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="rate"):
        load(path)


def test_model_with_a_nan_weight_raises_naming_it(tmp_path):
    params = init_params(0, 2, 1, 1, 1, 1)
    params.head2_bias[0] = np.nan
    path = tmp_path / "m.mnet"
    save_model(path, params)
    with pytest.raises(ValueError, match="head2_bias holds NaN or inf"):
        load_model(path)


def test_model_with_an_inf_first_moment_raises_naming_it(tmp_path):
    params = init_params(0, 2, 1, 1, 1, 1)
    adam = AdamState.zeros_like(params)
    adam.first["block0.conv1_weight"][0, 0, 1] = np.inf
    path = tmp_path / "m.mnet"
    save_model(path, params, adam)
    with pytest.raises(
        ValueError, match="first moment of block0.conv1_weight holds NaN or inf"
    ):
        load_model(path)
    # The same moment finite loads, with the Adam state.
    adam.first["block0.conv1_weight"][0, 0, 1] = 0.5
    save_model(path, params, adam)
    assert load_model(path)[1].first["block0.conv1_weight"][0, 0, 1] == 0.5
