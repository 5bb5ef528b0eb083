"""Trainable speech-to-coefficient model and its from-scratch training loop.

The model maps temporal windows of phoneme logits, batch-first (n, K
frames, 392 classes), to blendshape coefficients (n, B): a stack of log2(K)
stride-2 residual conv blocks, each layer one GEMM over the batch, fuses a
window down to a single H-vector, a per-style embedding row is added to
it, and a two-layer head squashes through a Sigmoid into theta in (0,1)^B.
Targets are vertex positions decoded by a frozen linear skinning layer,
one (n, B) @ (B, 3·V) product per batch, so the loss is a plain
(optionally mouth-weighted) squared vertex error.

Inference is frame-major. Block 0 is the widest layer (classes in, H
out), and each frame enters K consecutive windows, so its input side is
one (4H, classes) matrix, ``frame_projection``, applied to each frame once
(per-step convolution caching, as in Fast WaveNet, arXiv:1611.09482).
``forward_rows`` builds block 0's outputs as sums of projected rows and
runs the rest of the stack on a batch of one; the tick feeds it from a
ring of projected rows, and ``forward`` projects a whole window's frames
one at a time, so both run the same bytes. Training keeps the batched
im2col path, ``_run_forward``: a shuffled batch shares no frames between
its windows, and the projection would cost it all 3 taps at all K
positions, twice block 0's work.

Everything runs in float64 numpy with hand-written reverse-mode gradients
so analytic derivatives can be held to finite-difference oracles.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .arkit import CHANNEL_COUNT
from .formats import _Reader, _check_header
from .frontend import CLASS_COUNT, _check_window_size
from .lbs import BlendCoefficients, LbsRig
from .util import is_index, is_real

_FORMAT_VERSION = 1
_BETA1 = 0.9
_BETA2 = 0.99
_ADAM_EPS = 1e-8


@dataclass
class BlockParams:
    """One stride-2 residual fusion block.

    conv(k3, s2) -> bias -> ReLU -> conv(k3, s1, same) -> bias, plus a
    1x1 stride-2 shortcut projection added to the result.
    """

    conv1_weight: np.ndarray  # (C_out, C_in, 3)
    conv1_bias: np.ndarray  # (C_out,)
    conv2_weight: np.ndarray  # (C_out, C_out, 3)
    conv2_bias: np.ndarray  # (C_out,)
    shortcut_weight: np.ndarray  # (C_out, C_in, 1)


@dataclass
class ModelParams:
    """All trainable weights; shapes fix (K, H, N, B, class count)."""

    blocks: list[BlockParams]
    style_table: np.ndarray  # (N, H)
    head1_weight: np.ndarray  # (2H, H)
    head1_bias: np.ndarray  # (2H,)
    head2_weight: np.ndarray  # (B, 2H)
    head2_bias: np.ndarray  # (B,)

    @property
    def window_size(self) -> int:
        return 1 << len(self.blocks)

    @property
    def hidden_size(self) -> int:
        return self.style_table.shape[1]

    @property
    def style_count(self) -> int:
        return self.style_table.shape[0]

    @property
    def output_size(self) -> int:
        return self.head2_bias.shape[0]

    @property
    def class_count(self) -> int:
        return self.blocks[0].conv1_weight.shape[1]


def named_arrays(params: ModelParams) -> list[tuple[str, np.ndarray]]:
    """(name, array) pairs in the fixed declaration order used everywhere:
    checkpoints, gradients, and optimizer state all follow this layout."""
    out = [
        (f"block{i}.{f.name}", getattr(blk, f.name))
        for i, blk in enumerate(params.blocks)
        for f in fields(BlockParams)
    ]
    return out + [(f.name, getattr(params, f.name)) for f in fields(ModelParams)[1:]]


def init_params(
    seed: int,
    window_size: int = 8,
    hidden_size: int = 64,
    style_count: int = 10,
    output_size: int = CHANNEL_COUNT,
    class_count: int = CLASS_COUNT,
) -> ModelParams:
    """Fan-in-scaled uniform weights, zero biases, zero style table. Every
    size is an integer of at least 1; ``ValueError`` otherwise."""
    sizes = {"window_size": window_size, "hidden_size": hidden_size,
             "style_count": style_count, "output_size": output_size,
             "class_count": class_count}
    for name, size in sizes.items():
        if not (is_index(size) and size >= 1):
            raise ValueError(f"{name} must be an integer >= 1, got {size!r}")
    _check_window_size(window_size)
    rng = np.random.default_rng(seed)

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, shape)

    blocks = []
    c_in = class_count
    for _ in range(int(np.log2(window_size))):
        blocks.append(
            BlockParams(
                conv1_weight=uniform((hidden_size, c_in, 3), c_in * 3),
                conv1_bias=np.zeros(hidden_size),
                conv2_weight=uniform((hidden_size, hidden_size, 3), hidden_size * 3),
                conv2_bias=np.zeros(hidden_size),
                shortcut_weight=uniform((hidden_size, c_in, 1), c_in),
            )
        )
        c_in = hidden_size
    return ModelParams(
        blocks=blocks,
        style_table=np.zeros((style_count, hidden_size)),
        head1_weight=uniform((2 * hidden_size, hidden_size), hidden_size),
        head1_bias=np.zeros(2 * hidden_size),
        head2_weight=uniform((output_size, 2 * hidden_size), 2 * hidden_size),
        head2_bias=np.zeros(output_size),
    )


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


def _conv1d(x, weight, bias, stride, pad):
    """x (C_in, n, T) -> (y (C_out, n, T_out), cols (C_in·k, n·T_out)); one
    GEMM for the whole batch, cols kept for the backward pass."""
    c_in, n, t = x.shape
    c_out, _, k = weight.shape
    if pad:
        xp = np.zeros((c_in, n, t + 2 * pad), dtype=x.dtype)
        xp[:, :, pad : pad + t] = x
    else:
        xp = x
    t_out = (xp.shape[2] - k) // stride + 1
    span = stride * (t_out - 1) + 1
    cols = np.empty((c_in, k, n, t_out), dtype=x.dtype)
    for j in range(k):
        cols[:, j] = xp[:, :, j : j + span : stride]
    cols = cols.reshape(c_in * k, n * t_out)
    y = weight.reshape(c_out, c_in * k) @ cols
    if bias is not None:
        y = y + bias[:, None]
    return y.reshape(c_out, n, t_out), cols


def _conv1d_backward(dy, cols, weight, in_shape, stride, pad):
    """Gradients of _conv1d summed over the batch: (dweight, dbias, dx)."""
    c_out, c_in, k = weight.shape
    _, n, t = in_shape
    t_out = dy.shape[2]
    dy = dy.reshape(c_out, n * t_out)
    dweight = (dy @ cols.T).reshape(c_out, c_in, k)
    dbias = dy.sum(axis=1)
    dcols = (weight.reshape(c_out, c_in * k).T @ dy).reshape(c_in, k, n, t_out)
    dxp = np.zeros((c_in, n, t + 2 * pad), dtype=dy.dtype)
    span = stride * (t_out - 1) + 1
    for j in range(k):
        dxp[:, :, j : j + span : stride] += dcols[:, j]
    return dweight, dbias, dxp[:, :, pad : pad + t] if pad else dxp


def _run_forward(params: ModelParams, windows, style_ids, masks):
    """Batched forward pass: windows (n, K, classes), style_ids (n,) and
    masks (n, 2H) or None -> (theta (n, B), tape for reverse mode). Inside,
    features lead: the conv stack runs on (C, n, T), the head on (H, n)."""
    w = np.asarray(windows, dtype=np.float64)
    if w.shape[1:] != (params.window_size, params.class_count):
        raise ValueError(
            f"window has shape {w.shape[1:]}, model expects "
            f"({params.window_size}, {params.class_count})"
        )
    if min(style_ids) < 0 or max(style_ids) >= params.style_count:
        raise ValueError(
            f"style_id {min(style_ids)}..{max(style_ids)} out of range "
            f"for {params.style_count} styles"
        )
    style_ids = np.asarray(style_ids, dtype=np.int64)
    x = np.ascontiguousarray(w.transpose(2, 0, 1))
    taped_blocks = []
    for blk in params.blocks:
        y1, cols1 = _conv1d(x, blk.conv1_weight, blk.conv1_bias, stride=2, pad=1)
        a1 = np.maximum(y1, 0.0)
        y2, cols2 = _conv1d(a1, blk.conv2_weight, blk.conv2_bias, stride=1, pad=1)
        shortcut, cols_s = _conv1d(x, blk.shortcut_weight, None, stride=2, pad=0)
        taped_blocks.append((x, cols1, y1, a1, cols2, cols_s))
        x = y2 + shortcut
    fused = x[:, :, 0] + params.style_table[style_ids].T
    z1 = params.head1_weight @ fused + params.head1_bias[:, None]
    a = np.maximum(z1, 0.0)
    dropped = a if masks is None else a * masks.T
    z2 = params.head2_weight @ dropped + params.head2_bias[:, None]
    theta = 1.0 / (1.0 + np.exp(-z2))
    tape = (taped_blocks, fused, z1, dropped, theta, style_ids, masks)
    return theta.T, tape


def _run_backward(params: ModelParams, tape, dtheta) -> dict[str, np.ndarray]:
    """Gradients summed over the batch for dtheta (n, B)."""
    taped_blocks, fused, z1, dropped, theta, style_ids, masks = tape
    grads: dict[str, np.ndarray] = {}

    dz2 = dtheta.T * theta * (1.0 - theta)
    grads["head2_weight"] = dz2 @ dropped.T
    grads["head2_bias"] = dz2.sum(axis=1)
    da = params.head2_weight.T @ dz2
    if masks is not None:
        da = da * masks.T
    dz1 = da * (z1 > 0.0)
    grads["head1_weight"] = dz1 @ fused.T
    grads["head1_bias"] = dz1.sum(axis=1)
    dh = params.head1_weight.T @ dz1

    dstyle = np.zeros_like(params.style_table)
    np.add.at(dstyle, style_ids, dh.T)
    grads["style_table"] = dstyle

    dx = dh[:, :, None]
    for i in range(len(params.blocks) - 1, -1, -1):
        blk = params.blocks[i]
        x, cols1, y1, a1, cols2, cols_s = taped_blocks[i]
        dw2, db2, da1 = _conv1d_backward(dx, cols2, blk.conv2_weight, a1.shape, 1, 1)
        dy1 = da1 * (y1 > 0.0)
        dw1, db1, dx_main = _conv1d_backward(dy1, cols1, blk.conv1_weight, x.shape, 2, 1)
        dws, _, dx_side = _conv1d_backward(dx, cols_s, blk.shortcut_weight, x.shape, 2, 0)
        grads[f"block{i}.conv1_weight"] = dw1
        grads[f"block{i}.conv1_bias"] = db1
        grads[f"block{i}.conv2_weight"] = dw2
        grads[f"block{i}.conv2_bias"] = db2
        grads[f"block{i}.shortcut_weight"] = dws
        dx = dx_main + dx_side
    return grads


def _dropout_masks(params: ModelParams, rate: float, rng, n: int) -> np.ndarray | None:
    """One inverted-dropout mask per sample, (n, 2H), drawn in batch order."""
    if rate <= 0.0:
        return None
    keep = rng.random((n, 2 * params.hidden_size)) >= rate
    return keep / (1.0 - rate)


def frame_projection(params: ModelParams) -> np.ndarray:
    """Block 0's input side as one (4H, classes) matrix: conv1's taps 0, 1
    and 2, then the 1x1 shortcut, stacked by rows. ``P @ frame`` is all
    that block 0 computes from a frame, so a stream projects each frame
    once, however many windows it enters. A copy: later training steps
    do not reach it."""
    blk = params.blocks[0]
    return np.vstack([*blk.conv1_weight.transpose(2, 0, 1), blk.shortcut_weight[:, :, 0]])


def forward_rows(params: ModelParams, rows, style_id: int) -> np.ndarray:
    """Inference kernel: theta (B,) of one window given as its frames'
    projections, rows (K, 4H) with row t = ``frame_projection(params) @
    frame t``.

    Block 0's output o sums conv1 tap 0 of row 2o - 1 (conv1's zero pad
    for o = 0), tap 1 of row 2o and tap 2 of row 2o + 1; its shortcut is
    row 2o's. The layers after that run ``_conv1d`` on a batch of one, as
    ``_run_forward`` does. ``style_id`` is not range-checked here: a
    negative one would index from the end, so callers check it once.
    """
    h = params.hidden_size
    blk = params.blocks[0]
    y1 = rows[0::2, h : 2 * h] + rows[1::2, 2 * h : 3 * h]
    y1[1:] += rows[1:-2:2, :h]
    y1 += blk.conv1_bias
    a1 = np.maximum(y1, 0.0).T[:, None, :]
    y2, _ = _conv1d(a1, blk.conv2_weight, blk.conv2_bias, stride=1, pad=1)
    x = y2 + rows[0::2, 3 * h :].T[:, None, :]
    for blk in params.blocks[1:]:
        y1, _ = _conv1d(x, blk.conv1_weight, blk.conv1_bias, stride=2, pad=1)
        y2, _ = _conv1d(np.maximum(y1, 0.0), blk.conv2_weight, blk.conv2_bias, stride=1, pad=1)
        shortcut, _ = _conv1d(x, blk.shortcut_weight, None, stride=2, pad=0)
        x = y2 + shortcut
    fused = x[:, 0, 0] + params.style_table[style_id]
    a = np.maximum(params.head1_weight @ fused + params.head1_bias, 0.0)
    z2 = params.head2_weight @ a + params.head2_bias
    return 1.0 / (1.0 + np.exp(-z2))


def forward(params: ModelParams, window, style_id: int) -> BlendCoefficients:
    """Window of logits (K, classes) -> coefficients; a pure function of
    its inputs. Each frame is projected on its own, as the tick projects
    a streamed frame, and ``forward_rows`` runs the rest.

    Dropout exists only in training (``train``, ``training_loss``,
    ``backward``), which draws its own masks.
    """
    w = np.asarray(window, dtype=np.float64)
    if w.shape != (params.window_size, params.class_count):
        raise ValueError(
            f"window has shape {w.shape}, model expects "
            f"({params.window_size}, {params.class_count})"
        )
    if not is_index(style_id, params.style_count):
        raise ValueError(f"style_id {style_id!r} out of range for {params.style_count} styles")
    projection = frame_projection(params)
    rows = np.array([projection @ frame for frame in w])
    return BlendCoefficients(forward_rows(params, rows, style_id))


def human_decode(rig: LbsRig, theta) -> np.ndarray:
    """Frozen linear decoder: coefficients -> absolute vertex positions.

    Matrix form of the skinning sum, so training can treat the human rig
    as a fixed affine output layer. ``theta`` is one pose (B,) or a stack
    of poses (T, B), which decodes as one matrix-matrix product to (T, 3V).
    """
    vals = theta.values if isinstance(theta, BlendCoefficients) else np.asarray(theta)
    if vals.ndim not in (1, 2) or vals.shape[-1] != rig.blendshape_count:
        raise ValueError(
            f"coefficients have shape {vals.shape}, rig has "
            f"{rig.blendshape_count} blendshapes"
        )
    out = vals @ rig.basis.matrix
    out += rig.mesh.positions
    return out


def _coordinate_weights(mouth_mask, mouth_weight: float, size: int) -> np.ndarray:
    """Loss weight of each of the (3·V,) coordinates: 1, or 1 + mouth_weight
    on the mouth vertices."""
    mask = np.asarray(mouth_mask, dtype=np.int64)
    if mask.size and (mask.min() < 0 or mask.max() >= size // 3):
        raise ValueError("mouth mask indexes vertices outside the prediction")
    weight = np.ones(size)
    weight[(3 * mask[:, None] + np.arange(3)[None, :]).ravel()] += mouth_weight
    return weight


def loss(pred_vertices, target_vertices, mouth_mask, mouth_weight: float) -> float:
    """Squared vertex error plus the weighted mouth term."""
    pred = np.asarray(pred_vertices, dtype=np.float64)
    target = np.asarray(target_vertices, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"prediction has shape {pred.shape}, target {target.shape}")
    diff = pred - target
    weight = _coordinate_weights(mouth_mask, mouth_weight, diff.size)
    return float(diff @ (diff * weight))


@dataclass(frozen=True)
class TrainingSample:
    """One supervised pair: logit window + style -> target vertex frame."""

    window: np.ndarray
    style_id: int
    target_vertices: np.ndarray

    def __post_init__(self):
        window = np.asarray(self.window, dtype=np.float64)
        target = np.asarray(self.target_vertices, dtype=np.float64)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "target_vertices", target)
        if self.style_id < 0:
            raise ValueError("style_id must be nonnegative")
        if window.ndim != 2 or target.ndim != 1:
            raise ValueError("window must be 2-D and target_vertices 1-D")
        if not (np.isfinite(window).all() and np.isfinite(target).all()):
            raise ValueError("training sample holds NaN or inf")


def _batch_losses(params, rig, samples, mouth_weight, masks):
    """Decode a batch and score it: returns (losses (n,), dpred (n, 3·V),
    tape). The decode is one ``human_decode`` GEMM."""
    windows = np.stack([s.window for s in samples])
    targets = np.stack([s.target_vertices for s in samples])
    theta, tape = _run_forward(params, windows, [s.style_id for s in samples], masks)
    diff = human_decode(rig, theta)  # then in place: new (n, 3·V) arrays page-fault
    if targets.shape != diff.shape:
        raise ValueError(f"prediction has shape {diff.shape}, target {targets.shape}")
    diff -= targets
    weighted = diff * _coordinate_weights(rig.mouth_mask, mouth_weight, diff.shape[1])
    losses = np.einsum("ij,ij->i", diff, weighted)
    weighted *= 2.0
    return losses, weighted, tape


def _batch_gradients(params, rig, samples, mouth_weight, masks):
    """Gradients summed over the batch, and one loss per sample.

    The frozen decoder contributes only its transpose: dtheta = dpred @ Eᵀ.
    """
    losses, dpred, tape = _batch_losses(params, rig, samples, mouth_weight, masks)
    return _run_backward(params, tape, dpred @ rig.basis.matrix.T), losses


def training_loss(
    params: ModelParams,
    rig: LbsRig,
    sample: TrainingSample,
    mouth_weight: float,
    dropout_rate: float = 0.0,
    seed: int | None = None,
) -> float:
    """Loss of one sample; with dropout, the mask is derived from ``seed``
    so the value pairs deterministically with ``backward``."""
    masks = _dropout_masks(params, dropout_rate, np.random.default_rng(seed), 1)
    losses, _, _ = _batch_losses(params, rig, [sample], mouth_weight, masks)
    return float(losses[0])


def backward(
    params: ModelParams,
    rig: LbsRig,
    sample: TrainingSample,
    mouth_weight: float,
    dropout_rate: float = 0.0,
    seed: int | None = None,
) -> dict[str, np.ndarray]:
    """Analytic gradients of the sample loss for every trainable array.

    The frozen decoder contributes only its transpose to the chain; no
    gradient entry exists for it.
    """
    masks = _dropout_masks(params, dropout_rate, np.random.default_rng(seed), 1)
    grads, _ = _batch_gradients(params, rig, [sample], mouth_weight, masks)
    return grads


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    weight_decay: float = 1e-4
    epochs: int = 200
    batch_size: int = 16
    dropout_rate: float = 0.1
    mouth_weight: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not (is_real(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        for name in ("weight_decay", "mouth_weight"):
            value = getattr(self, name)
            if not (is_real(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if not (is_real(self.dropout_rate) and 0.0 <= self.dropout_rate < 1.0):
            raise ValueError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate!r}")
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            if not (is_index(value) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if not is_index(self.seed):
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")


@dataclass
class AdamState:
    """First/second moment accumulators, keyed like named_arrays."""

    step: int
    first: dict[str, np.ndarray]
    second: dict[str, np.ndarray]

    @classmethod
    def zeros_like(cls, params: ModelParams) -> "AdamState":
        return cls(
            step=0,
            first={n: np.zeros_like(a) for n, a in named_arrays(params)},
            second={n: np.zeros_like(a) for n, a in named_arrays(params)},
        )


@dataclass(frozen=True)
class TrainHistory:
    train_loss: np.ndarray
    val_loss: np.ndarray | None = None


def _adam_step(params, grads, state, config):
    state.step += 1
    t = state.step
    correct1 = 1.0 - _BETA1 ** t
    correct2 = 1.0 - _BETA2 ** t
    for name, array in named_arrays(params):
        g = grads[name]
        m = state.first[name]
        v = state.second[name]
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * (g * g)
        update = (m / correct1) / (np.sqrt(v / correct2) + _ADAM_EPS)
        array -= config.learning_rate * (update + config.weight_decay * array)


def train(
    params: ModelParams,
    rig: LbsRig,
    dataset,
    config: TrainConfig,
    validation=(),
    adam_state: AdamState | None = None,
) -> tuple[ModelParams, TrainHistory]:
    """AdamW over shuffled mini-batches; mutates and returns ``params``.

    Each mini-batch is one forward/backward pass on (n, K, classes)
    windows, decoded by one (n, B) @ (B, 3·V) product. Per epoch the seed's
    stream draws the permutation, then one dropout mask per sample in batch
    order, so a fixed seed reproduces the loss history bitwise for a fixed
    BLAS thread count.
    """
    dataset = list(dataset)
    if not dataset:
        raise ValueError("dataset is empty")
    validation = list(validation)
    rng = np.random.default_rng(config.seed)
    state = adam_state if adam_state is not None else AdamState.zeros_like(params)
    train_hist = np.zeros(config.epochs)
    val_hist = np.zeros(config.epochs) if validation else None
    for epoch in range(config.epochs):
        order = rng.permutation(len(dataset))
        epoch_loss = 0.0
        for start in range(0, len(dataset), config.batch_size):
            batch = [dataset[i] for i in order[start : start + config.batch_size]]
            masks = _dropout_masks(params, config.dropout_rate, rng, len(batch))
            grads, losses = _batch_gradients(
                params, rig, batch, config.mouth_weight, masks
            )
            epoch_loss += losses.sum()
            for g in grads.values():
                g /= len(batch)
            _adam_step(params, grads, state, config)
        train_hist[epoch] = epoch_loss / len(dataset)
        if validation:  # dropout-free, scored in chunks of batch_size
            val_loss = 0.0
            for start in range(0, len(validation), config.batch_size):
                chunk = validation[start : start + config.batch_size]
                scored = _batch_losses(params, rig, chunk, config.mouth_weight, None)
                val_loss += scored[0].sum()
            val_hist[epoch] = val_loss / len(validation)
    return params, TrainHistory(train_hist, val_hist)


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------


def save_model(path, params: ModelParams, adam_state: AdamState | None = None) -> None:
    """Binary checkpoint: "MNET", version, dims, f64 blobs in declared
    order, then an optional "ADAM" section with the moment blobs."""
    parts = [
        b"MNET",
        struct.pack(
            "<6I",
            _FORMAT_VERSION,
            params.window_size,
            params.hidden_size,
            params.style_count,
            params.output_size,
            params.class_count,
        ),
    ]
    for _, array in named_arrays(params):
        parts.append(np.ascontiguousarray(array, dtype="<f8").tobytes())
    if adam_state is not None:
        parts.append(b"ADAM")
        parts.append(struct.pack("<I", adam_state.step))
        for moments in (adam_state.first, adam_state.second):
            for name, _ in named_arrays(params):
                parts.append(np.ascontiguousarray(moments[name], dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_model(path) -> tuple[ModelParams, AdamState | None]:
    r = _Reader(Path(path).read_bytes(), "model file")
    _check_header(r, b"MNET")
    # Window, hidden, style, output and class counts: init_params' order.
    params = init_params(0, *(r.u32() for _ in range(5)))
    for _, array in named_arrays(params):
        array[...] = r.f64_array(array.size).reshape(array.shape)
    state = None
    if r.remaining() >= 4 and r.peek(4) == b"ADAM":
        r.take(4)
        state = AdamState.zeros_like(params)
        state.step = r.u32()
        for moments in (state.first, state.second):
            for name, array in named_arrays(params):
                moments[name][...] = r.f64_array(array.size).reshape(array.shape)
    return params, state

