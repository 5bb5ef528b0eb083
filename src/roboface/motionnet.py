"""Trainable speech-to-coefficient model and its from-scratch training loop.

The model maps temporal windows of phoneme logits, batch-first (n, K
frames, 392 classes), to blendshape coefficients (n, B): a stack of log2(K)
stride-2 residual conv blocks, each layer one GEMM over the batch, fuses a
window down to a single H-vector, a per-style embedding row is added to
it, and a two-layer head squashes through a Sigmoid into theta in (0,1)^B.
The loss is the (optionally mouth-weighted) squared vertex error of the
face a frozen linear skinning layer decodes from theta. The decoder is
linear, so that error is a quadratic form in the B coefficients,
``(theta - theta*)ᵀ G_w (theta - theta*) + f`` with ``G_w = E W Eᵀ``
(B×B), formed from the rig's ``gram`` and ``mouth_gram``, which projection
shares: training scores and differentiates it without decoding a mesh. A
target given as coefficients is its own ``theta*`` with ``f = 0``; a
target given as vertices is reduced to them by one weighted least-squares
fit per batch, ``f`` being the fit's residual. The centred form measures
the difference directly, so it does not cancel near the optimum as the
expanded Gram identity ``θᵀGθ - 2θᵀb + ‖t‖²`` does (Golub & Van Loan,
*Matrix Computations*, §5.3).

Inference is frame-major and runs a compiled plan (``compile_plan``).
Block 0 is the widest layer (classes in, H out), and each frame enters K
consecutive windows, so its input side is one (4H, classes) matrix,
``ModelPlan.projection``, applied to each frame once (per-step
convolution caching, as in Fast WaveNet, arXiv:1611.09482). The window size fixes the
number of positions every later layer sees, so the plan unrolls each of
them into one dense matrix on time-major activations. ``forward_rows``
builds block 0's outputs as sums of projected rows and runs the rest as
one GEMV per map; the tick feeds it from a ring of projected rows, and
``forward`` projects a whole window's frames one at a time, so both run
the same bytes. Training keeps the batched im2col path, ``_run_forward``:
a shuffled batch shares no frames between its windows, the projection
would cost it all 3 taps at all K positions, twice block 0's work, and
its weights change every step. Its reverse pass forms only the gradients
the step returns: block 0's input gradient, with respect to the logit
windows, is never formed.

Everything runs in float64 numpy with hand-written reverse-mode gradients
so analytic derivatives can be held to finite-difference oracles.
"""

from __future__ import annotations

import math
import struct
from dataclasses import KW_ONLY, dataclass, fields
from pathlib import Path

import numpy as np

from .arkit import CHANNEL_COUNT
from .formats import _Reader, _check_header
from .frontend import CLASS_COUNT, _check_window_size
from .lbs import BlendCoefficients, LbsRig, coordinate_rows
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


def _layout(
    window_size: int,
    hidden_size: int,
    style_count: int,
    output_size: int,
    class_count: int,
) -> list[tuple[tuple[int, ...], int | None]]:
    """(shape, fan-in) of every array in ``named_arrays`` order, the one
    shape rule for drawn and loaded models; the fan-in is None for an array
    that starts at zero. Every size is an integer of at least 1 and the
    window a power of two; ``ValueError`` otherwise."""
    sizes = {"window_size": window_size, "hidden_size": hidden_size,
             "style_count": style_count, "output_size": output_size,
             "class_count": class_count}
    for name, size in sizes.items():
        if not (is_index(size) and size >= 1):
            raise ValueError(f"{name} must be an integer >= 1, got {size!r}")
    _check_window_size(window_size)
    h = hidden_size
    layout = []
    c_in = class_count
    for _ in range(int(np.log2(window_size))):
        layout += [((h, c_in, 3), c_in * 3), ((h,), None), ((h, h, 3), h * 3),
                   ((h,), None), ((h, c_in, 1), c_in)]
        c_in = h
    return layout + [((style_count, h), None), ((2 * h, h), h), ((2 * h,), None),
                     ((output_size, 2 * h), 2 * h), ((output_size,), None)]


def _assemble(arrays: list[np.ndarray]) -> ModelParams:
    """``ModelParams`` from its arrays in ``named_arrays`` order."""
    per_block = len(fields(BlockParams))
    head = len(arrays) - (len(fields(ModelParams)) - 1)
    blocks = [BlockParams(*arrays[i : i + per_block])
              for i in range(0, head, per_block)]
    return ModelParams(blocks, *arrays[head:])


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
    layout = _layout(window_size, hidden_size, style_count, output_size, class_count)
    rng = np.random.default_rng(seed)
    arrays = []
    for shape, fan_in in layout:
        if fan_in is None:
            arrays.append(np.zeros(shape))
        else:
            bound = 1.0 / np.sqrt(fan_in)
            arrays.append(rng.uniform(-bound, bound, shape))
    return _assemble(arrays)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


def _conv1d(x, weight, bias, stride, pad):
    """Training path: x (C_in, n, T) -> (y (C_out, n, T_out), cols
    (C_in·k, n·T_out)); one GEMM for the whole batch, cols kept for the
    backward pass. Inference runs ``compile_plan``'s dense maps instead."""
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


def _conv1d_weight_grads(dy, cols, weight):
    """Weight and bias gradients of _conv1d summed over the batch, for dy
    (C_out, n, T_out) and the forward pass's cols: (dweight, dbias)."""
    dy = dy.reshape(len(weight), -1)
    return (dy @ cols.T).reshape(weight.shape), dy.sum(axis=1)


def _conv1d_input_grad(dy, weight, in_shape, stride, pad):
    """Gradient of _conv1d with respect to its input x, (C_in, n, T)."""
    c_out, c_in, k = weight.shape
    _, n, t = in_shape
    t_out = dy.shape[2]
    dy = dy.reshape(c_out, n * t_out)
    dcols = (weight.reshape(c_out, c_in * k).T @ dy).reshape(c_in, k, n, t_out)
    dxp = np.zeros((c_in, n, t + 2 * pad), dtype=dy.dtype)
    span = stride * (t_out - 1) + 1
    for j in range(k):
        dxp[:, :, j : j + span : stride] += dcols[:, j]
    return dxp[:, :, pad : pad + t] if pad else dxp


def _run_forward(params: ModelParams, windows, style_ids, masks):
    """Training path, batched: windows (n, K, classes), style_ids (n,) and
    masks (n, 2H) or None -> (theta (n, B), tape for reverse mode). Inside,
    features lead: the conv stack runs on (C, n, T), the head on (H, n).
    Inference (the tick, ``forward``) runs ``forward_rows`` on a plan."""
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
        dw2, db2 = _conv1d_weight_grads(dx, cols2, blk.conv2_weight)
        da1 = _conv1d_input_grad(dx, blk.conv2_weight, a1.shape, 1, 1)
        dy1 = da1 * (y1 > 0.0)
        dw1, db1 = _conv1d_weight_grads(dy1, cols1, blk.conv1_weight)
        dws, _ = _conv1d_weight_grads(dx, cols_s, blk.shortcut_weight)
        grads[f"block{i}.conv1_weight"] = dw1
        grads[f"block{i}.conv1_bias"] = db1
        grads[f"block{i}.conv2_weight"] = dw2
        grads[f"block{i}.conv2_bias"] = db2
        grads[f"block{i}.shortcut_weight"] = dws
        if i:  # block 0's input is the logit windows: no gradient is read
            dx = (_conv1d_input_grad(dy1, blk.conv1_weight, x.shape, 2, 1)
                  + _conv1d_input_grad(dx, blk.shortcut_weight, x.shape, 2, 0))
    return grads


def _dropout_masks(params: ModelParams, rate: float, rng, n: int) -> np.ndarray | None:
    """One inverted-dropout mask per sample, (n, 2H), drawn in batch order."""
    if rate <= 0.0:
        return None
    keep = rng.random((n, 2 * params.hidden_size)) >= rate
    return keep / (1.0 - rate)


def _dense_conv(weight, positions: int, stride: int, pad: int) -> np.ndarray:
    """A conv layer over a fixed number of input positions as one dense
    matrix on time-major vectors (flat index t·C + c): row block o, column
    block i holds tap i - o·stride + pad, or zeros."""
    c_out, c_in, k = weight.shape
    out = (positions + 2 * pad - k) // stride + 1
    dense = np.zeros((out, c_out, positions, c_in))
    for o in range(out):
        for j in range(k):
            i = o * stride + j - pad
            if 0 <= i < positions:
                dense[o, :, i] = weight[:, :, j]
    return dense.reshape(out * c_out, positions * c_in)


@dataclass(frozen=True, eq=False)
class ModelPlan:
    """The inference model compiled for its fixed window: every array is a
    copy, so later training steps do not reach it.

    ``projection`` is block 0's input side as one (4H, classes) matrix:
    conv1's taps 0, 1 and 2, then the 1x1 shortcut, stacked by rows.
    ``projection @ frame`` is all that block 0 computes from a frame, so a
    stream projects each frame once, however many windows it enters.

    The window size fixes the number of positions each later layer sees,
    so each of those conv layers is one dense matrix on time-major
    vectors. ``conv2[i]`` is block i's conv2; ``stacked[i]`` belongs to
    block i + 1 and puts its conv1's rows over its shortcut's, so one GEMV
    yields both. Biases are tiled over positions. At K = 8 and H = 64 the
    maps are 256², 256², 128², 128² and 64², 1.35 MB in all.
    """

    projection: np.ndarray  # (4H, classes)
    block0_bias: np.ndarray  # (H,), block 0's conv1 bias
    conv2: tuple  # per block: (matrix, tiled bias)
    stacked: tuple  # per block after the first: (matrix, tiled conv1 bias)
    style_table: np.ndarray
    head1_weight: np.ndarray
    head1_bias: np.ndarray
    head2_weight: np.ndarray
    head2_bias: np.ndarray

    @property
    def window_size(self) -> int:
        return 1 << len(self.conv2)

    @property
    def hidden_size(self) -> int:
        return self.style_table.shape[1]


def compile_plan(params: ModelParams) -> ModelPlan:
    """Unroll ``params`` into the dense per-layer maps of ``ModelPlan``."""
    first = params.blocks[0]
    conv2, stacked = [], []
    positions = params.window_size // 2
    for i, blk in enumerate(params.blocks):
        if i:
            stacked.append((
                np.vstack([_dense_conv(blk.conv1_weight, 2 * positions, 2, 1),
                           _dense_conv(blk.shortcut_weight, 2 * positions, 2, 0)]),
                np.tile(blk.conv1_bias, positions),
            ))
        conv2.append((_dense_conv(blk.conv2_weight, positions, 1, 1),
                      np.tile(blk.conv2_bias, positions)))
        positions //= 2
    return ModelPlan(
        projection=np.vstack([*first.conv1_weight.transpose(2, 0, 1),
                              first.shortcut_weight[:, :, 0]]),
        block0_bias=first.conv1_bias.copy(),
        conv2=tuple(conv2),
        stacked=tuple(stacked),
        style_table=params.style_table.copy(),
        head1_weight=params.head1_weight.copy(),
        head1_bias=params.head1_bias.copy(),
        head2_weight=params.head2_weight.copy(),
        head2_bias=params.head2_bias.copy(),
    )


def forward_rows(plan: ModelPlan, rows, style_id: int) -> np.ndarray:
    """Inference kernel: theta (B,) of one window given as its frames'
    projections, rows (K, 4H) with row t = ``plan.projection @ frame t``.

    Block 0's output o sums conv1 tap 0 of row 2o - 1 (conv1's zero pad
    for o = 0), tap 1 of row 2o and tap 2 of row 2o + 1; its shortcut is
    row 2o's. Every later layer is one GEMV on the time-major activations,
    with biases, ReLU, the residual add and the sigmoid applied in place
    in ``_run_forward``'s order: ``(W·x + b) + shortcut``. ``style_id``
    is not range-checked here: a negative one would index from the end,
    so callers check it once.
    """
    h = plan.hidden_size
    y = rows[0::2, h : 2 * h] + rows[1::2, 2 * h : 3 * h]
    y[1:] += rows[1:-2:2, :h]
    y += plan.block0_bias
    np.maximum(y, 0.0, out=y)
    matrix, bias = plan.conv2[0]
    x = matrix @ y.ravel()
    x += bias
    x.reshape(-1, h)[...] += rows[0::2, 3 * h :]
    for (joint, bias1), (matrix, bias2) in zip(plan.stacked, plan.conv2[1:]):
        z = joint @ x
        half = len(z) // 2
        a = z[:half]
        a += bias1
        np.maximum(a, 0.0, out=a)
        x = matrix @ a
        x += bias2
        x += z[half:]
    x += plan.style_table[style_id]
    a = plan.head1_weight @ x
    a += plan.head1_bias
    np.maximum(a, 0.0, out=a)
    z = plan.head2_weight @ a
    z += plan.head2_bias
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


def forward(params: ModelParams, window, style_id: int) -> BlendCoefficients:
    """Window of logits (K, classes) -> coefficients; a pure function of
    its inputs. It compiles the plan on every call (about 1.5 ms, most
    of a call's time), then projects each frame on its own, as the tick
    projects a streamed frame, and ``forward_rows`` runs the rest; a
    caller with many windows compiles one plan and calls ``forward_rows``.

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
    plan = compile_plan(params)
    rows = np.array([plan.projection @ frame for frame in w])
    return BlendCoefficients(forward_rows(plan, rows, style_id))


def human_decode(rig: LbsRig, theta) -> np.ndarray:
    """Frozen linear decoder: coefficients -> absolute vertex positions.

    Matrix form of the skinning sum: the fixed affine output layer whose
    vertex error training scores (in coefficient space, without calling
    it). ``theta`` is one pose (B,) or a stack of poses (T, B), which
    decodes as one matrix-matrix product to (T, 3V).
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
    weight[coordinate_rows(mask)] += mouth_weight
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
    """One supervised pair: logit window + style -> target face.

    The target is given once, either as blendshape coefficients
    ``target_coefficients`` (B,), the form ``build_samples`` makes, or as
    vertex positions ``target_vertices`` (3·V,), which need not lie in the
    rig's span; a sample holding both or neither raises ``ValueError``.
    Both forms are scored as the same vertex loss (``_batch_losses``).
    """

    window: np.ndarray
    style_id: int
    target_vertices: np.ndarray | None = None
    _: KW_ONLY
    target_coefficients: np.ndarray | None = None

    def __post_init__(self):
        if (self.target_vertices is None) == (self.target_coefficients is None):
            raise ValueError(
                "a training sample holds exactly one of target_vertices and "
                "target_coefficients"
            )
        name = "target_vertices" if self.target_coefficients is None else "target_coefficients"
        window = np.asarray(self.window, dtype=np.float64)
        target = np.asarray(getattr(self, name), dtype=np.float64)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, name, target)
        if not is_index(self.style_id):
            raise ValueError(f"style_id must be a nonnegative integer, got {self.style_id!r}")
        if window.ndim != 2 or target.ndim != 1:
            raise ValueError(f"window must be 2-D and {name} 1-D")
        if not (np.isfinite(window).all() and np.isfinite(target).all()):
            raise ValueError("training sample holds NaN or inf")


def _batch_targets(rig, samples, mouth_weight, gram_w):
    """Each sample's target as coefficients: (theta* (n, B), f (n,)), so
    that its loss is ``(theta - theta*)ᵀ G_w (theta - theta*) + f``.

    A coefficient target is its own theta* with f = 0. The vertex targets
    are reduced together, by one weighted least-squares fit: theta* solves
    the normal equations ``G_w theta* = E W (t - neutral)`` (any solution
    serves, so a singular G_w does too), and f is the weighted norm of the
    fit's residual, formed from the residual itself. Each target's shape is
    checked before any arithmetic."""
    blend = rig.blendshape_count
    size = rig.mesh.positions.size
    target = np.empty((len(samples), blend))
    floor = np.zeros(len(samples))
    fitted = []
    for i, sample in enumerate(samples):
        vertices = sample.target_coefficients is None
        given = sample.target_vertices if vertices else sample.target_coefficients
        expected = (size,) if vertices else (blend,)
        if given.shape != expected:
            raise ValueError(f"prediction has shape {expected}, target {given.shape}")
        if vertices:
            fitted.append(i)
        else:
            target[i] = given
    if fitted:
        basis = rig.basis.matrix
        offsets = np.stack([samples[i].target_vertices for i in fitted])
        offsets -= rig.mesh.positions
        weight = _coordinate_weights(rig.mouth_mask, mouth_weight, size)
        rhs = (offsets * weight) @ basis.T
        fit = np.linalg.lstsq(gram_w, rhs.T, rcond=None)[0].T
        residual = fit @ basis
        residual -= offsets
        floor[fitted] = np.einsum("ij,ij->i", residual, residual * weight)
        target[fitted] = fit
    return target, floor


def _batch_losses(params, rig, samples, mouth_weight, masks):
    """Score a batch in coefficient space: returns (losses (n,), half the
    loss gradient ``(theta - theta*) @ G_w`` (n, B), tape).

    ``G_w = rig.gram + mouth_weight·rig.mouth_gram``, the rig's two Grams,
    so no mesh is decoded; ``_batch_gradients`` doubles the second output."""
    gram_w = rig.gram + mouth_weight * rig.mouth_gram
    target, floor = _batch_targets(rig, samples, mouth_weight, gram_w)
    windows = np.stack([s.window for s in samples])
    theta, tape = _run_forward(params, windows, [s.style_id for s in samples], masks)
    diff = theta - target  # theta is on the tape: not in place
    half_grad = diff @ gram_w
    losses = np.einsum("ij,ij->i", diff, half_grad)
    losses += floor
    return losses, half_grad, tape


def _batch_gradients(params, rig, samples, mouth_weight, masks):
    """Gradients summed over the batch, and one loss per sample. The loss's
    gradient with respect to theta is ``2·(theta - theta*) @ G_w``: the
    frozen decoder enters only through its Gram."""
    losses, dtheta, tape = _batch_losses(params, rig, samples, mouth_weight, masks)
    dtheta *= 2.0
    return _run_backward(params, tape, dtheta), losses


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

    The frozen decoder enters the chain only through its Gram; no
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
    """One AdamW update of every array in place. Each elementwise operation
    writes into two scratch rows sized to the largest array, in the order
    of ``array -= lr·((m/c1) / (sqrt(v/c2) + eps) + wd·array)``, so no
    per-array temporary is allocated and the bits are those of that
    expression."""
    state.step += 1
    t = state.step
    correct1 = 1.0 - _BETA1 ** t
    correct2 = 1.0 - _BETA2 ** t
    arrays = named_arrays(params)
    scratch = np.empty((2, max(array.size for _, array in arrays)))
    for name, array in arrays:
        g = grads[name]
        m = state.first[name]
        v = state.second[name]
        a = scratch[0, : array.size].reshape(array.shape)
        b = scratch[1, : array.size].reshape(array.shape)
        m *= _BETA1
        np.multiply(g, 1.0 - _BETA1, out=a)
        m += a
        v *= _BETA2
        np.multiply(g, g, out=a)
        a *= 1.0 - _BETA2
        v += a
        np.divide(v, correct2, out=a)
        np.sqrt(a, out=a)
        a += _ADAM_EPS
        np.divide(m, correct1, out=b)
        b /= a  # the update
        np.multiply(array, config.weight_decay, out=a)
        a += b
        a *= config.learning_rate
        array -= a


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
    windows, scored in coefficient space by ``_batch_losses``: no mesh is
    decoded for a coefficient target. Per epoch the seed's
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
    """Read a ``save_model`` checkpoint. ``ValueError`` for a truncated or
    corrupt file, and naming the array for a weight or Adam moment that
    holds NaN or inf."""
    r = _Reader(Path(path).read_bytes(), "model")
    _check_header(r, b"MNET")
    # Window, hidden, style, output and class counts: init_params' order.
    shapes = [shape for shape, _ in _layout(*(r.u32() for _ in range(5)))]
    # The header fixes the weights' size; a short file is refused before
    # anything of that size is allocated.
    if 8 * sum(math.prod(shape) for shape in shapes) > r.remaining():
        raise ValueError("truncated model file")

    def arrays():
        return [r.f64_array(math.prod(shape)).reshape(shape) for shape in shapes]

    params = _assemble(arrays())
    names = [name for name, _ in named_arrays(params)]
    _check_finite("", named_arrays(params))
    state = None
    if r.remaining() >= 4 and r.peek(4) == b"ADAM":
        r.take(4)
        step = r.u32()
        first = dict(zip(names, arrays()))
        second = dict(zip(names, arrays()))
        _check_finite("first moment of ", first.items())
        _check_finite("second moment of ", second.items())
        state = AdamState(step, first, second)
    r.finish()
    return params, state


def _check_finite(prefix: str, named) -> None:
    """``ValueError`` naming the first of the (name, array) pairs that holds
    NaN or inf: a checkpoint that trains or drives nothing but NaN."""
    for name, array in named:
        if not np.isfinite(array).all():
            raise ValueError(f"model file: {prefix}{name} holds NaN or inf")

