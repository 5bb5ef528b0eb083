"""Command-line surface: one subcommand per pipeline stage.

Pipeline-shaped commands (train, synth, bench) optionally read their
settings from a JSON config file; explicit flags override file values.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import inspect
import json
import sys
import wave
from pathlib import Path

import numpy as np

from .formats import (
    export_obj,
    export_obj_sequence,
    load_dense_frames,
    load_logits,
    load_motion,
    load_rig,
    save_logits,
    save_motion,
    save_rig,
)
from .frontend import PhonemeLogitStream, resample, stub_extractor
from .lbs import apply_skinning
from .motionnet import (
    AdamState,
    TrainConfig,
    init_params,
    load_model,
    save_model,
)
from .pipeline import FileSink, PipelineConfig, bench, run_pipeline
from .retarget import project_sequence
from .rigsim import build_reference_rig, evaluate_tracking, load_config, save_config
from .smoothing import FilterSpec, design, filter_sequence, group_delay_frames
from .synthdata import check_dataset_settings, load_dataset, write_dataset
from .util import check_count, is_index, is_real


def _config_values(args, keys: tuple[str, ...]) -> dict:
    """Merge the JSON config file (if any) with explicit flags; flags win.

    argparse leaves unset flags at None, so a None simply defers to the
    file value or the downstream default. ``ValueError`` for a file that
    is not a JSON object or names a key outside ``keys``.
    """
    values: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        loaded = json.loads(Path(config_path).read_text())
        if not isinstance(loaded, dict):
            raise ValueError(
                f"config file must hold a JSON object, got {type(loaded).__name__}"
            )
        unknown = set(loaded) - set(keys)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        values.update(loaded)
    for key in keys:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return values


def _pipeline_config(args) -> PipelineConfig:
    """``PipelineConfig`` from the flags and JSON keys named after its fields,
    passed as read, so the constructor judges each value; a field set by
    neither keeps ``PipelineConfig``'s default."""
    fields = tuple(f.name for f in dataclasses.fields(PipelineConfig))
    return PipelineConfig(**_config_values(args, fields))


# The CLI name of each ``TrainConfig`` field not spelled like the field.
_TRAIN_FLAG_NAMES = {"dropout_rate": "dropout"}
# The CLI name of each ``init_params`` model-shape argument ``train`` sets.
_SHAPE_FLAG_NAMES = {"window_size": "window", "hidden_size": "hidden"}
# The keys ``train`` reads: one per ``TrainConfig`` field, then the model
# shape and the validation split.
_TRAIN_KEYS = (
    tuple(
        _TRAIN_FLAG_NAMES.get(f.name, f.name) for f in dataclasses.fields(TrainConfig)
    )
    + tuple(_SHAPE_FLAG_NAMES.values())
    + ("val_fraction",)
)


def _train_config(values: dict) -> TrainConfig:
    """``TrainConfig`` from merged flag and JSON values keyed by CLI name,
    passed as read; a field set by neither keeps ``TrainConfig``'s default."""
    kwargs = {}
    for f in dataclasses.fields(TrainConfig):
        key = _TRAIN_FLAG_NAMES.get(f.name, f.name)
        if key in values:
            kwargs[f.name] = values[key]
    return TrainConfig(**kwargs)


def _default(fn, name: str):
    """``fn``'s default for parameter ``name``, so flags never restate it."""
    return inspect.signature(fn).parameters[name].default


def _model_shape(values: dict) -> dict:
    """``init_params``' window and hidden sizes from merged flag and JSON
    values keyed by CLI name; a size set by neither keeps ``init_params``'
    default."""
    return {
        name: values.get(key, _default(init_params, name))
        for name, key in _SHAPE_FLAG_NAMES.items()
    }


# The CLI name of each ``write_dataset`` setting ``make-data`` reads.
_DATA_FLAG_NAMES = {"clip_count": "clips", "frame_count": "frames", "fps": "fps",
                    "class_count": "classes", "style_count": "styles", "seed": "seed"}


@contextlib.contextmanager
def _refusals(sink=None):
    """The command line's one rule for bad input: a ``ValueError``, or an
    ``OSError`` on a path, raised in the block refuses the input and exits
    with its message. Each command reads its settings (flags and
    ``--config`` file) inside the block too, and writes its output files
    in such a block, so an output path that cannot be written is refused
    the same way (``make-data`` writes as it generates, so it makes its
    output directory in the block and a fault while writing keeps its
    traceback). Once ``sink`` has been written to, output has started,
    so the error is a fault and keeps its traceback."""
    try:
        yield
    except (ValueError, OSError) as err:
        if sink is not None and sink.written:
            raise
        raise SystemExit(str(err)) from None


def _read_wav(path) -> tuple[np.ndarray, int]:
    """Mono float PCM in [-1, 1] plus the sample rate; stereo is averaged.
    ``ValueError`` for a file that is not 16-bit PCM WAV."""
    try:
        with wave.open(str(path), "rb") as handle:
            if handle.getsampwidth() != 2:
                raise ValueError("only 16-bit PCM WAV input is supported")
            rate = handle.getframerate()
            raw = handle.readframes(handle.getnframes())
            pcm = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
            channels = handle.getnchannels()
    except (wave.Error, EOFError) as err:
        raise ValueError(f"not a WAV file: {err}") from None
    if channels > 1:
        pcm = pcm.reshape(-1, channels).mean(axis=1)
    return pcm, rate


def cmd_make_rig(args) -> int:
    rig, config = build_reference_rig(seed=args.seed)
    with _refusals():
        save_rig(args.out_rig, rig)
        save_config(args.out_config, config)
    print(
        f"wrote {args.out_rig}: {rig.vertex_count} vertices, "
        f"{rig.blendshape_count} blendshapes"
    )
    print(f"wrote {args.out_config}: {len(config.channels)} actuator channels")
    return 0


def cmd_make_data(args) -> int:
    settings = {name: getattr(args, flag) for name, flag in _DATA_FLAG_NAMES.items()}
    with _refusals():
        check_dataset_settings(**settings)
        rig = load_rig(args.rig)
        # ``write_dataset`` writes as it generates, so its directory is made
        # here: a path that cannot be one is refused before any work.
        Path(args.out).mkdir(parents=True, exist_ok=True)
    manifest = write_dataset(args.out, rig, **settings)
    print(f"wrote {args.clips} clips x {args.frames} frames to {manifest}")
    return 0


def cmd_extract(args) -> int:
    with _refusals():
        stream = stub_extractor(*_read_wav(args.audio))
        save_logits(args.out, stream.rate_hz, stream.frames)
    print(
        f"wrote {args.out}: {stream.frame_count} frames x "
        f"{stream.frames.shape[1]} classes at {stream.rate_hz:g} Hz"
    )
    return 0


def cmd_retarget(args) -> int:
    with _refusals():
        rig = load_rig(args.rig)
        frames, fps = load_dense_frames(args.frames)
        motion, residuals = project_sequence(frames, fps, rig)
        save_motion(args.out, motion)
    print(
        f"wrote {args.out}: {motion.frame_count} frames, residual "
        f"median {np.median(residuals):.6g} max {residuals.max():.6g} mm^2"
    )
    return 0


def _check_resumable(params, rig, samples, style_count) -> None:
    """``ValueError`` unless a checkpoint's model can train on the dataset:
    a style id past its style table, another logit class count or another
    blendshape count would fail inside the first step."""
    if style_count > params.style_count:
        raise ValueError(
            f"checkpoint has {params.style_count} styles, dataset has {style_count}"
        )
    for what, fixed, where, got in (
        ("classes", params.class_count, "dataset", samples[0].window.shape[1]),
        ("blendshapes", params.output_size, "rig", rig.blendshape_count),
    ):
        if got != fixed:
            raise ValueError(f"checkpoint has {fixed} {what}, {where} has {got}")


def cmd_train(args) -> int:
    from .motionnet import train

    params = adam = None
    with _refusals():
        values = _config_values(args, _TRAIN_KEYS)
        config = _train_config(values)
        shape = _model_shape(values)
        rig = load_rig(args.rig)
        val_fraction = values.get("val_fraction", 0.0)
        if not (is_real(val_fraction) and 0.0 <= val_fraction < 1.0):
            raise ValueError(f"val_fraction must lie in [0, 1), got {val_fraction!r}")
        if args.resume:
            # The checkpoint fixes the model shape; a size set that differs
            # from it is refused, and an unset size takes the checkpoint's.
            params, adam = load_model(args.resume)
            for name, key in _SHAPE_FLAG_NAMES.items():
                fixed = getattr(params, name)
                wanted = values.get(key, fixed)
                if not (is_index(wanted) and wanted == fixed):
                    raise ValueError(
                        f"checkpoint {key} {fixed} != requested {wanted!r}"
                    )
                shape[name] = fixed
        samples, style_count = load_dataset(args.data, rig, shape["window_size"])
        split = len(samples) - int(round(val_fraction * len(samples)))
        if not 0 < split <= len(samples):
            raise ValueError(f"val_fraction {val_fraction} leaves no training data")
        if params is not None:
            _check_resumable(params, rig, samples, style_count)
    train_set, val_set = samples[:split], samples[split:]
    if params is None:
        params = init_params(
            seed=config.seed,
            **shape,
            style_count=style_count,
            output_size=rig.blendshape_count,
            class_count=samples[0].window.shape[1],
        )
    if adam is None:
        adam = AdamState.zeros_like(params)

    params, history = train(params, rig, train_set, config, val_set, adam)
    with _refusals():
        save_model(args.out, params, adam)

    stride = max(1, config.epochs // 10)
    for epoch in range(0, config.epochs, stride):
        line = f"epoch {epoch + 1:4d}  train {history.train_loss[epoch]:.6g}"
        if history.val_loss is not None:
            line += f"  val {history.val_loss[epoch]:.6g}"
        print(line)
    print(
        f"wrote {args.out}: final train loss {history.train_loss[-1]:.6g} "
        f"({len(train_set)} samples, {style_count} styles)"
    )
    return 0


def cmd_synth(args) -> int:
    with FileSink(args.out_servo) as sink, _refusals(sink):
        config = _pipeline_config(args)
        params, _ = load_model(args.model)
        rig = load_rig(args.rig)
        rig_config = load_config(args.rig_config)
        source_rig = load_rig(args.source_rig) if args.source_rig else None
        rate, frames = load_logits(args.logits)
        stream = PhonemeLogitStream(rate_hz=rate, frames=frames)
        if stream.rate_hz != config.tick_hz:
            stream = resample(stream, config.tick_hz)
        result = run_pipeline(config, params, rig, rig_config, stream.frames,
                              source_rig=source_rig, frame_sink=sink)
    # The servo stream is complete here, so a motion or report path that
    # cannot be written is refused like any other input.
    with _refusals():
        if args.out_motion:
            save_motion(args.out_motion, result.motion)
        if args.report:
            Path(args.report).write_text(
                json.dumps(result.report.to_dict(), indent=2) + "\n"
            )
    report = result.report
    print(
        f"wrote {args.out_servo}: {report.frames} frames, tick p99 "
        f"{report.tick_p99_ms:.3f} ms, look-ahead {report.lookahead_frames:.2f} "
        f"frames, {report.over_budget} over budget"
    )
    return 0


def cmd_simulate(args) -> int:
    with _refusals():
        rig = load_rig(args.rig)
        rig_config = load_config(args.rig_config)
        reference = load_motion(args.motion)
        report = evaluate_tracking(
            rig_config, reference, rig, histogram_dir=args.histograms
        )
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for region, stats in report.items():
        print(
            f"{region:6s} median {stats['median_mm']:.4f} mm "
            f"(q1 {stats['q1_mm']:.4f}, q3 {stats['q3_mm']:.4f})"
        )
    print(f"wrote {args.out}")
    return 0


def cmd_smooth(args) -> int:
    with _refusals():
        motion = load_motion(args.motion)
        spec = FilterSpec(order=args.order, cutoff_hz=args.cutoff_hz,
                          sample_hz=motion.fps)
        cascade = design(spec)
        save_motion(args.out, filter_sequence(cascade, motion))
    print(
        f"wrote {args.out}: {motion.frame_count} frames, group delay "
        f"{group_delay_frames(cascade):.2f} frames"
    )
    return 0


def cmd_bench(args) -> int:
    with _refusals():
        config = _pipeline_config(args)
        check_count("n_frames", args.frames)
        params, _ = load_model(args.model)
        rig = load_rig(args.rig)
        rig_config = load_config(args.rig_config)
    report = bench(
        params, rig, rig_config, config, n_frames=args.frames, seed=args.seed
    )
    text = json.dumps(report, indent=2)
    if args.out:
        with _refusals():
            Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def cmd_export_obj(args) -> int:
    with _refusals():
        rig = load_rig(args.rig)
        motion = load_motion(args.motion) if args.motion else None
        if motion is not None:
            written = export_obj_sequence(args.out, motion, rig)
            print(f"wrote {len(written)} OBJ frames to {written[0].parent}")
        else:
            export_obj(args.out, apply_skinning(rig, np.zeros(rig.blendshape_count)))
            print(f"wrote {args.out}: {rig.vertex_count} vertices")
    return 0


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    """The JSON config file and the flags ``_pipeline_config`` reads."""
    p.add_argument("--config", default=None, help="JSON settings; flags win")
    p.add_argument("--tick-hz", type=float, default=None, dest="tick_hz")
    p.add_argument("--style-id", type=int, default=None, dest="style_id")
    p.add_argument("--filter-order", type=int, default=None, dest="filter_order")
    p.add_argument("--filter-cutoff-hz", type=float, default=None,
                   dest="filter_cutoff_hz")


def build_parser() -> argparse.ArgumentParser:
    # No prefix matching: a removed or mistyped flag must not bind to another.
    parser = argparse.ArgumentParser(
        prog="roboface",
        description="Speech-driven robot face animation toolkit.",
        allow_abbrev=False,
    )
    add = functools.partial(
        parser.add_subparsers(dest="command", required=True).add_parser,
        allow_abbrev=False,
    )

    p = add("make-rig", help="generate the deterministic reference rig")
    p.add_argument("--out-rig", required=True)
    p.add_argument("--out-config", required=True)
    p.add_argument("--seed", type=int, default=_default(build_reference_rig, "seed"))
    p.set_defaults(func=cmd_make_rig)

    p = add("make-data", help="generate a synthetic training dataset")
    p.add_argument("--rig", required=True)
    p.add_argument("--out", required=True)
    for name, flag in _DATA_FLAG_NAMES.items():
        default = _default(write_dataset, name)
        p.add_argument("--" + flag, type=type(default), default=default)
    p.set_defaults(func=cmd_make_data)

    p = add("extract", help="audio file to phoneme-logit stream")
    p.add_argument("--audio", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract)

    p = add("retarget", help="dense vertex frames to coefficients")
    p.add_argument("--frames", required=True)
    p.add_argument("--rig", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_retarget)

    p = add("train", help="fit the motion model on a dataset")
    p.add_argument("--rig", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="JSON settings; flags win")
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--weight-decay", type=float, default=None)
    p.add_argument("--dropout", type=float, default=None)
    p.add_argument("--mouth-weight", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--hidden", type=int, default=None)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--val-fraction", type=float, default=None)
    p.set_defaults(func=cmd_train)

    p = add("synth", help="logit stream to servo frames")
    p.add_argument("--logits", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--rig", required=True)
    p.add_argument("--rig-config", required=True)
    p.add_argument("--out-servo", required=True)
    p.add_argument("--out-motion", default=None)
    p.add_argument("--report", default=None)
    p.add_argument("--source-rig", default=None,
                   help="rig naming the model's coefficient space")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_synth)

    p = add("simulate", help="tracking-error report for a motion")
    p.add_argument("--motion", required=True)
    p.add_argument("--rig", required=True)
    p.add_argument("--rig-config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--histograms", default=None)
    p.set_defaults(func=cmd_simulate)

    p = add("smooth", help="low-pass filter a coefficient motion")
    p.add_argument("--motion", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--order", type=int, default=FilterSpec.order)
    p.add_argument("--cutoff-hz", type=float, default=FilterSpec.cutoff_hz,
                   dest="cutoff_hz")
    p.set_defaults(func=cmd_smooth)

    p = add("bench", help="model, tick, IK, synth, tracking and training throughput")
    p.add_argument("--model", required=True)
    p.add_argument("--rig", required=True)
    p.add_argument("--rig-config", required=True)
    p.add_argument("--frames", type=int, default=_default(bench, "n_frames"))
    p.add_argument("--seed", type=int, default=_default(bench, "seed"))
    p.add_argument("--out", default=None)
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_bench)

    p = add("export-obj", help="write OBJ meshes for inspection")
    p.add_argument("--rig", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--motion", default=None)
    p.set_defaults(func=cmd_export_obj)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
