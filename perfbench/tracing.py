"""Spans around the program's layer boundaries, for the traced run only.

The tracer wraps public functions and methods of ``roboface`` at the names
through which the benchmark and the pipeline call them, records one span
per call (name, start, end, parent, tick or sample id) in memory, and puts
every original back when the traced job ends. Ticks are delimited by the
benchmark's sink: one tick runs from one servo-frame write to the next.
``StreamingFilter.step`` runs 51 times per tick, so its calls are summed
into the enclosing tick instead of each getting a span.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

# Per-layer metrics reported by a traced run, with their units.
PER_LAYER = {
    "frontend.window_us_p50": "us",
    "frontend.extract_s": "s",
    "frontend.resample_s": "s",
    "frontend.calls": "count",
    "motionnet.forward_us_p50": "us",
    "motionnet.forward_us_p99": "us",
    "motionnet.decode_us_p50": "us",
    "motionnet.loss_us_p50": "us",
    "motionnet.decode_calls": "count",
    "motionnet.train_self_s": "s",
    "motionnet.calls": "count",
    "smoothing.step_us_per_tick": "us",
    "smoothing.step_calls": "count",
    "smoothing.filter_sequence_s": "s",
    "retarget.transfer_us_p50": "us",
    "retarget.project_s": "s",
    "retarget.project_solve_us_p50": "us",
    "retarget.project_iterations_p50": "count",
    "retarget.calls": "count",
    "rigsim.ik_solve_us_p50": "us",
    "rigsim.ik_solve_us_p99": "us",
    "rigsim.ik_iterations_p50": "count",
    "rigsim.ik_iterations_max": "count",
    "rigsim.ik_unconverged": "count",
    "rigsim.track_s": "s",
    "rigsim.track_solve_us_p50": "us",
    "rigsim.calls": "count",
    "lbs.skin_us_p50": "us",
    "lbs.skin_calls": "count",
    "pipeline.encode_us_p50": "us",
    "pipeline.sink_write_us_p50": "us",
    "pipeline.tick_self_us_p50": "us",
    "pipeline.ticks": "count",
    "synthdata.build_samples_s": "s",
    "synthdata.calls": "count",
    "formats.io_s": "s",
    "formats.calls": "count",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}

# Span names whose total time is reported per traced job as "<metric>_s".
_PER_JOB_TOTALS = {
    "frontend.extract_s": ("frontend.extract",),
    "frontend.resample_s": ("frontend.resample",),
    "smoothing.filter_sequence_s": ("smoothing.filter_sequence",),
    "retarget.project_s": ("retarget.project",),
    "rigsim.track_s": ("rigsim.track",),
    "synthdata.build_samples_s": ("synthdata.build_samples",),
    "formats.io_s": ("formats.save_logits", "formats.load_logits",
                     "formats.save_motion", "formats.load_motion"),
}

# Solver spans are named by the outer call they run under.
_SOLVE_NAME = {"retarget.project": "retarget.project_solve",
               "rigsim.track": "rigsim.track_solve"}


class Tracer:
    """Collects spans while installed; ``install``/``remove`` bracket a job."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.ticks: list[tuple] = []
        self.step_calls = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []
        self._phase: tuple[str, int] | None = None
        self._tick: tuple[int, float, bool] | None = None
        self._tick_step_s = 0.0
        self._sample = 0
        self.jobs = 0

    # -- installing ------------------------------------------------------

    def install(self):
        import roboface
        from roboface import formats, frontend, motionnet, pipeline, retarget, rigsim, smoothing, synthdata

        self.jobs += 1
        plan = [
            (pipeline, "forward", "motionnet.forward", None),
            (pipeline, "transfer_coefficients", "retarget.transfer", None),
            (pipeline, "encode_frame", "pipeline.encode", None),
            (pipeline, "window_at", "frontend.window", None),
            (frontend.StreamingWindower, "push", "frontend.window", None),
            (retarget.BoxLeastSquares, "solve", "retarget.solve", _solve_extra),
            (rigsim, "apply_skinning", "lbs.skin", None),
            (motionnet, "human_decode", "motionnet.decode", None),
            (motionnet, "loss", "motionnet.loss", None),
            (motionnet, "train", "motionnet.train", None),
            (roboface, "project_sequence", "retarget.project", None),
            (roboface, "evaluate_tracking", "rigsim.track", None),
            (roboface, "filter_sequence", "smoothing.filter_sequence", None),
            (roboface, "resample", "frontend.resample", None),
            (frontend, "stub_extractor", "frontend.extract", None),
            (synthdata, "build_samples", "synthdata.build_samples", None),
            (formats, "save_logits", "formats.save_logits", None),
            (formats, "load_logits", "formats.load_logits", None),
            (formats, "save_motion", "formats.save_motion", None),
            (formats, "load_motion", "formats.load_motion", None),
        ]
        for owner, attr, name, extra in plan:
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, extra))
        step = smoothing.StreamingFilter.__dict__["step"]
        self._patches.append((smoothing.StreamingFilter, "step", step))
        smoothing.StreamingFilter.step = self._wrap_step(step)

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, extra):
        tracer = self
        phase_names = ("retarget.project", "rigsim.track")

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif threading.current_thread() is threading.main_thread():
                parent = tracer._tick[0] if tracer._tick else None
            else:
                parent = tracer._phase[1] if tracer._phase else None
            span_name = name
            if name == "retarget.solve":
                if tracer._phase is not None:
                    span_name = _SOLVE_NAME[tracer._phase[0]]
                elif tracer._tick is not None:
                    span_name = "rigsim.ik_solve"
            elif name == "motionnet.decode":
                tracer._sample += 1
            sid = next(tracer._ids)
            is_phase = name in phase_names
            if is_phase:
                tracer._phase = (name, sid)
            stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if is_phase:
                    tracer._phase = None
            unit = tracer._tick[0] if tracer._tick else tracer._sample
            tracer.spans.append((sid, span_name, start, end, parent, unit,
                                 extra(out) if extra else None))
            return out

        return wrapper

    def _wrap_step(self, fn):
        tracer = self

        def step(filt, x):
            start = perf_counter()
            out = fn(filt, x)
            tracer._tick_step_s += perf_counter() - start
            tracer.step_calls += 1
            return out

        return step

    # -- ticks, driven by the benchmark's sink ----------------------------

    def stream_started(self, at: float):
        self._open_tick(at, first=True)

    def frame_written(self, write_start: float, write_end: float):
        if self._tick is None:
            return
        tick_id, start, first = self._tick
        self.spans.append((next(self._ids), "pipeline.sink_write", write_start,
                           write_end, tick_id, tick_id, None))
        self.ticks.append((tick_id, start, write_end, first, self._tick_step_s))
        self._open_tick(write_end, first=False)

    def stream_ended(self):
        self._tick = None

    def _open_tick(self, at: float, first: bool):
        self._tick = (next(self._ids), at, first)
        self._tick_step_s = 0.0

    # -- results ---------------------------------------------------------

    def metrics(self, overhead_pct: float) -> dict:
        by_name: dict[str, list] = {}
        for span in self.spans:
            by_name.setdefault(span[1], []).append(span)

        def durations_us(name):
            return np.array([1e6 * (s[3] - s[2]) for s in by_name.get(name, ())])

        def pct(name, q):
            d = durations_us(name)
            return float(np.percentile(d, q)) if d.size else 0.0

        def extras(name, key):
            return np.array([s[6][key] for s in by_name.get(name, ())], dtype=float)

        def median(values):
            return float(np.median(values)) if len(values) else 0.0

        jobs = max(self.jobs, 1)
        out = {}
        for metric, names in _PER_JOB_TOTALS.items():
            out[metric] = sum(durations_us(n).sum() for n in names) / 1e6 / jobs

        child_us: Counter = Counter()
        for span in self.spans:
            child_us[span[4]] += 1e6 * (span[3] - span[2])
        steady = [t for t in self.ticks if not t[3]]
        tick_self = [1e6 * (end - start - step_s) - child_us[tid]
                     for tid, start, end, _, step_s in steady]
        tick_step_us = sum(1e6 * t[4] for t in self.ticks)

        ik_iters = extras("rigsim.ik_solve", "iterations")
        project_iters = extras("retarget.project_solve", "iterations")
        decode_us = durations_us("motionnet.decode").sum()
        loss_us = durations_us("motionnet.loss").sum()
        train_us = durations_us("motionnet.train").sum()

        def layer_calls(prefix):
            return sum(len(spans) for name, spans in by_name.items() if name.startswith(prefix))

        out.update({
            "frontend.window_us_p50": pct("frontend.window", 50),
            "frontend.calls": layer_calls("frontend."),
            "motionnet.forward_us_p50": pct("motionnet.forward", 50),
            "motionnet.forward_us_p99": pct("motionnet.forward", 99),
            "motionnet.decode_us_p50": pct("motionnet.decode", 50),
            "motionnet.loss_us_p50": pct("motionnet.loss", 50),
            "motionnet.decode_calls": len(by_name.get("motionnet.decode", ())),
            "motionnet.train_self_s": (train_us - decode_us - loss_us) / 1e6 / jobs,
            "motionnet.calls": layer_calls("motionnet."),
            "smoothing.step_us_per_tick": tick_step_us / len(self.ticks) if self.ticks else 0.0,
            "smoothing.step_calls": self.step_calls,
            "retarget.transfer_us_p50": pct("retarget.transfer", 50),
            "retarget.project_solve_us_p50": pct("retarget.project_solve", 50),
            "retarget.project_iterations_p50": median(project_iters),
            "retarget.calls": layer_calls("retarget."),
            "rigsim.ik_solve_us_p50": pct("rigsim.ik_solve", 50),
            "rigsim.ik_solve_us_p99": pct("rigsim.ik_solve", 99),
            "rigsim.ik_iterations_p50": median(ik_iters),
            "rigsim.ik_iterations_max": float(ik_iters.max()) if ik_iters.size else 0.0,
            "rigsim.ik_unconverged": int((extras("rigsim.ik_solve", "converged") == 0).sum()),
            "rigsim.track_solve_us_p50": pct("rigsim.track_solve", 50),
            "rigsim.calls": layer_calls("rigsim."),
            "lbs.skin_us_p50": pct("lbs.skin", 50),
            "lbs.skin_calls": len(by_name.get("lbs.skin", ())),
            "pipeline.encode_us_p50": pct("pipeline.encode", 50),
            "pipeline.sink_write_us_p50": pct("pipeline.sink_write", 50),
            "pipeline.tick_self_us_p50": median(tick_self),
            "pipeline.ticks": len(self.ticks),
            "synthdata.calls": layer_calls("synthdata."),
            "formats.calls": layer_calls("formats."),
            "trace.spans": len(self.spans),
            "trace.overhead_pct": overhead_pct,
        })
        return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER.items()}

    def write(self, path: Path, header: dict):
        """Spans as JSON lines after one header line; ticks are spans too."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write(json.dumps(header) + "\n")
            for sid, name, start, end, parent, unit, extra in self.spans:
                out.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                      "parent": parent, "unit": unit, "extra": extra}) + "\n")
            for tid, start, end, first, step_s in self.ticks:
                out.write(json.dumps({"id": tid, "name": "pipeline.tick", "start": start,
                                      "end": end, "parent": None, "unit": tid,
                                      "extra": {"first": first, "step_s": step_s}}) + "\n")


def _solve_extra(result):
    _, residual, converged, iterations = result
    return {"iterations": int(iterations), "converged": int(bool(converged)),
            "residual": float(residual)}
