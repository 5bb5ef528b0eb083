"""The three benchmark workloads: live, offline and train.

Each workload builds its seeded inputs first, then sets the system up
several times (the median is ``setup_s``), then runs jobs back to back
until the measured time reaches the requested seconds, then checks every
output. Jobs cycle through a pool of distinct seeded inputs.

Every workload reports the same end-to-end metrics, so each can carry one
bound; each workload's ``labels`` name what they measure on it:

  op_p50_ms, op_tail_ms   latency of the unit operation: its median and
                          its 95th percentile (``TAIL_PERCENTILE``)
  primary_per_s           headline rate
  secondary_per_s         second rate
  setup_s, peak_rss_mb

The first four are computed per job and reported for the job at the slow
quartile (``slow_quartile``).
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
from pathlib import Path
from time import perf_counter, thread_time

import numpy as np

import inputs

SETUP_REPEATS = 15
# An offline utterance has about 255 ticks and a train clip 18 steps: p95
# has ten ticks beyond it and stays below the slowest step. On a live
# stream p99 would rest on 7 of 750 ticks, which the shared machine's
# bursts of interference move from run to run.
TAIL_PERCENTILE = 95
TICK_BUDGET_MS = 40.0
CLASS_COUNT = 392
STYLE_COUNT = 4


class TimingSink:
    """Frame sink that stamps every servo-frame write, in wall time and in
    CPU time of the writing thread, and forwards it."""

    def __init__(self, inner, tracer=None):
        self.inner = inner
        self.tracer = tracer
        self.stamps: list[float] = []
        self.cpu_start = thread_time()
        self.cpu_stamps: list[float] = []

    def write(self, data: bytes) -> None:
        start = perf_counter()
        self.inner.write(data)
        end = perf_counter()
        self.stamps.append(end)
        self.cpu_stamps.append(thread_time())
        if self.tracer is not None:
            self.tracer.frame_written(start, end)

    def close(self) -> None:
        self.inner.close()


def slow_quartile(values, higher_is_better=False) -> float:
    """The per-job value a quarter of the way from the slow end.

    The shared machine this was tuned on switches between a fast and a
    slow state every few seconds, in shares that vary from run to run.
    The median job then jumps between the two states; the slow quartile
    stays in the slow state. 0 when every job failed before producing a
    value.
    """
    if not len(values):
        return 0.0
    return float(np.percentile(values, 25 if higher_is_better else 75))


def sha256(data) -> str:
    return hashlib.sha256(bytes(data)).hexdigest()


def f32_digest(frames) -> str:
    return sha256(np.ascontiguousarray(frames, dtype="<f4").tobytes())


def split_frames(data: bytes) -> list[bytes]:
    """Cut a servo byte stream into frames by their channel-count byte."""
    frames, pos = [], 0
    while pos < len(data):
        if pos + 4 > len(data):
            frames.append(data[pos:])
            break
        size = 4 + 2 * data[pos + 3] + 1
        frames.append(data[pos:pos + size])
        pos += size
    return frames


def bad_frames(data: bytes, rig_config) -> set[int]:
    """Indices of frames that fail decode, the channel count, the counter
    sequence or a channel's calibrated pulse range."""
    from roboface import decode_frame

    ranges = [(min(c.pulse_us), max(c.pulse_us)) for c in rig_config.channels]
    bad = set()
    for counter, raw in enumerate(split_frames(data)):
        try:
            frame = decode_frame(raw)
        except ValueError:
            bad.add(counter)
            continue
        if (len(frame.pulses) != len(ranges) or frame.frame_counter != counter & 0xFFFF
                or any(not lo <= p <= hi for p, (lo, hi) in zip(frame.pulses, ranges))):
            bad.add(counter)
    return bad


def report_ok(report: dict, frames: int) -> bool:
    """Six regions, each with q1 <= median <= q3 over all frames."""
    from roboface.arkit import REGIONS

    return len(report) == 6 and set(report) == set(REGIONS) and all(
        r["q1_mm"] <= r["median_mm"] <= r["q3_mm"] and r["frames"] == frames
        for r in report.values()
    )


class Workload:
    """Shared machinery: set-up, the timed job loop, accounting and metrics."""

    name = ""
    labels: dict[str, str] = {}
    pool_size = 8

    def __init__(self, seed: int):
        import roboface

        self.rf = roboface
        self.seed = seed
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        # A rig used only to make inputs; the timed system builds its own.
        self.input_rig, _ = roboface.build_reference_rig(seed=0)
        self.pool = [self.make_input(i) for i in range(self.pool_size)]
        self.attempted = 0
        self.failed = 0
        self.bad_frames = 0
        self.wall_over_budget = 0
        self.raised: list[str] = []
        self.checks: dict[str, bool] = {}
        self.job_op_ms: list[list[float]] = []
        self.rates: dict[str, list[float]] = {"primary_per_s": [], "secondary_per_s": []}
        self.info: dict[str, object] = {}

    # Hooks for the concrete workloads.
    def make_input(self, index: int):
        raise NotImplementedError

    def warm_up(self, system: dict) -> None:
        raise NotImplementedError

    def run_job(self, item, tracer) -> float:
        """Runs one job and records its results; returns its measured seconds."""
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def reference_digests(self) -> dict:
        raise NotImplementedError

    def reference_run(self) -> None:
        self.digests = self.reference_digests()

    # Shared machinery.
    def setup(self) -> float:
        """Builds the system SETUP_REPEATS times; keeps the last build and
        returns the median build time."""
        times = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            rig, rig_config = self.rf.build_reference_rig(seed=0)
            system = {
                "rig": rig,
                "rig_config": rig_config,
                "params": self.rf.init_params(seed=0, window_size=8, hidden_size=64,
                                              style_count=STYLE_COUNT),
                "config": self.rf.PipelineConfig(),
            }
            self.warm_up(system)
            times.append(perf_counter() - start)
            # The kinematics cache forms a reference cycle; free discarded builds.
            gc.collect()
        self.system = system
        self.setup_times = times
        return statistics.median(times)

    def warm_pipeline(self, system: dict, mode: str) -> None:
        """One short pipeline run: builds the kinematics cache, the IK
        solver's Gram matrix and the filter design, and makes the first
        BLAS calls."""
        frames = np.zeros((2 * system["params"].window_size, CLASS_COUNT))
        self.rf.run_pipeline(system["config"], system["params"], system["rig"],
                             system["rig_config"], frames, mode=mode)

    def run(self, seconds: float, tracer=None) -> dict:
        """Timed loop. With a tracer, jobs alternate traced and untraced on
        the same inputs, and the time ratio gives the tracing overhead."""
        self.setup_s = self.setup()
        job_s = {True: [], False: []}
        job = 0
        while sum(job_s[True]) + sum(job_s[False]) < seconds:
            traced = tracer is not None and job % 2 == 0
            item = self.pool[(job // (2 if tracer else 1)) % self.pool_size]
            if traced:
                tracer.install()
            try:
                job_s[traced].append(self.run_job(item, tracer if traced else None))
            finally:
                if traced:
                    tracer.remove()
            job += 1
        self.info["jobs"] = job
        self.digests = {}
        for name, step in (("checks_ran", self.check), ("reference_ran", self.reference_run)):
            try:
                step()
            except Exception as err:  # a check that cannot run has failed
                self.raised.append(repr(err))
                self.checks[name] = False
        # Traced job 2p and untraced job 2p + 1 ran the same input.
        pairs = len(job_s[False])
        self.overhead_pct = (100.0 * (sum(job_s[True][:pairs]) / sum(job_s[False]) - 1.0)
                             if pairs else 0.0)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        jobs = [np.asarray(ops) for ops in self.job_op_ms if ops]
        self.info["op_samples"] = sum(ops.size for ops in jobs)
        # Printed only: too few samples beyond it to carry a bound.
        self.info["op_p99_ms"] = slow_quartile([np.percentile(ops, 99) for ops in jobs])
        rates = {name: slow_quartile(values, higher_is_better=True)
                 for name, values in self.rates.items()}
        return {
            "op_p50_ms": (slow_quartile([np.percentile(ops, 50) for ops in jobs]), "ms"),
            "op_tail_ms": (slow_quartile([np.percentile(ops, TAIL_PERCENTILE) for ops in jobs]),
                           "ms"),
            "primary_per_s": (rates["primary_per_s"], "1/s"),
            "secondary_per_s": (rates["secondary_per_s"], "1/s"),
            "setup_s": (self.setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    def record_ticks(self, data: bytes, sink: TimingSink, start: float,
                     planned: int) -> list[float]:
        """Accounting for one pipeline run that started at ``start`` and
        wrote its frames through ``sink``. Failed: ticks that used more CPU
        time than the budget, frames failing the frame checks, and ticks
        never written. The budget is judged on the pipeline thread's CPU
        time because on a shared machine a tick's wall time also holds the
        time the thread waited for a core, which varies from run to run;
        wall-time overruns are counted beside it. Returns the tick
        intervals; the first tick, timed from the start, is left out of the
        latency sample."""
        times = [start] + sink.stamps
        intervals = [1e3 * (b - a) for a, b in zip(times, times[1:])]
        cpu_times = [sink.cpu_start] + sink.cpu_stamps
        cpu_ms = [1e3 * (b - a) for a, b in zip(cpu_times, cpu_times[1:])]
        bad = bad_frames(data, self.system["rig_config"])
        slow = {i for i, ms in enumerate(cpu_ms) if ms > TICK_BUDGET_MS}
        self.attempted += planned
        self.failed += (planned - len(sink.stamps)) + len(bad | slow)
        self.bad_frames += len(bad)
        self.wall_over_budget += sum(ms > TICK_BUDGET_MS for ms in intervals)
        self.job_op_ms.append(intervals[1:])
        return intervals[1:]


class Live(Workload):
    """Streaming synthesis of long speech-like logit streams, with name
    transfer from a permuted source rig on every tick."""

    name = "live"
    labels = {"op": "tick", "primary_per_s": "ticks_per_s",
              "secondary_per_s": "steady_ticks_per_s"}
    stream_frames = 750  # 30 s at 25 Hz

    def __init__(self, seed: int):
        super().__init__(seed)
        self.source_rig = inputs.permuted_source_rig(self.input_rig, self.rng)
        self.outputs: dict[int, set] = {}

    def make_input(self, index: int):
        tracks = inputs.smooth_tracks(self.stream_frames, 51, self.rng)
        return index, inputs.speech_logits(tracks, CLASS_COUNT, self.rng)

    def warm_up(self, system):
        self.warm_pipeline(system, "streaming")

    def stream(self, logits, sink, source_rig, mode="streaming"):
        s = self.system
        return self.rf.run_pipeline(s["config"], s["params"], s["rig"], s["rig_config"],
                                    logits, source_rig=source_rig, mode=mode,
                                    frame_sink=sink)

    def run_job(self, item, tracer):
        index, logits = item
        sink = TimingSink(self.rf.pipeline.LoopbackSink(), tracer)
        start = perf_counter()
        if tracer is not None:
            tracer.stream_started(start)
        try:
            self.stream(logits, sink, self.source_rig)
        except Exception as err:  # an abort mid-stream is counted, not fatal
            self.raised.append(repr(err))
        finally:
            end = perf_counter()
            if tracer is not None:
                tracer.stream_ended()
        steady = self.record_ticks(bytes(sink.inner.data), sink, start, len(logits))
        self.rates["primary_per_s"].append(len(sink.stamps) / (end - start))
        if steady:
            self.rates["secondary_per_s"].append(1e3 * len(steady) / sum(steady))
        self.outputs.setdefault(index, set()).add(sha256(sink.inner.data))
        return end - start

    def check(self):
        self.checks["frames_valid"] = self.bad_frames == 0
        self.checks["repeat_runs_identical"] = all(len(v) == 1 for v in self.outputs.values())
        # The first input always ran streaming in the timed loop.
        index, logits = self.pool[0]
        sink = self.rf.pipeline.LoopbackSink()
        self.stream(logits, sink, self.source_rig, mode="offline")
        self.checks["streaming_equals_offline"] = self.outputs[index] == {sha256(sink.data)}

    def reference_digests(self):
        rng = np.random.default_rng([0, 1])
        logits = inputs.speech_logits(inputs.smooth_tracks(250, 51, rng), CLASS_COUNT, rng)
        source = inputs.permuted_source_rig(self.input_rig, rng)
        sink = self.rf.pipeline.LoopbackSink()
        result = self.stream(logits, sink, source)
        return {"servo": sha256(sink.data), "motion": f32_digest(result.motion.frames)}


class Offline(Workload):
    """The batch job in-process: PCM to logits file to servo file to
    driven motion file to tracking report."""

    name = "offline"
    labels = {"op": "tick", "primary_per_s": "synth_frames_per_s",
              "secondary_per_s": "track_frames_per_s"}
    pool_size = 16
    audio_seconds = 10.0

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed)
        self.scratch = scratch
        self.reports_ok = True
        self.audio_s_per_s: list[float] = []

    def make_input(self, index: int):
        return inputs.speech_pcm(self.audio_seconds, self.rng)

    def warm_up(self, system):
        from roboface import frontend

        frontend.stub_extractor(np.zeros(inputs.AUDIO_HZ // 10))
        self.warm_pipeline(system, "offline")
        still = self.rf.MotionSequence(inputs.TICK_HZ, np.zeros((2, 51)))
        self.rf.evaluate_tracking(system["rig_config"], still, system["rig"])

    def job(self, pcm, tracer=None, tag="job"):
        """Returns (synth seconds, track seconds, servo bytes, motion,
        tracking report, timing sink, pipeline start, ticks planned)."""
        from roboface import formats, frontend

        s = self.system
        logits_path = self.scratch / f"{tag}.phlg"
        servo_path = self.scratch / f"{tag}.bin"
        motion_path = self.scratch / f"{tag}.lbsm"
        start = perf_counter()
        stream = frontend.stub_extractor(pcm)
        formats.save_logits(logits_path, stream.rate_hz, stream.frames)
        rate, frames = formats.load_logits(logits_path)
        stream = self.rf.resample(frontend.PhonemeLogitStream(rate, frames), s["config"].tick_hz)
        sink = TimingSink(self.rf.pipeline.FileSink(servo_path), tracer)
        pipeline_start = perf_counter()
        if tracer is not None:
            tracer.stream_started(pipeline_start)
        try:
            result = self.rf.run_pipeline(s["config"], s["params"], s["rig"], s["rig_config"],
                                          stream.frames, mode="offline", frame_sink=sink)
        finally:
            sink.close()
            if tracer is not None:
                tracer.stream_ended()
        formats.save_motion(motion_path, result.motion)
        synth_end = perf_counter()
        motion = formats.load_motion(motion_path)
        report = self.rf.evaluate_tracking(s["rig_config"], motion, s["rig"])
        end = perf_counter()
        return (synth_end - start, end - synth_end, servo_path.read_bytes(), motion,
                report, sink, pipeline_start, stream.frame_count)

    def run_job(self, pcm, tracer):
        start = perf_counter()
        try:
            synth_s, track_s, data, motion, report, sink, t0, planned = self.job(pcm, tracer)
        except Exception as err:  # a failed job counts its ticks as failed
            self.raised.append(repr(err))
            planned = int(len(pcm) / inputs.AUDIO_HZ * inputs.TICK_HZ)
            self.attempted += planned
            self.failed += planned
            return perf_counter() - start
        self.record_ticks(data, sink, t0, planned)
        self.rates["primary_per_s"].append(len(sink.stamps) / synth_s)
        self.rates["secondary_per_s"].append(motion.frame_count / track_s)
        self.audio_s_per_s.append(len(pcm) / inputs.AUDIO_HZ / synth_s)
        self.reports_ok &= report_ok(report, motion.frame_count)
        return synth_s + track_s

    def check(self):
        self.checks["frames_valid"] = self.bad_frames == 0
        self.checks["tracking_report"] = self.reports_ok
        self.info["synth_audio_s_per_s"] = statistics.median(self.audio_s_per_s)

    def reference_digests(self):
        pcm = inputs.speech_pcm(5.0, np.random.default_rng([0, 2]))
        _, _, data, motion, report, *_ = self.job(pcm, tag="reference")
        self.checks["reference_tracking_report"] = report_ok(report, motion.frame_count)
        return {"servo": sha256(data), "motion": f32_digest(motion.frames)}


class Train(Workload):
    """Dataset preparation from noisy dense capture, then AdamW training
    driven one mini-batch per ``train`` call."""

    name = "train"
    labels = {"op": "train_step", "primary_per_s": "train_samples_per_s",
              "secondary_per_s": "prep_frames_per_s"}
    pool_size = 4
    clip_frames = 96
    epochs = 3
    batch_size = 16

    def __init__(self, seed: int):
        super().__init__(seed)
        self.losses_ok = True

    def make_input(self, index: int, frames: int | None = None, rng=None):
        rng = rng or self.rng
        tracks = inputs.smooth_tracks(frames or self.clip_frames, 51, rng)
        dense = inputs.dense_frames(self.input_rig, tracks, rng)
        logits = self.rf.PhonemeLogitStream(
            inputs.TICK_HZ, inputs.speech_logits(tracks, CLASS_COUNT, rng))
        return index, dense, logits, index % STYLE_COUNT

    def warm_up(self, system):
        from roboface import motionnet, synthdata

        rig = system["rig"]
        system["cascade"] = self.rf.design(self.rf.FilterSpec())
        still = np.tile(rig.mesh.positions, (2, 1))
        motion, _ = self.rf.project_sequence(still, inputs.TICK_HZ, rig)
        motion = self.rf.filter_sequence(system["cascade"], motion)
        logits = self.rf.PhonemeLogitStream(inputs.TICK_HZ, np.zeros((2, CLASS_COUNT)))
        samples = synthdata.build_samples(rig, motion, logits, 0, 8)
        scratch = self.rf.init_params(seed=0, window_size=8, hidden_size=64,
                                      style_count=STYLE_COUNT)
        motionnet.train(scratch, rig, samples, self.rf.TrainConfig(epochs=1))

    def job(self, item, order_seed):
        """Returns (prep seconds, per-step (ms, samples, loss), per-epoch
        losses, filtered motion, trained params)."""
        from roboface import motionnet, synthdata

        index, dense, logits, style = item
        s = self.system
        start = perf_counter()
        motion, _ = self.rf.project_sequence(dense, inputs.TICK_HZ, s["rig"])
        motion = self.rf.filter_sequence(s["cascade"], motion)
        samples = synthdata.build_samples(s["rig"], motion, logits, style, 8)
        prep_s = perf_counter() - start

        params = self.rf.init_params(seed=0, window_size=8, hidden_size=64,
                                     style_count=STYLE_COUNT)
        state = motionnet.AdamState.zeros_like(params)
        order_rng = np.random.default_rng(order_seed)
        steps, epoch_loss = [], []
        for epoch in range(self.epochs):
            order = order_rng.permutation(len(samples))
            total = 0.0
            for b in range(0, len(samples), self.batch_size):
                batch = [samples[i] for i in order[b:b + self.batch_size]]
                config = self.rf.TrainConfig(epochs=1, batch_size=self.batch_size,
                                             seed=epoch * 1000 + b)
                t0 = perf_counter()
                _, history = motionnet.train(params, s["rig"], batch, config, adam_state=state)
                steps.append((1e3 * (perf_counter() - t0), len(batch), history.train_loss[0]))
                total += history.train_loss[0] * len(batch)
            epoch_loss.append(total / len(samples))
        return prep_s, steps, epoch_loss, motion, params

    def run_job(self, item, tracer):
        planned = self.epochs * len(item[1])
        self.attempted += planned
        start = perf_counter()
        try:
            prep_s, steps, epoch_loss, motion, _ = self.job(item, [self.seed, item[0]])
        except Exception as err:  # a failed job counts its samples as failed
            self.raised.append(repr(err))
            self.failed += planned
            return perf_counter() - start
        self.failed += sum(n for _, n, loss in steps if not np.isfinite(loss))
        self.losses_ok &= bool(np.isfinite(epoch_loss).all()) and epoch_loss[-1] < epoch_loss[0]
        train_s = sum(ms for ms, _, _ in steps) / 1e3
        self.job_op_ms.append([ms for ms, _, _ in steps])
        self.rates["primary_per_s"].append(planned / train_s)
        self.rates["secondary_per_s"].append(motion.frame_count / prep_s)
        return prep_s + train_s

    def check(self):
        self.checks["loss_finite_and_falling"] = self.losses_ok

    def reference_digests(self):
        from roboface import motionnet

        item = self.make_input(0, frames=48, rng=np.random.default_rng([0, 3]))
        _, _, epoch_loss, motion, params = self.job(item, [0, 3])
        blob = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes()
                        for _, a in motionnet.named_arrays(params))
        self.checks["reference_loss_falling"] = bool(np.isfinite(epoch_loss).all()
                                                     and epoch_loss[-1] < epoch_loss[0])
        return {"motion": f32_digest(motion.frames), "model": sha256(blob)}
