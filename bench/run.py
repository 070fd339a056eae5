"""gaitpair benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload pair-attempt --seed 7 --seconds 20 --trace 0

Builds the workload's inputs from --seed, sets up three times (setup_s is the
median import time in a fresh interpreter plus the median set-up), then runs
ops back to back for --seconds of op time and checks every op's outputs.
The bounded times are scaled to a reference machine speed by a calibration
loop timed between ops.
--trace 0 prints the end-to-end metrics; --trace 1 measures half the time
untraced and half with spans around every layer call, prints the per-layer
metrics and the tracing overhead, and writes the spans to
.bench_work/spans-<workload>.jsonl.
The last line of stdout is one JSON object; the exit code is 0 only when every
check passed.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 3
# The machine runs in speed modes up to about 1.65x apart, for seconds to
# minutes at a time (see bench/README.md).  Bounded times are therefore scaled
# to the speed at which calibrate() takes CAL_REFERENCE_S, using calibrations
# made between ops at least every CAL_EVERY_S of op time, and every
# CAL_EVERY_S of wall time within an op, from a timer signal.
CAL_REFERENCE_S = 0.0006
CAL_EVERY_S = 0.25

# The compared metrics, with their units, are the ones BENCHMARK.json lists.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Behaviour metrics that read 0 on the seed code.  A bound that is a share of
# the parent's median cannot guard a 0, so false accepts, collisions and
# failed ops fail the run through `correct` instead, and the rates that should
# rise are carried as per-layer metrics.
BEHAVIOUR_AS_LAYER = {
    "protocol.intra_establish_rate": "intra_establish_rate",
    "fuzzy_ecc.decode_rate": "decode_rate",
    "eval_harness.collision_rate": "collision_rate",
}
ALSO_REPORTED = (  # end-to-end metrics printed after END_TO_END but not compared
    ("latency_ms_p50", "ms"), ("latency_ms_p90", "ms"), ("ops_per_s", "1/s"),
    ("report_s", "s"), ("setup_wall_s", "s"), ("failed_share", "share"),
    ("intra_establish_rate", "share"), ("inter_establish_rate", "share"),
    ("decode_rate", "share"), ("collision_rate", "share"),
)
# Imports the workload's modules in a fresh interpreter and prints the time,
# then a calibration made in that interpreter right after the import.
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
                "import workloads; t = time.perf_counter() - t; "
                "import run; print(t, run.calibrate())")


def calibrate(repeats: int = 5) -> float:
    """Seconds a fixed mix of pure-Python arithmetic and small numpy FFTs
    takes now: a gauge of the machine's current speed.  The median of
    ``repeats`` timings, so that one preemption does not skew it."""
    signal = np.arange(4096.0)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0.0
        for k in range(4_000):
            acc += (k * 0.5) % 7.0
        for _ in range(4):
            np.fft.rfft(signal)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(seconds: float, cal_before: float, cal_after: float) -> float:
    """``seconds`` at the reference speed, from the calibrations either side."""
    return seconds * 2.0 * CAL_REFERENCE_S / (cal_before + cal_after)


def timed(fn) -> tuple[float, float]:
    """Wall seconds of ``fn()``, and the same scaled to the reference speed."""
    cal_before = calibrate()
    t0 = time.perf_counter()
    fn()
    wall = time.perf_counter() - t0
    return wall, scaled(wall, cal_before, calibrate())


def import_seconds(repeats: int = SETUP_REPEATS) -> tuple[float, float]:
    """Median time to import the benchmark's modules in a fresh interpreter,
    as wall seconds and scaled to the reference speed."""
    walls, scaled_times = [], []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(BENCH), str(ROOT / "src")],
                             capture_output=True, text=True, check=True, timeout=120)
        wall, cal = map(float, out.stdout.split())
        walls.append(wall)
        scaled_times.append(scaled(wall, cal, cal))
    return statistics.median(walls), statistics.median(scaled_times)


def tail_percentile(values, pct: float = 90.0, beyond: int = 10):
    """Nearest-rank percentile, or None unless at least ``beyond`` samples lie
    above its rank: a p90 needs 100 samples."""
    n = len(values)
    rank = math.ceil(pct / 100.0 * n)
    if n == 0 or n - rank < beyond:
        return None
    return sorted(values)[rank - 1]


class Phase:
    """Latencies and failures of one measured stretch of ops."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.busy = 0.0
        self.failed = 0
        self.problems: list[str] = []
        self.calibrations: list[float] = []  # made between ops
        self.calibrated_before: list[int] = []  # per op, its last calibration
        self.within: list[list[float]] = []  # per op, calibrations made during it

    def scaled_latencies(self) -> list[float]:
        """Each op's latency scaled by the mean of the calibrations either
        side of it and those made during it."""
        out = []
        for lat, k, within in zip(self.latencies, self.calibrated_before, self.within):
            cal = statistics.mean([self.calibrations[k], *within, self.calibrations[k + 1]])
            out.append(scaled(lat, cal, cal))
        return out


class InOpCalibration:
    """Calibrates every CAL_EVERY_S of wall time while armed, from a timer
    signal, so that a long op is scaled by the speed the machine had during
    it.  ``taken`` holds the calibrations, ``paused`` the seconds they took."""

    def __init__(self) -> None:
        self.taken: list[float] = []
        self.paused = 0.0
        self._busy = False
        self._previous = signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a tick that lands inside a calibration is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        self.taken.append(calibrate())
        self.paused += time.perf_counter() - t0
        self._busy = False

    def arm(self) -> None:
        self.taken, self.paused = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def close(self) -> None:
        self.disarm()
        signal.signal(signal.SIGALRM, self._previous)


def measure(workload, first_op: int, seconds: float, tracer=None) -> Phase:
    """Closed loop: each op starts when the previous one returns.  Preparing
    inputs and checking outputs pause the clock, so the run's wall time is
    the time spent in ops.  Calibrations pause it too."""
    phase = Phase()
    gauge = InOpCalibration()
    try:
        _loop(workload, first_op, seconds, tracer, phase, gauge)
    finally:
        gauge.close()
    phase.calibrations.append(calibrate())
    return phase


def _loop(workload, i: int, seconds: float, tracer, phase: Phase, gauge) -> None:
    since_calibration = math.inf
    while phase.busy < seconds or len(phase.latencies) < workload.min_ops:
        run = workload.prepare(i)
        if since_calibration >= CAL_EVERY_S:
            phase.calibrations.append(calibrate())
            since_calibration = 0.0
        if tracer is not None:
            tracer.begin_op(i)
        gauge.arm()
        t0 = time.perf_counter()
        try:
            result, error = run(), None
        except Exception as exc:  # an escaping exception fails the op
            result, error = None, exc
        t1 = time.perf_counter()
        gauge.disarm()
        if tracer is not None:
            tracer.end_op()
        problems = [f"exception: {error!r}"] if error else workload.check(i, result)
        latency = t1 - t0 - gauge.paused
        phase.latencies.append(latency)
        phase.calibrated_before.append(len(phase.calibrations) - 1)
        phase.within.append(gauge.taken)
        phase.busy += latency
        since_calibration += latency
        if problems:
            phase.failed += 1
            phase.problems += [f"op {i}: {p}" for p in problems]
        i += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    src = ROOT / "src"
    if not (src / "gaitpair" / "__init__.py").is_file():
        print(f"no gaitpair sources under {src}", file=sys.stderr)
        return 2
    import_wall, import_scaled = import_seconds()
    sys.path[:0] = [str(BENCH), str(src)]
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setups = [timed(workload.setup) for _ in range(SETUP_REPEATS)]

        tracer = None
        if args.trace:
            untraced = measure(workload, 0, args.seconds / 2)
            tracer = spans.Tracer()
            undo = spans.install(tracer)
            try:
                phase = measure(workload, len(untraced.latencies), args.seconds / 2, tracer)
            finally:
                spans.uninstall(undo)
            phases = [untraced, phase]
        else:
            phase = measure(workload, 0, args.seconds)
            phases = [phase]
        final_problems = workload.finish()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        reference_similarity = workloads.reference_similarity()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(p.failed for p in phases)
    lat_ms = [1e3 * x for x in phase.latencies]
    p50 = statistics.median(lat_ms)
    scaled_p50 = 1e3 * statistics.median(phase.scaled_latencies())
    behaviour = workload.behaviour()
    reported = {
        "scaled_latency_ms_p50": scaled_p50,
        "latency_ms_p50": p50,
        "latency_ms_p90": tail_percentile(lat_ms),
        "ops_per_s": len(lat_ms) / phase.busy,
        "report_s": p50 / 1e3 if args.workload == "eval-report" else None,
        "setup_s": import_scaled + statistics.median(s for _, s in setups),
        "setup_wall_s": import_wall + statistics.median(w for w, _ in setups),
        "peak_rss_mb": peak_rss_mb,
        "failed_share": failed / attempted,
        **{k: behaviour.get(k) for k in (
            "intra_establish_rate", "inter_establish_rate", "decode_rate",
            "collision_rate")},
        "intra_similarity_mean": reference_similarity,
    }

    print(f"workload {args.workload}  seed {args.seed}  ops {len(lat_ms)}"
          f"{' (traced half)' if args.trace else ''}  attempted {attempted}  failed {failed}")
    print(f"  set-up (wall): import {import_wall:.3f} s + median of "
          f"{', '.join(f'{w:.3f}' for w, _ in setups)} s")
    for name, unit in [*END_TO_END.items(), *ALSO_REPORTED]:
        value = reported[name]
        print(f"  {name:<24} {'n/a' if value is None else f'{value:.6g}'} {unit}")
    for note in workload.notes():
        print(f"  note: {note}")

    if args.trace:
        layers = spans.layer_metrics(tracer)
        layers["trace_overhead_ms"] = scaled_p50 - 1e3 * statistics.median(
            untraced.scaled_latencies())
        for layer_name, key in BEHAVIOUR_AS_LAYER.items():
            layers[layer_name] = behaviour.get(key) or 0.0
        for name, unit in PER_LAYER.items():
            print(f"  {name:<40} {layers[name]:.6g} {unit}")
        print(f"  {'span':<32} {'calls/op':>9} {'ms/call':>10} {'self ms/call':>12}")
        for name, calls, incl, own in spans.call_table(tracer):
            print(f"  {name:<32} {calls:>9.4g} {incl:>10.4g} {own:>12.4g}")
        tracer.write_jsonl(ROOT / ".bench_work" / f"spans-{args.workload}.jsonl")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": reported[k], "unit": u} for k, u in END_TO_END.items()}

    problems = [p for ph in phases for p in ph.problems] + final_problems
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    correct = not problems and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
