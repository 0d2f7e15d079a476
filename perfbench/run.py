"""The repository benchmark: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload small_echo --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, every
timing scaled to a reference host speed by the probe in ``host.py``.
``--trace 1`` runs the same workload twice for half the time each, once
unpatched and once with every layer's entry points wrapped in spans, and
reports the per-layer metrics plus the tracing overhead between the two
halves; spans are written to ``.bench_out/``.  Every run checks its
outputs; any wrong output, exception, shed or overload makes the run
print ``"correct": false`` and exit 1.  The last stdout line is the
result object; the lines before it are the human-readable report.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import random
import resource
import statistics
import sys

from host import PROBE, clock

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The untraced run repeats set-up for at least this long, so that
#: ``setup_s`` does not rest on one brief moment of the host's.
SETUP_SECONDS = 1.0

#: End-to-end metrics, in the order BENCHMARK.json lists them.
END_TO_END = (("setup_s", "s"), ("rss_mb", "MiB"), ("goodput_mb_s", "MB/s"),
              ("p50_ms", "ms"), ("p90_ms", "ms"))


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up(workload, times: int, seconds: float = 0.0) -> list:
    """Set the workload up ``times`` times, and more until ``seconds``
    have passed; returns each set-up's ``(start, end)`` on
    :func:`host.clock`.

    Garbage is collected before each one, so a set-up does not pay for
    collecting what the one before it left behind.
    """
    intervals = []
    begin = clock()
    while len(intervals) < times or clock() - begin < seconds:
        gc.collect()
        start = clock()
        workload.setup()
        intervals.append((start, clock()))
    return intervals


def scaled(intervals, values=None) -> list:
    """Each value (by default, each interval's length) times the
    host-speed factor over its interval."""
    if values is None:
        values = [end - start for start, end in intervals]
    return [value * PROBE.scale(start, end)
            for (start, end), value in zip(intervals, values)]


def measure(workload, seed: int, seconds: float, trace: bool):
    """Set up, run and verify one workload; returns the report dict."""
    import layers
    from spans import Recorder
    from stats import summarize

    rng = random.Random(seed)
    if not trace:
        PROBE.start()
        try:
            setups = set_up(workload, workload.SETUPS, SETUP_SECONDS)
            phases = [workload.run(seconds, rng)]
        finally:
            PROBE.stop()
        workload.verify(phases[0])
    else:
        # The untraced half runs on the unpatched program.  Which half
        # runs first alternates with the seed, so a slow drift of the
        # host's speed does not always favour the same one.
        recorder = Recorder()
        halves = {}
        for tracing in (True, False) if seed % 2 else (False, True):
            if tracing:
                layers.install(recorder)
                recorder.enabled = True
            try:
                set_up(workload, workload.SETUPS if tracing else 1)
                if tracing:
                    handshakes = recorder.counts["kex.handshakes"]
                    for store in (recorder.counts, recorder.samples,
                                  recorder.sessions):
                        store.clear()
                    first = len(recorder.spans)
                start = clock()
                half = workload.run(seconds / 2, rng,
                                    recorder if tracing else None)
                if tracing:
                    wall = clock() - start
            finally:
                recorder.enabled = False
                recorder.restore()
            workload.verify(half)
            halves[tracing] = half
        untraced, traced = halves[False], halves[True]
        phases = [untraced, traced]
    phase = phases[-1]
    report = {
        "workload": workload.name,
        "seed": seed,
        "engine": workload.engine_name,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "attempted": sum(p.ops for p in phases),
        "failed": sum(p.failed for p in phases),
        "errors": [e for p in phases for e in p.errors],
    }
    report["failed_ratio"] = report["failed"] / max(report["attempted"], 1)
    if not phase.latencies:
        report["errors"].append("no operation completed")
        report["failed"] = max(report["failed"], 1)
        return report, {}
    summary = summarize(scaled(phase.intervals, phase.latencies))
    report.update(phase.details)
    report.update({"samples": summary["n"],
                   "tail_level": summary["tail_level"],
                   "tail_ms": summary["tail"] * 1e3})
    if trace:
        overhead = (traced.busy / traced.work) / (untraced.busy / untraced.work)
        values = layers.report(
            recorder, first, traced.ops, wall - traced.idle, workload.SETUPS,
            handshakes, overhead, traced.lags, traced.details.get("shed", 0))
        low, high = layers.COVERAGE_BAND
        if not low <= values["trace.coverage"] <= high:
            report["errors"].append(
                f"trace.coverage {values['trace.coverage']:.3f} outside "
                f"[{low}, {high}]")
            report["failed"] += 1
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        recorder.write(out / f"{workload.name}-seed{seed}.spans.jsonl")
        return report, {name: (values[name], unit)
                        for name, unit in layers.METRICS}
    if workload.OPEN_LOOP:
        # Delivered bytes over the run: the offered rate sets it, not
        # the host's speed, so it is not scaled.
        goodput = phase.payload_bytes / phase.elapsed / 1e6
    else:
        goodput = phase.payload_bytes / sum(scaled(phase.intervals)) / 1e6
    report.update({"host_probe_ms": PROBE.median_s() * 1e3,
                   "wall_p50_ms": statistics.median(phase.latencies) * 1e3})
    values = {
        "setup_s": statistics.median(scaled(setups)),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "goodput_mb_s": goodput,
        "p50_ms": summary["p50"] * 1e3,
        "p90_ms": summary["p90"] * 1e3,
    }
    return report, {name: (values[name], unit) for name, unit in END_TO_END}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = cls()
    try:
        report, metrics = measure(workload, args.seed, args.seconds,
                                  bool(args.trace))
    finally:
        workload.close()
    correct = report["failed"] == 0
    for key, value in report.items():
        print(f"{key:>16}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name:>24}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
