"""Tests of the benchmark's own arithmetic, correctness gate and runs.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import pathlib
import random
import subprocess
import sys

import pytest

import host
from host import HostProbe
from spans import Recorder, covered, self_times
from stats import percentile, summarize, tail_level
from workloads import RelayFanout, SmallEcho

RUN = pathlib.Path(__file__).resolve().parent / "run.py"


# -- the percentile rule -----------------------------------------------------

@pytest.mark.parametrize("n, level", [
    (1000, 99.0),   # exactly ten samples above the p99 rank
    (999, 90.0),    # nine above p99: fall back to p90
    (100, 90.0),
    (99, 50.0),
    (20, 50.0),
    (19, None),     # nothing has ten samples beyond it
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, level):
    assert tail_level(n) == level


def test_summarize_reports_the_median_and_supported_tail():
    samples = list(range(1, 1001))
    random.Random(4).shuffle(samples)
    summary = summarize(samples)
    assert summary == {"n": 1000, "p50": 500, "p90": 900, "tail": 990,
                       "tail_level": 99.0}
    assert percentile(samples, 99.0) == 990


def test_unsupported_tail_reads_as_the_median_not_the_max():
    summary = summarize([5, 1, 9, 3])
    assert summary["tail_level"] is None
    assert summary["tail"] == summary["p50"] == 3


# -- self-time arithmetic --------------------------------------------------

def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_of_nested_spans():
    spans = [_span("root", 0.0, 10.0, None),
             _span("child", 2.0, 5.0, 0),
             _span("grandchild", 3.0, 4.0, 1)]
    assert self_times(spans) == [7.0, 2.0, 1.0]


def test_overlapping_children_are_counted_once():
    spans = [_span("root", 0.0, 10.0, None),
             _span("a", 1.0, 4.0, 0),
             _span("b", 3.0, 6.0, 0),
             _span("c", 8.0, 12.0, 0)]   # runs past its parent: clipped
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_covered_merges_and_clips():
    assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert covered([(0, 2), (1, 3), (5, 6)], 1.5, 5.5) == pytest.approx(2.0)
    assert covered([], 0, 1) == 0


class _Target:
    def outer(self, x):
        return self.inner(x) + 1

    def inner(self, x):
        return x * 2


def test_recorder_nests_spans_under_the_root_and_restores():
    recorder = Recorder()
    original = _Target.__dict__["outer"]
    seen = []
    recorder.patch(_Target, "outer", "outer",
                   lambda args, result, span: seen.append(result))
    recorder.patch(_Target, "inner", "inner")
    target = _Target()
    assert target.outer(3) == 7          # disabled: no spans
    assert recorder.spans == []
    recorder.enabled = True
    root = recorder.begin_root("op")
    assert target.outer(3) == 7
    recorder.end_root()
    names = [(span[0], span[3]) for span in recorder.spans]
    assert names == [("op", None), ("outer", root), ("inner", 1)]
    assert seen == [7]
    recorder.restore()
    assert _Target.__dict__["outer"] is original


# -- the host-speed probe ----------------------------------------------------

def test_probe_time_is_left_out_of_the_clock():
    import time

    probe = HostProbe()
    clock_from, wall_from = probe.clock(), time.perf_counter()
    probe._probe(None, None)
    clock_took = probe.clock() - clock_from
    wall_took = time.perf_counter() - wall_from
    assert probe.spent == probe.durations[0] > 0
    assert clock_took <= wall_took - probe.durations[0] + 1e-6


def test_scale_is_the_reference_over_the_median_nearby_probe():
    ref = host.REFERENCE_PROBE_S
    probe = HostProbe()
    assert probe.scale(0.0, 1.0) == 1.0          # nothing probed
    probe.starts = [0.0, 1.0, 1.1, 1.2, 10.0]
    probe.durations = [ref, 2 * ref, 2 * ref, 4 * ref, 4 * ref]
    assert probe.scale(1.1, 1.1) == pytest.approx(0.5)
    assert probe.scale(0.2, 0.3) == pytest.approx(1.0)   # probe at 0.0
    assert probe.scale(5.0, 5.0) == pytest.approx(0.25)  # none near: next
    assert probe.scale(20.0, 30.0) == pytest.approx(0.25)


def test_probe_runs_on_its_timer_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    probe = HostProbe()
    probe.start()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    finally:
        probe.stop()
    assert len(probe.durations) >= 2
    assert probe.starts == sorted(probe.starts)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- the correctness gate ----------------------------------------------------

def test_a_corrupted_echo_reply_counts_as_a_failure(monkeypatch):
    from repro.net.client import SecureLinkClient

    workload = SmallEcho()
    try:
        workload.setup()
        genuine = SecureLinkClient.request

        async def corrupting(self, payload):
            reply = await genuine(self, payload)
            return bytes([reply[0] ^ 1]) + reply[1:]

        monkeypatch.setattr(SecureLinkClient, "request", corrupting)
        phase = workload.run(0.2, random.Random(1))
    finally:
        workload.close()
    assert phase.ops > 0
    assert phase.failed == phase.ops
    assert phase.latencies == []


def test_a_dropped_relay_delivery_counts_as_a_failure(monkeypatch):
    from repro.relay.harness import MemoryRelayClient

    workload = RelayFanout()
    try:
        workload.setup()
        genuine = MemoryRelayClient.pump
        dropped = []

        def dropping(self):
            events = genuine(self)
            if self.received and not dropped:
                dropped.append(self.received.pop())
            return events

        monkeypatch.setattr(MemoryRelayClient, "pump", dropping)
        phase = workload.run(0.3, random.Random(1))
        workload.verify(phase)
    finally:
        workload.close()
    assert dropped
    assert phase.failed == 1
    assert phase.ops > 1


def test_relay_links_open_with_the_same_keys_on_every_set_up():
    import os

    genuine = os.urandom
    workload = RelayFanout()
    try:
        ids = []
        for _ in range(2):
            workload.setup()
            ids.append([client.proto.session_id
                        for group in workload.groups for client in group])
    finally:
        workload.close()
    assert ids[0] == ids[1]
    assert len(set(ids[0])) == len(ids[0])
    assert os.urandom is genuine


# -- smoke runs of the whole command ---------------------------------------

def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--seconds", "0.4", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["bulk_blob", "small_echo",
                                      "relay_fanout"])
def test_traced_smoke_run_is_correct_and_reports_every_layer(workload):
    import layers

    result = _run(workload, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _ in layers.METRICS]
    if workload == "relay_fanout":
        assert result["metrics"]["kex.handshakes"]["value"] == 259


def test_untraced_smoke_run_reports_every_end_to_end_metric():
    import run

    result = _run("small_echo", trace=0)
    assert result["correct"] is True
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
