"""Host-speed probe: timings scaled to one reference host speed.

The benchmark runs on shared hosts, where the speed of pure-Python code
swings by half or more over seconds to minutes as other tenants come
and go.  Median latency of one workload then moves by ~40% between runs
of the same code, far past any useful bound.  A per-run statistic
(a median, a minimum) cannot remove a slow phase that lasts a whole run.

So the untraced run samples the host's speed while it works.  A
``SIGALRM`` timer interrupts the program every :data:`PROBE_INTERVAL_S`
and times a fixed pure-Python loop, :func:`_spin`: a probe.  A probe
that takes twice :data:`REFERENCE_PROBE_S` means the host runs this
interpreter at half the reference speed.  :meth:`HostProbe.scale` gives
the factor for one interval: the reference over the median probe within
:data:`WINDOW_S` of it.  Each operation's time is multiplied by the
factor for its own interval, so a phase change in the middle of a run
scales only the operations it slowed.  A change to the program moves
its operations' times but not the probe's, so it still shows in full.

:meth:`HostProbe.clock` stops while a probe runs, so probe time never
lands inside an operation's time.  With the timer off it is
:func:`time.perf_counter`.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: Seconds between probes (a probe takes ~0.3 ms: ~0.6% of the run).
PROBE_INTERVAL_S = 0.05
#: Probes within this many seconds either side of an interval set its
#: factor.
WINDOW_S = 0.25
#: Probe time at the reference speed: near a run's median probe on the
#: 2-CPU host the benchmark was tuned on, in its fast phases (0.22-0.25
#: ms; 0.35-0.42 ms in slow ones).  Scaled times read as wall times on
#: that host, unloaded.
REFERENCE_PROBE_S = 0.25e-3

_TABLE = list(range(7, 7 + 256 * 13, 13))


def _spin(rounds: int = 1500) -> int:
    """The probe's fixed work: table lookups and integer arithmetic,
    the operations the pure-Python engines spend their time on."""
    acc = 0
    table = _TABLE
    for i in range(rounds):
        acc = (acc * 31 + table[(acc ^ i) & 255]) & 0xFFFFFFFF
    return acc


class HostProbe:
    """Times :func:`_spin` on a timer; scales intervals by the result."""

    def __init__(self):
        #: Probe start times on :meth:`clock`, and their durations.
        self.starts: list = []
        self.durations: list = []
        #: Seconds spent inside probes so far.
        self.spent = 0.0
        self._previous = None

    def clock(self) -> float:
        """:func:`time.perf_counter` less the time spent in probes.

        A probe can fire between reading :attr:`spent` and the counter;
        the read is retried until :attr:`spent` held still across it.
        """
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def start(self) -> None:
        """Start probing every :data:`PROBE_INTERVAL_S`."""
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)

    def stop(self) -> None:
        """Stop the timer and put the previous handler back."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _probe(self, signum, frame) -> None:
        begin = time.perf_counter()
        _spin()
        took = time.perf_counter() - begin
        self.starts.append(begin - self.spent)
        self.durations.append(took)
        self.spent += took

    def scale(self, start: float, end: float) -> float:
        """Reference over the median probe within :data:`WINDOW_S` of
        ``[start, end]``.  With none that close, the first probe after
        it (or the last probe) stands in; with no probe at all, 1.0."""
        if not self.durations:
            return 1.0
        low = bisect.bisect_left(self.starts, start - WINDOW_S)
        high = bisect.bisect_right(self.starts, end + WINDOW_S)
        if low == high:
            low = min(low, len(self.starts) - 1)
            high = low + 1
        return REFERENCE_PROBE_S / statistics.median(
            self.durations[low:high])

    def median_s(self) -> float:
        """Median probe time so far (0.0 if nothing was probed)."""
        return statistics.median(self.durations) if self.durations else 0.0


#: The process's one probe; ``clock`` is what the workloads time with.
PROBE = HostProbe()
clock = PROBE.clock
